/**
 * @file
 * Memory system of the simulated NUMA machine: one shared LLC per socket
 * plus the latency model, resolving each strand's accesses into cycles.
 *
 * This is where work inflation comes from: the same strand costs more when
 * executed on a socket far from its data or when its lines are not in the
 * local LLC. The scheduler decides *where* strands run; this model prices
 * that decision.
 */
#ifndef NUMAWS_SIM_MEMORY_H
#define NUMAWS_SIM_MEMORY_H

#include <cstdint>
#include <vector>

#include "mem/latency_model.h"
#include "mem/llc_model.h"
#include "sim/dag.h"
#include "topology/machine.h"

namespace numaws::sim {

/** Counters split by service level, for the remote-access statistics. */
struct MemCounters
{
    uint64_t llcHitLines = 0;
    uint64_t localDramLines = 0;
    uint64_t remoteDramLines = 0;

    uint64_t
    totalLines() const
    {
        return llcHitLines + localDramLines + remoteDramLines;
    }

    double
    remoteFraction() const
    {
        const uint64_t t = totalLines();
        return t == 0 ? 0.0
                      : static_cast<double>(remoteDramLines)
                            / static_cast<double>(t);
    }

    void
    merge(const MemCounters &o)
    {
        llcHitLines += o.llcHitLines;
        localDramLines += o.localDramLines;
        remoteDramLines += o.remoteDramLines;
    }
};

/** Per-socket LLCs + latency model for one simulation run. */
class SimMemory
{
  public:
    /**
     * @param granule_bytes LLC tracking granule; strands are charged per
     *        64-byte line but residency is tracked per granule.
     */
    SimMemory(const Machine &machine, const ComputationDag &dag,
              LatencyModel latency = {}, uint64_t granule_bytes = 4096);

    /**
     * Cycles for the accesses of @p strand, an item of @p frame,
     * executed on @p socket, updating that socket's LLC and the
     * counters. Accesses, their rows, and each row's granules are
     * charged in order.
     */
    double cost(int socket, const Frame &frame, const Item &strand,
                MemCounters &counters);

    const LatencyModel &latency() const { return _latency; }
    const LlcModel &llc(int socket) const { return _llcs[socket]; }

  private:
    const Machine &_machine;
    const ComputationDag &_dag;
    LatencyModel _latency;
    uint64_t _granuleBytes;
    std::vector<LlcModel> _llcs;
};

} // namespace numaws::sim

#endif // NUMAWS_SIM_MEMORY_H
