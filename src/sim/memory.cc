#include "sim/memory.h"

namespace numaws::sim {

SimMemory::SimMemory(const Machine &machine, const ComputationDag &dag,
                     LatencyModel latency, uint64_t granule_bytes)
    : _machine(machine),
      _dag(dag),
      _latency(latency),
      _granuleBytes(granule_bytes)
{
    _llcs.reserve(static_cast<std::size_t>(machine.numSockets()));
    for (int s = 0; s < machine.numSockets(); ++s)
        _llcs.emplace_back(machine.llcBytes(), granule_bytes);
}

double
SimMemory::cost(int socket, const Frame &frame, const Item &strand,
                MemCounters &counters)
{
    double cycles = 0.0;
    LlcModel &llc = _llcs[socket];
    const int sockets = _machine.numSockets();

    for (uint32_t a = strand.accessBegin; a < strand.accessEnd; ++a) {
        const MemAccess &acc = _dag.access(a);
        const RegionId r = frame.region(acc);
        const Region &reg = _dag.region(r);
        for (uint32_t row = 0; row < acc.rows; ++row) {
            const uint64_t begin = acc.offset + row * acc.stride;
            const uint64_t end = begin + acc.bytes;
            const uint64_t first = begin / _granuleBytes;
            const uint64_t last = (end - 1) / _granuleBytes;
            for (uint64_t g = first; g <= last; ++g) {
                // Bytes of this row inside granule g.
                const uint64_t g_lo = g * _granuleBytes;
                const uint64_t g_hi = g_lo + _granuleBytes;
                const uint64_t lo = std::max(begin, g_lo);
                const uint64_t hi = std::min(end, g_hi);
                const uint64_t lines = (hi - lo + 63) / 64;

                const bool hit = llc.access(reg.base + g_lo);
                const int home = _dag.homeOf(r, lo, sockets);
                const int hops = _machine.hops(socket, home);
                // First line pays full latency; the rest of the
                // contiguous run streams behind the prefetcher.
                const double line = _latency.lineCost(hit, hops);
                cycles += line
                          + static_cast<double>(lines - 1) * line
                                * _latency.streamFraction;
                if (hit)
                    counters.llcHitLines += lines;
                else if (hops == 0)
                    counters.localDramLines += lines;
                else
                    counters.remoteDramLines += lines;
            }
        }
    }
    return cycles;
}

} // namespace numaws::sim
