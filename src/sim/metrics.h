/**
 * @file
 * Results of one simulated execution: the paper's measurement vocabulary.
 *
 * Work time / scheduling time / idle time follow Section II's definitions:
 * work = executing strands (plus the spawn/sync overhead on the work
 * path), scheduling = frame promotions, nontrivial syncs, resumes, and
 * work pushing, idle = failed steal attempts and end-of-computation
 * waiting.
 */
#ifndef NUMAWS_SIM_METRICS_H
#define NUMAWS_SIM_METRICS_H

#include <cstdint>
#include <string>

#include "sim/memory.h"

namespace numaws::sim {

/** Scheduler event counters for one run. */
struct SimCounters
{
    uint64_t strandsExecuted = 0;
    uint64_t spawns = 0;
    uint64_t trivialSyncs = 0;
    uint64_t nontrivialSyncs = 0;
    uint64_t suspensions = 0;
    uint64_t stealAttempts = 0;
    uint64_t steals = 0;         ///< successful deque steals (promotions)
    uint64_t mailboxSteals = 0;  ///< frames a thief took from a mailbox
    uint64_t mailboxPops = 0;    ///< frames a worker took from its own box
    uint64_t pushAttempts = 0;   ///< PUSHBACK attempts only
    uint64_t pushSuccesses = 0;
    /** Hinted children deposited on their place at spawn
     * (SchedPolicy::deliverHintedSpawns); not PUSHBACK attempts. */
    uint64_t spawnDeliveries = 0;
    uint64_t resumes = 0;        ///< suspended-parent resumptions
    uint64_t levelSkips = 0;     ///< dry levels skipped via the board
    uint64_t boardDryPolls = 0;  ///< probes skipped on an all-dry board
    uint64_t parks = 0;          ///< idle cores entering the parked state
    uint64_t wakeups = 0;        ///< parked-core wakeups (any cause)
    /** Cycles spent parked, summed across cores (subset of idle time;
     * the elastic pool's yield metric, mirroring WorkerCounters::
     * parkedNs). */
    uint64_t parkedCycles = 0;
    uint64_t boardWakes = 0;     ///< wakeups from a targeted socket edge
    uint64_t spuriousWakeups = 0; ///< wakeups that found a dry board
    uint64_t yields = 0;         ///< latency-class preemptions serviced
    uint64_t agedClaims = 0;     ///< job claims won via priority aging
    /** @name Interference model (SimConfig::interference only) */
    /// @{
    uint64_t interferenceRetires = 0;    ///< workers shrunk away
    uint64_t interferenceReexpands = 0;  ///< workers reinstated
    /** Extra cycles the trace's stolen-core time-slicing inflated
     * steps by (the co-runner's bill, summed across cores). */
    uint64_t stolenCycles = 0;
    /** Extra cycles the trace's socket slowdown inflated steps by. */
    uint64_t slowedCycles = 0;
    /// @}
};

/** Outcome of one simulated run. */
struct SimResult
{
    int cores = 0;
    double ghz = 0.0;

    /** Makespan in cycles (and seconds for convenience). */
    double elapsedCycles = 0.0;
    double elapsedSeconds = 0.0;

    /** Summed across cores, in seconds (paper's W_P, S_P, I_P). */
    double workSeconds = 0.0;
    double schedSeconds = 0.0;
    double idleSeconds = 0.0;

    SimCounters counters;
    MemCounters memory;

    /** First cycle at which ShedCore::unparkPressure() fired (0 = never):
     * the shed-aware elastic unpark's early-warning timestamp. */
    uint64_t firstUnparkPressureCycles = 0;
    /** First cycle at which a class's delay EWMA actually crossed its
     * QueueDelay target (0 = never). The unpark-lead gate asserts the
     * pressure signal fires no later than this crossing. */
    uint64_t firstShedCrossCycles = 0;

    /** Total processing time (work + sched + idle), seconds. */
    double
    totalProcessingSeconds() const
    {
        return workSeconds + schedSeconds + idleSeconds;
    }

    /** One-line summary for logs. */
    std::string summary() const;
};

} // namespace numaws::sim

#endif // NUMAWS_SIM_METRICS_H
