/**
 * @file
 * Discrete-event simulation of work stealing on a NUMA machine.
 *
 * The simulated scheduler implements the paper's pseudocode literally:
 * Figure 2 (the Cilk Plus scheduler: spawn pushes the continuation, a
 * returning child pops or detects a stolen parent, nontrivial syncs
 * suspend, CHECK_PARENT resumes the suspended parent) and Figure 5 (the
 * NUMA-WS additions: place checks with PUSHBACK at nontrivial sync, at
 * CHECK_PARENT, and after successful steals; POPMAILBOX in the scheduling
 * loop; BIASEDSTEALWITHPUSH with the mailbox-vs-deque coin flip). A steal
 * moves one continuation and a mailbox holds one, as in the paper. The
 * classic and NUMA-WS schedulers are the same engine under different
 * SimConfig knobs, so ablations toggle one mechanism at a time.
 *
 * Because this engine really steals *continuations* (a stolen frame's
 * execution state is a (frame, item) pair), it reproduces the paper's
 * protocol more faithfully than any library runtime can; every evaluation
 * figure is produced here.
 *
 * Since PR 4 every scheduling *decision* — victim selection, the
 * mailbox-vs-deque coin flip, PUSHBACK receivers and thresholds,
 * escalation, dry-poll cadence, parking streaks and tuning — lives in
 * the engine-agnostic StealCore (sched/steal_core.h), configured by the
 * SchedPolicy nested in SimConfig (sched/policy.h, where the full knob
 * table is documented). The simulator is a thin driver that executes
 * the core's actions under its event clock and cost model; determinism
 * survives because each simulated core feeds its seeded RNG and virtual
 * clock through the same core the threaded runtime drives.
 */
#ifndef NUMAWS_SIM_SCHEDULER_H
#define NUMAWS_SIM_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sched/policy.h"
#include "sched/steal_core.h"
#include "sim/dag.h"
#include "sim/interference.h"
#include "sim/memory.h"
#include "sim/metrics.h"
#include "support/rng.h"
#include "topology/machine.h"
#include "topology/steal_distribution.h"

namespace numaws::sim {

/**
 * One simulated run's configuration: the unified scheduling policy
 * plus the simulator-only fidelity knobs (event costs, the parking
 * model switch, serial elision).
 */
struct SimConfig
{
    /** The unified scheduling policy (sched/policy.h), shared verbatim
     * with RuntimeOptions::sched so ablations compare like with like.
     * The simulated OccupancyBoard is exact (every deque/mailbox
     * transition is published at its mutation site), so the informed
     * policies see ground truth here. */
    SchedPolicy sched{};
    /**
     * Model idle-core parking (mirrors Runtime's spin-then-park loop).
     * Off by default — cores spin through failed probes as before,
     * keeping every pre-existing configuration's event sequence
     * byte-identical. When on, a core parks after
     * sched.parkSpinFailures consecutive fruitless probes (failed
     * steals and dry board polls) and wakes per sched.parkPolicy —
     * timer period or board edge + fallback, sched.parkTimerUs /
     * sched.parkFallbackUs converted to cycles at the machine's clock —
     * paying boardCheckCost per wakeup check.
     */
    bool modelParking = false;
    double wakeLatencyCycles = 4400.0; ///< ~2us: futex wake + sched-in

    /** @name Event costs in cycles */
    /// @{
    double spawnCost = 8.0;          ///< work path: push continuation
    double syncTrivialCost = 2.0;    ///< work path: shadow-frame sync
    double returnCost = 4.0;         ///< work path: pop on child return
    double stealAttemptBase = 120.0; ///< probe a victim (idle if failed)
    double stealPerHop = 60.0;       ///< extra probe cost per QPI hop
    double promotionCost = 250.0;    ///< successful steal bookkeeping
    double syncNontrivialCost = 120.0;
    double resumeCost = 100.0;       ///< resume a suspended full frame
    double mailboxCheckCost = 40.0;  ///< POPMAILBOX / mailbox inspection
    double pushAttemptCost = 140.0;  ///< one PUSHBACK attempt
    /** Reading the occupancy board: ~2 words per socket of read-mostly
     * shared lines, mostly L1/L2 hits after the first scan. Charged on
     * a dry poll that *replaces* a victim probe AND on every informed
     * probe (the consult that steered it), so the policy ablation
     * prices the board on both paths. Far below stealAttemptBase by
     * design. */
    double boardCheckCost = 16.0;
    /// @}

    /** Zero all runtime overheads: the serial elision (TS). */
    bool serialElision = false;

    /**
     * Co-runner interference model (sim/interference.h). Null — the
     * default — disables every hook and keeps all pre-existing
     * configurations byte-identical. Non-null charges the trace's
     * stolen/slowdown cost factors on every affected step and ticks
     * the InterferenceCore epoch ladder with the trace's synthesized
     * pressure; whether the core *adapts* (retires workers, steers
     * admission wakes) is governed separately by
     * sched.serving.interference, so adapt-vs-static ablations run
     * the same trace under both knob settings. Not owned.
     */
    const InterferenceTrace *interference = nullptr;

    uint64_t seed = 0x5eed;

    /** Classic work stealing as implemented by Cilk Plus (Figure 2).
     * Paper-literal baseline: requests the pre-board wake/receiver
     * protocols explicitly (SchedPolicy::paperBaseline), so the PR 4
     * Board defaults never leak into a "paper" row. */
    static SimConfig
    classicWs()
    {
        SimConfig c;
        c.sched = SchedPolicy::paperBaseline();
        c.sched.biasedSteals = false;
        c.sched.useMailboxes = false;
        return c;
    }

    /** The full NUMA-WS scheduler (Figure 5), paper-literal (timer
     * parking, blind random PUSHBACK receivers — see classicWs). */
    static SimConfig
    numaWs()
    {
        SimConfig c;
        c.sched = SchedPolicy::paperBaseline();
        return c;
    }

    /** Serial elision: classic engine with zero parallel overhead. */
    static SimConfig
    serial()
    {
        SimConfig c = classicWs();
        c.serialElision = true;
        c.spawnCost = 0.0;
        c.syncTrivialCost = 0.0;
        c.returnCost = 0.0;
        return c;
    }
};

/**
 * Run @p dag on @p cores simulated cores of @p machine under @p config.
 *
 * Cores are spread evenly across the machine's sockets (socket-major,
 * matching the runtime's startup policy and Figure 9's packed sockets).
 */
SimResult simulate(const ComputationDag &dag, const Machine &machine,
                   int cores, const SimConfig &config,
                   LatencyModel latency = {});

/**
 * Convenience: simulate on the paper machine subset that packs @p cores
 * tightly onto the fewest sockets (Figure 9's methodology).
 */
SimResult simulatePacked(const ComputationDag &dag, int cores,
                         const SimConfig &config, LatencyModel latency = {});

} // namespace numaws::sim

#endif // NUMAWS_SIM_SCHEDULER_H
