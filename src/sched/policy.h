/**
 * @file
 * The unified scheduling policy: every knob that picks a *decision*.
 *
 * The paper's platform is one scheduler — a work-first steal loop with
 * PUSHBACK mailboxes and hierarchical victim search — evaluated both on
 * real threads and in simulation. Until PR 4 this repo kept two
 * hand-synchronized copies of that brain: every mechanism was wired once
 * into the threaded runtime and again into the simulator, with the knob
 * set duplicated across RuntimeOptions and SimConfig. SchedPolicy is the
 * single copy: both engines embed one instance (RuntimeOptions::sched,
 * SimConfig::sched) and route every decision through the shared
 * StealCore state machine (sched/steal_core.h), so a policy exists in
 * exactly one place and the engines cannot diverge.
 *
 * What stays engine-side, deliberately: *mechanics* (deques, mailboxes,
 * threads vs events, cost charging, wake plumbing) and engine-only
 * fidelity knobs (the simulator's cycle costs, the runtime's thread
 * pinning). A knob belongs here iff both engines must agree on it.
 */
#ifndef NUMAWS_SCHED_POLICY_H
#define NUMAWS_SCHED_POLICY_H

#include <cstdint>

#include "topology/steal_distribution.h"

namespace numaws {

/** How idle workers wait for work to appear. */
enum class ParkPolicy : uint8_t
{
    /** Park on one global condition variable with a short periodic
     * timeout (the PR 0 behavior): every idle worker wakes every period
     * to re-probe, work or not. */
    Timer,
    /** Park per socket; wake only the sockets whose OccupancyBoard
     * words went 0 -> nonzero, with a longer fallback timeout as
     * lost-wakeup insurance. The default since PR 4 (PR 3's soak:
     * ~0.18x spurious wakeups, ~0.85x simulated time on the idle-heavy
     * serial-burst workload, gates at 2x / 1.02x with margin). */
    Board,
};

/** How PUSHBACK picks the receiver of a parked frame. */
enum class PushTarget : uint8_t
{
    /** Uniform random worker of the frame's place (the paper's
     * protocol): full mailboxes burn attempts. */
    Random,
    /** Uniform random worker among those whose board mailbox bit is
     * clear (room advertised); falls back to Random when every bit on
     * the place is set. The default since PR 4 (PR 3's soak: exactly
     * 1.0 pushAttempts per deposited frame on every seed vs ~1.05-1.15
     * for random probing). */
    Board,
};

/** Stable name for bench JSON / CLI ("timer" | "board"). */
inline const char *
parkPolicyName(ParkPolicy p)
{
    switch (p) {
      case ParkPolicy::Timer:
        return "timer";
      case ParkPolicy::Board:
        return "board";
    }
    return "?";
}

/** Stable name for bench JSON / CLI ("random" | "board"). */
inline const char *
pushTargetName(PushTarget t)
{
    switch (t) {
      case PushTarget::Random:
        return "random";
      case PushTarget::Board:
        return "board";
    }
    return "?";
}

/**
 * Overload protection for the serving front door (PR 7): what happens
 * when arrivals outpace capacity. A scheduling *decision* knob — both
 * engines must agree on when a job is rejected or shed — so it lives
 * here and is executed by the shared ShedCore (sched/shed_core.h).
 */
enum class ShedPolicy : uint8_t
{
    /** No protection (the PR 6 behavior): every submit is admitted and
     * queues grow without bound under overload. */
    None,
    /** Bound each class lane: a submit into a lane already at its
     * ServingPolicy::laneCapacity returns an immediately-Rejected
     * handle. Backpressure lands on the submitter, in admission order. */
    Reject,
    /**
     * CoDel-style delay-target shedding: each class tracks an EWMA of
     * the queue delay observed when its jobs are claimed; while any
     * class sits above its ServingPolicy::queueDelayTargetUs, every
     * admission sheds one queued job from the *lowest* nonempty class
     * — Batch before Normal before Latency — so degradation is
     * graceful by construction. Lane capacities still apply as the
     * hard backstop.
     */
    QueueDelay,
};

/** Stable name for bench JSON / CLI ("none" | "reject" | "queue_delay"). */
inline const char *
shedPolicyName(ShedPolicy p)
{
    switch (p) {
      case ShedPolicy::None:
        return "none";
      case ShedPolicy::Reject:
        return "reject";
      case ShedPolicy::QueueDelay:
        return "queue_delay";
    }
    return "?";
}

/**
 * Resilience against *external* interference (PR 10): co-runners the
 * runtime does not control stealing cores or memory bandwidth. A
 * scheduling *decision* knob — both engines must agree on when workers
 * retire and where admissions steer — executed by the shared
 * InterferenceCore (sched/interference_core.h).
 */
enum class InterferencePolicy : uint8_t
{
    /** No sensing, no adaptation (the PR 9 behavior): the runtime
     * assumes it owns every core it was given. */
    Off,
    /** Sense per-socket pressure (involuntary context switches +
     * wall/CPU-time skew, EWMA-smoothed) and adapt: retire surplus
     * workers on pressured sockets via the park path, re-expand on
     * decay, and steer admission wakes + spawn placement hints away
     * from pressured sockets. */
    Adapt,
};

/** Stable name for bench JSON / CLI ("off" | "adapt"). */
inline const char *
interferencePolicyName(InterferencePolicy p)
{
    switch (p) {
      case InterferencePolicy::Off:
        return "off";
      case InterferencePolicy::Adapt:
        return "adapt";
    }
    return "?";
}

/** Job classes the serving policy knows about; must equal the runtime's
 * kNumJobClasses (static_asserted in runtime/job.h) and the simulator's
 * lane count. Index order is priority order: 0 latency, 1 normal,
 * 2 batch. */
inline constexpr int kNumServingClasses = 3;

/**
 * Per-class overload-protection knobs (see ShedPolicy). Defaults keep
 * ShedPolicy::None — exactly the PR 6 behavior — so existing configs
 * are untouched; benches and servers opt in per class.
 */
struct ServingPolicy
{
    ShedPolicy shed = ShedPolicy::None;
    /** Max queued-but-unclaimed jobs per class lane; 0 = unbounded.
     * Enforced at submit under Reject and (as the hard backstop) under
     * QueueDelay; ignored under None. */
    int laneCapacity[kNumServingClasses] = {0, 0, 0};
    /** QueueDelay targets, microseconds: a class whose claim-time
     * queue-delay EWMA exceeds its target marks the server overloaded. */
    int queueDelayTargetUs[kNumServingClasses] = {1000, 5000, 20000};
    /** EWMA weight = 1/2^shift (3 == 1/8, a few claims to converge). */
    int queueDelayEwmaShift = 3;
    /**
     * Cooperative latency-class preemption: when a job is admitted
     * while every worker runs lower-class (higher-numbered) work,
     * StealCore raises a per-worker yield directive that the running
     * job's spawn/sync boundaries service — the worker checkpoints its
     * continuation onto its own deque (where thieves can still claim
     * it) and runs the higher-class job inline, bounding that job's
     * queue wait by one task body instead of one whole job. Off by
     * default: the spawn path then pays nothing (work-first).
     */
    bool preempt = false;
    /**
     * Priority aging: a lane whose head job has waited k *
     * agingWaitUs rises k effective classes at claim time (floored at
     * class 0), so a saturated higher lane cannot starve Batch forever
     * under Reject. 0 disables aging (claims use nominal class order).
     */
    int agingWaitUs = 0;
    /**
     * Shed-aware elastic unpark: when any class's claim-delay EWMA
     * reaches this percentage of its QueueDelay target, admissions
     * escalate from a single targeted wake to waking every parked
     * worker — capacity arrives *before* the shed threshold crosses
     * rather than after. 0 disables; 100 waits for the crossing itself.
     */
    int unparkLeadPct = 0;
    /** Co-runner resilience (see InterferencePolicy). Off by default:
     * the sensing epoch never ticks, no pressure is published, and the
     * schedule is byte-identical to PR 9. */
    InterferencePolicy interference = InterferencePolicy::Off;
    /** Pressure-sensing epoch, microseconds: each worker samples its
     * progress sensor once per epoch; the per-socket leader advances
     * the InterferenceCore hysteresis on the same cadence. */
    int pressureEpochUs = 5000;
    /** Socket pressure (per-mille of the epoch lost to interference,
     * EWMA-smoothed) at or above which an epoch counts as *hot*. */
    int interferenceShrinkPermille = 250;
    /** Pressure at or below which an epoch counts as *cool*; the band
     * between the two thresholds holds the current worker set. */
    int interferenceExpandPermille = 80;
    /** Consecutive hot epochs before one more worker retires. */
    int interferenceShrinkEpochs = 2;
    /** Consecutive cool epochs before one retired worker returns. A
     * retired socket can only observe its own pressure by running, so
     * this knob is also the probe duty cycle: larger values probe less
     * often under sustained interference. */
    int interferenceExpandEpochs = 2;
    /** Floor of active workers per socket under Adapt. 0 allows a fully
     * retired socket (it re-probes via the expand hysteresis); 1 keeps
     * a leader running so sensing continues in place. */
    int minWorkersPerSocket = 1;
    /** Pressure EWMA weight = 1/2^shift (2 == 1/4: a couple of epochs
     * to converge, matched to the hysteresis epoch counts). */
    int pressureEwmaShift = 2;
};

/**
 * Scheduling-policy knobs shared verbatim by the threaded runtime and
 * the simulator. Mirrors the paper's mechanisms one-for-one plus the
 * hierarchical victim-search extensions, each independently ablatable.
 * The transport is the paper's and is not a knob: a steal moves one
 * frame and a mailbox holds one frame, the single entry Section IV's
 * top-heavy-deques argument rests on.
 */
struct SchedPolicy
{
    /** Locality-biased steals (uniform when false == classic WS). */
    bool biasedSteals = true;
    BiasWeights biasWeights{};
    /** Lazy work pushing via mailboxes (false == classic WS). */
    bool useMailboxes = true;
    /**
     * Flip a coin between deque and mailbox on each steal (Section IV
     * requires it); false = always inspect the mailbox first (ablation).
     */
    bool coinFlip = true;
    /** Constant pushing threshold (Section III-B): the cap on a frame's
     * lifetime PUSHBACK attempts. */
    int pushThreshold = 4;
    /** Hierarchical level-by-level victim search with escalation,
     * informed by the OccupancyBoard and data-home affinity. Flat
     * search (false) is the paper's protocol, kept by paperBaseline(). */
    bool hierarchicalSteals = true;
    /** Consecutive failed steals per level before widening the search. */
    int stealEscalationFailures = 2;
    /** Idle-worker parking policy (see ParkPolicy). */
    ParkPolicy parkPolicy = ParkPolicy::Board;
    /** Timer-policy wait period, microseconds. */
    int parkTimerUs = 200;
    /** Board-policy fallback timeout, microseconds: the most a lost or
     * cross-socket wakeup can cost before the worker re-probes. */
    int parkFallbackUs = 1000;
    /**
     * Fruitless scheduling-loop iterations (threaded engine) or probes
     * (simulator, when SimConfig::modelParking) a worker spins through
     * before parking: the neutral prior of the EWMA park tuning
     * (ParkTuner in sched/steal_core.h), which scales this budget and
     * the park timeouts by each worker's observed park outcomes.
     */
    int parkSpinFailures = 64;
    /** PUSHBACK receiver selection (see PushTarget). */
    PushTarget pushTarget = PushTarget::Board;
    /** Overload protection for the serving front door: admission
     * bounds and load shedding (see ServingPolicy / ShedPolicy above).
     * Executed by the shared ShedCore in both engines. */
    ServingPolicy serving{};

    /** @name Derived predicates
     * Which board consumers are in play. The board itself is always
     * published: the EWMA park tuner reads its dry-park verdicts from
     * it in every configuration (without publication the threaded
     * engine's tuner would freeze at the neutral prior while the
     * simulator, whose board is always exact, kept tuning). */
    /// @{
    /** Idle workers park per socket and ride occupancy-edge wakes. */
    bool boardParking() const { return parkPolicy == ParkPolicy::Board; }

    /** PUSHBACK receivers sampled from advertised mailbox room. */
    bool
    boardPushTargeting() const
    {
        return pushTarget == PushTarget::Board;
    }
    /// @}

    /**
     * The paper-literal baseline: Figure 2/Figure 5 semantics with flat
     * victim search and the PR 0-3 wake/receiver protocols (periodic
     * timer parking, blind random PUSHBACK receivers). Ablation
     * baselines and the paper-faithful SimConfig factories request
     * these explicitly so the shipped defaults above never leak into a
     * "paper" row.
     */
    static SchedPolicy
    paperBaseline()
    {
        SchedPolicy p;
        p.hierarchicalSteals = false;
        p.parkPolicy = ParkPolicy::Timer;
        p.pushTarget = PushTarget::Random;
        return p;
    }
};

} // namespace numaws

#endif // NUMAWS_SCHED_POLICY_H
