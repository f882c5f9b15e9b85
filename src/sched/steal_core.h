/**
 * @file
 * StealCore: the engine-agnostic scheduling brain, one per worker/core.
 *
 * Everything that *chooses* on the steal path lives here — dry-poll
 * cadence, hierarchical/informed victim sampling, the mailbox-vs-deque
 * coin flip and its informed override, escalation bookkeeping, PUSHBACK
 * and spawn-time delivery receiver selection, the park-after-N-failures
 * streak, the surplus-steal wake, and the EWMA-tuned parking constants.
 * The threaded runtime (runtime/worker.cc) and the simulator
 * (sim/scheduler.cc) only *execute* the returned actions (probe victim
 * V, poll the board, push to mailbox M, park on socket S, wake place P)
 * against their own mechanics, so a policy decision exists in exactly
 * one place and the engines cannot diverge.
 *
 * Determinism contract: for a fixed SchedPolicy, EngineView contents,
 * seed, and call sequence, the core draws from its private RNG in a
 * fixed order and returns an identical action sequence — the property
 * policy_core_test's differential engine-parity test locks down, and
 * what lets the simulator stay byte-reproducible per seed while sharing
 * this code with real threads (the sim feeds its virtual clock and
 * seeded RNG through the same transitions).
 *
 * Thread safety: none, with one deliberate exception — the yield
 * directive (requestYield / yieldRequested / takeYieldRequest) is an
 * atomic flag raised by *another* thread (the admitting submitter in
 * the threaded engine) and consumed by the owner at its next
 * spawn/sync boundary. Everything else is owner-only.
 */
#ifndef NUMAWS_SCHED_STEAL_CORE_H
#define NUMAWS_SCHED_STEAL_CORE_H

#include <atomic>
#include <cstdint>

#include "sched/policy.h"
#include "support/rng.h"
#include "support/single_writer.h"
#include "topology/place.h"

namespace numaws {

/**
 * Narrow view of engine state the core consults when deciding. Both
 * pointers outlive the core; @p board may be null or disabled (the
 * core then behaves as if nothing were published — blind sampling).
 */
struct EngineView
{
    const StealDistribution *dist = nullptr;
    const OccupancyBoard *board = nullptr;
};

/** One steal-path decision, returned by StealCore::nextAction(). */
struct StealAction
{
    enum class Kind : uint8_t
    {
        /** The board advertises no stealable work anywhere: skip the
         * victim probe outright this round (the probe the board was
         * built to save). The engine charges at most a board read. */
        DryPoll,
        /** Probe @p victim (mailbox first iff checkMailboxFirst). */
        Probe,
    };

    Kind kind = Kind::Probe;
    /** Victim worker/core id (Probe only). */
    int victim = -1;
    /** BIASEDSTEALWITHPUSH: inspect the victim's mailbox before its
     * deque (coin flip, possibly overridden by a set mailbox bit). */
    bool checkMailboxFirst = false;
    /** A board consult steered this action (engines price the read). */
    bool informedConsult = false;
};

/** What a work-publishing engine should do about sleepers. */
enum class WakeDirective : uint8_t
{
    None,           ///< board parking, no socket edge: nobody to wake
    TargetedSocket, ///< board parking, 0 -> nonzero edge: wake that socket
    Global,         ///< timer parking: every publish notifies globally
};

/**
 * EWMA-derived parking constants, one per worker.
 *
 * One signal drives both knobs: the *dry-park rate* — the EWMA of park
 * episodes that bought nothing (woken onto a still-dry board, or timed
 * out with no work). A machine where parks keep ending productively
 * wants more spin (the work would have arrived within the spin budget)
 * and a short fallback; a machine idling through parks wants the
 * opposite — park sooner, sleep longer. Both scales sit exactly at the
 * configured constants at the neutral prior 0.5, so a fresh tuner runs
 * the configured SchedPolicy constants and diverges only with evidence:
 *
 *   spinBudget    = clamp(2 * base * (1 - dryRate), max(1, base/4), 2*base)
 *   timeoutScale  = clamp(1 + 7 * (dryRate - 0.5), 0.5, 4.0)
 *
 * Bounded on both sides, so tuning can shift constants but never
 * remove the liveness the fallback timeout guarantees.
 */
class ParkTuner
{
  public:
    ParkTuner() = default;

    explicit ParkTuner(int base_spin)
        : _baseSpin(base_spin > 0 ? base_spin : 1)
    {}

    /** A park episode ended; @p found_work == the wake-time probe saw
     * stealable work (productive park). */
    void
    observe(bool found_work)
    {
        _dryRate = (1.0 - kAlpha) * _dryRate
                   + kAlpha * (found_work ? 0.0 : 1.0);
    }

    /** Multiplier for the configured park timeout, in [0.5, 4]. */
    double
    timeoutScale() const
    {
        // Steep enough that the clamps genuinely bind at sustained
        // evidence (the EWMA approaches but never reaches 0 or 1).
        const double s = 1.0 + 7.0 * (_dryRate - 0.5);
        return s < 0.5 ? 0.5 : (s > 4.0 ? 4.0 : s);
    }

    /** Fruitless-step budget before parking, in [base/4, 2*base]. */
    int
    spinBudget() const
    {
        const int lo = _baseSpin / 4 > 0 ? _baseSpin / 4 : 1;
        const int hi = 2 * _baseSpin;
        const int b = static_cast<int>(2.0 * _baseSpin * (1.0 - _dryRate)
                                       + 0.5);
        return b < lo ? lo : (b > hi ? hi : b);
    }

    /** EWMA dry-park rate (test hook). */
    double dryRate() const { return _dryRate; }

  private:
    static constexpr double kAlpha = 0.25;

    int _baseSpin = 1;
    double _dryRate = 0.5; ///< neutral prior: the configured constants
};

/** Decision counters the core maintains; engines fold them into their
 * own stats vocabulary (WorkerCounters / SimCounters). Single-writer:
 * the owning worker bumps them while Runtime::stats() reads them. */
struct StealCoreCounters
{
    using Count = SingleWriterCounter<uint64_t>;
    Count stealAttempts = 0; ///< probes issued (dry polls excluded)
    Count dryPolls = 0;      ///< probes replaced by a dry board poll
    Count levelSkips = 0;    ///< dry levels skipped via the board
    Count escalations = 0;   ///< hierarchical level widenings
    Count yields = 0;        ///< preemption yields serviced
};

/**
 * Copyable atomic flag for the cross-thread yield directive. StealCore
 * must stay copy-assignable (the simulator re-seeds cores by
 * assignment), which a raw std::atomic member would delete; copying
 * transfers the current value with relaxed ordering — fine, because
 * copies only happen while the owning engine is single-threaded
 * (construction / sim reset), never with a raiser in flight.
 */
class AtomicYieldFlag
{
  public:
    AtomicYieldFlag() = default;
    AtomicYieldFlag(const AtomicYieldFlag &o)
        : _v(o._v.load(std::memory_order_relaxed))
    {}
    AtomicYieldFlag &
    operator=(const AtomicYieldFlag &o)
    {
        _v.store(o._v.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
        return *this;
    }

    void raise() { _v.store(true, std::memory_order_release); }
    bool raised() const { return _v.load(std::memory_order_relaxed); }
    bool take() { return _v.exchange(false, std::memory_order_acq_rel); }

  private:
    std::atomic<bool> _v{false};
};

/**
 * Per-worker scheduling-decision state machine (file docs above).
 *
 * Call protocol, per the drivers in runtime/worker.cc and
 * sim/scheduler.cc:
 *  - steal path: a = nextAction(); execute it; onStealResult(a, got).
 *    After a deque steal, surplusWakePlace() names a place to wake.
 *  - publish path: onPublishEdge(socket_edge) says whom to wake.
 *  - PUSHBACK: per attempt, compare the frame's push count against
 *    policy().pushThreshold and pick a receiver with
 *    pickPushReceiver().
 *  - hinted spawn: if deliversSpawnTo(place), one pickSpawnReceiver()
 *    pick; a receiver >= 0 gets the child in its mailbox.
 *  - parking: noteFruitless() per fruitless step, noteProgress() when
 *    work was found; takeParkRequest() consumes the park decision;
 *    parkTimeoutUs() is the (tuned) bound; onParkOutcome() feeds the
 *    tuner after the episode.
 */
class StealCore
{
  public:
    /** An inert core (engines value-construct before wiring). */
    StealCore() = default;

    StealCore(const SchedPolicy &policy, const EngineView &view, int self,
              int socket, uint64_t seed)
        : _policy(policy),
          _view(view),
          _self(self),
          _socket(socket),
          _rng(seed),
          _esc(policy.stealEscalationFailures),
          _tuner(policy.parkSpinFailures)
    {}

    const SchedPolicy &policy() const { return _policy; }
    int self() const { return _self; }
    int socket() const { return _socket; }

    /** @name Steal path */
    /// @{
    StealAction nextAction();
    /** Report the probe's outcome (escalation credit + counters). */
    void onStealResult(const StealAction &action, bool got_work);
    /// @}

    /** @name Publish-edge wake protocol */
    /// @{
    /** The caller just published work; @p socket_edge == the publish
     * flipped its socket's combined occupancy 0 -> nonzero. */
    WakeDirective
    onPublishEdge(bool socket_edge) const
    {
        if (_policy.boardParking())
            return socket_edge ? WakeDirective::TargetedSocket
                               : WakeDirective::None;
        return WakeDirective::Global;
    }

    /**
     * Surplus-steal wake: a deque steal just succeeded, and @p surplus
     * says the victim's deque still holds work. Board parking wakes a
     * place only on its own 0 -> nonzero edge, so sleepers elsewhere
     * would sleep through that work until their fallback expires.
     * Returns the place whose sleepers to wake: this worker's own
     * place first, then the others by hop distance (ties to the lower
     * index), the first for which @p has_sleepers holds; -1 for none.
     * Timer parking returns -1, because every publish there already
     * notifies globally. No RNG draw.
     */
    template <typename HasSleepersFn>
    int
    surplusWakePlace(bool surplus, HasSleepersFn has_sleepers) const
    {
        if (!surplus || !_policy.boardParking())
            return -1;
        if (has_sleepers(_socket))
            return _socket;
        const StealDistribution &dist = *_view.dist;
        int best = -1;
        int best_hops = 0;
        for (int p = 0; p < dist.numSockets(); ++p) {
            const int hops = dist.socketHops(_socket, p);
            if (p != _socket && (best < 0 || hops < best_hops)
                && has_sleepers(p)) {
                best = p;
                best_hops = hops;
            }
        }
        return best;
    }
    /// @}

    /** @name PUSHBACK (lazy work pushing) */
    /// @{
    /**
     * Receiver for the next attempt among workers [first, last) of
     * @p target_socket: board-guided when the policy says so (sampled
     * from advertised mailbox room), else — or when no room is
     * advertised — a blind uniform pick. @p self_in_range is excluded
     * from the guided pick (-1 when the pusher is outside the range;
     * the blind fallback deliberately does not exclude it, matching
     * the paper's protocol where a self-pick burns the attempt).
     */
    int pickPushReceiver(int first, int last, int self_in_range,
                         int target_socket);
    /// @}

    /** @name Spawn-time delivery (SchedPolicy::deliverHintedSpawns) */
    /// @{
    /**
     * Should a child hinted at @p place try to leave this worker at
     * spawn? Only for a concrete place other than this worker's, with
     * delivery and mailboxes on. No board read and no RNG draw, so an
     * unhinted spawn pays the isConcretePlace compare alone.
     */
    bool
    deliversSpawnTo(Place place) const
    {
        return isConcretePlace(place) && place != _socket
               && _policy.deliverHintedSpawns && _policy.useMailboxes;
    }

    /**
     * Receiver for a spawn-time delivery among workers [first, last) of
     * @p place, or -1 to keep the spawn work-first. One board-guided
     * attempt, with no blind fallback and no PUSHBACK budget consumed:
     *  - the board must show the place with no work at all (every deque
     *    and mailbox bit clear). On a busy place the child would wait
     *    behind the receiver's own chain; under saturation that costs
     *    throughput, locality and deadlines, and work-first wins;
     *  - the receiver is a uniform pick there (every mailbox on a dry
     *    place advertises room); a receiver that @p asleep reports
     *    parked keeps the spawn local too: its wake would rouse every
     *    sleeper on the socket for a single frame.
     * The threaded board may lag: a full mailbox then rejects the
     * deposit and the spawn stays local.
     */
    template <typename AsleepFn>
    int
    pickSpawnReceiver(int first, int last, int place, AsleepFn asleep)
    {
        if (first >= last || !boardUsable()
            || _view.board->socketHasWork(place))
            return -1;
        const int receiver =
            first
            + static_cast<int>(_rng.nextBounded(
                static_cast<uint64_t>(last - first)));
        return asleep(receiver) ? -1 : receiver;
    }
    /// @}

    /** @name Parking decisions */
    /// @{
    /** A scheduling step found nothing (failed probe, dry poll, empty
     * local round): advance the park streak. */
    void
    noteFruitless()
    {
        if (++_parkFails >= _tuner.spinBudget()) {
            _parkFails = 0;
            _parkRequested = true;
        }
    }

    /** Work was found or executed: the streak breaks. */
    void noteProgress() { _parkFails = 0; }

    /** Consume the pending park decision, if any. */
    bool
    takeParkRequest()
    {
        const bool r = _parkRequested;
        _parkRequested = false;
        return r;
    }

    /** Park timeout for the next episode, microseconds (policy base
     * for the active ParkPolicy, scaled by the tuner). */
    double
    parkTimeoutUs() const
    {
        const int base = _policy.boardParking() ? _policy.parkFallbackUs
                                                : _policy.parkTimerUs;
        return base * _tuner.timeoutScale();
    }

    /** A park episode ended. @p found_work: the wake-time check saw
     * stealable work (false == spurious wake or dry timeout). Callers
     * skip this when no meaningful work signal exists (e.g. the
     * runtime between roots), leaving the tuner at its last estimate. */
    void onParkOutcome(bool found_work) { _tuner.observe(found_work); }
    /// @}

    /** @name Cooperative preemption (yield directive) */
    /// @{
    /**
     * Raise the yield directive on this worker: a higher-class job is
     * queued and this worker is the chosen victim. Called from the
     * admitting thread; the owner consumes it at its next spawn/sync
     * boundary via takeYieldRequest().
     */
    void requestYield() { _yieldRequested.raise(); }

    /** Cheap boundary-side peek — one relaxed load, nothing else. */
    bool yieldRequested() const { return _yieldRequested.raised(); }

    /** Consume the directive (exactly one boundary acts on a raise). */
    bool takeYieldRequest() { return _yieldRequested.take(); }

    /** A consumed directive actually claimed a job (counter credit). */
    void noteYieldServiced() { ++_counters.yields; }

    /**
     * Preemption victim among @p n workers whose running job classes
     * are @p runningCls (-1 == idle / not running a job), for an
     * admitted job of class @p cls. Returns -1 when any worker is idle
     * (the admission wake already covers it) or when nobody runs
     * strictly lower-class (numerically greater) work; otherwise the
     * worker running the lowest-priority class, lowest index on ties
     * (deterministic, so both engines agree).
     */
    static int pickPreemptVictim(int cls, const int8_t *runningCls,
                                 int n);
    /// @}

    /** @name Data-home affinity */
    /// @{
    /** Sockets homing the current task's data (bit s == socket s); the
     * engine resolves homes (PageMap / region table), the core uses the
     * mask to weight victims. Zero masks are ignored (keep the last
     * known homes, matching the engines' pre-PR 4 behavior). */
    void
    setAffinity(uint32_t socket_mask)
    {
        if (socket_mask != 0)
            _affinity = socket_mask;
    }

    uint32_t affinity() const { return _affinity; }

    /**
     * Turn a data-home socket mask (the same encoding setAffinity
     * takes) into a spawn-time placement hint: the lowest homing
     * socket, or kAnyPlace for an empty mask. Static and deterministic
     * — the spawn fast path must not consume RNG (only a spawn-time
     * delivery draws, through pickSpawnReceiver, in both engines alike;
     * the engine-parity contract).
     */
    static Place
    placeFromAffinity(uint32_t socket_mask)
    {
        if (socket_mask == 0)
            return kAnyPlace;
        return static_cast<Place>(__builtin_ctz(socket_mask));
    }
    /// @}

    /** @name Introspection (engines fold counters; tests poke state) */
    /// @{
    const StealCoreCounters &counters() const { return _counters; }
    void resetCounters() { _counters = StealCoreCounters{}; }
    StealEscalation &escalation() { return _esc; }
    const ParkTuner &parkTuner() const { return _tuner; }
    Rng &rng() { return _rng; }
    /// @}

  private:
    bool boardUsable() const
    {
        return _view.board != nullptr && _view.board->enabled();
    }

    SchedPolicy _policy{};
    EngineView _view{};
    int _self = 0;
    int _socket = 0;
    Rng _rng{0};
    StealEscalation _esc{};
    ParkTuner _tuner{};
    /** Sockets homing the data of the last task this worker ran. */
    uint32_t _affinity = 0;
    /** Consecutive all-dry board polls; every 4th probes anyway. */
    int _dryStreak = 0;
    /** Consecutive fruitless steps toward the park budget. */
    int _parkFails = 0;
    bool _parkRequested = false;
    /** Cross-thread yield directive (see the thread-safety note). */
    AtomicYieldFlag _yieldRequested{};
    StealCoreCounters _counters{};
};

} // namespace numaws

#endif // NUMAWS_SCHED_STEAL_CORE_H
