/**
 * @file
 * ShedCore: the engine-agnostic overload-protection brain.
 *
 * Like StealCore for stealing decisions, this is the single copy of the
 * serving mode's shed/admit logic, driven by both engines so they cannot
 * diverge: the threaded Runtime consults it at submit and claim time
 * against the wall clock, the simulator at admission and claim edges
 * against the virtual clock. The core itself is clock-free — engines
 * pass observed delays in nanoseconds — which is what keeps the
 * simulator's decisions byte-deterministic.
 *
 * Mechanism (ShedPolicy::QueueDelay, CoDel-shaped): each class keeps an
 * EWMA of the queue delay its jobs had accumulated when a worker
 * claimed them. While any class's EWMA exceeds its configured target
 * the server is *overloaded*, and each new admission into a *standing*
 * queue sheds one queued job from the lowest-priority nonempty lane
 * (Batch before Normal before Latency) — one-in-one-out, so no lane
 * grows while the delay signal stays above target, and the highest
 * classes are structurally the last to feel it. An arrival into empty
 * lanes is never shed (CoDel's rule): it is the server's next unit of
 * work, and evicting it would starve a busy-but-drained server while
 * the EWMA decays. Lane capacities (ShedPolicy::Reject, and the
 * backstop under QueueDelay) are a pure admission-time depth check.
 *
 * Thread-safety: the EWMAs are relaxed atomics updated with racy
 * read-modify-write — concurrent claims may lose an update, which only
 * perturbs an estimator, never correctness. The simulator is
 * single-threaded, so its updates are exact and deterministic.
 */
#ifndef NUMAWS_SCHED_SHED_CORE_H
#define NUMAWS_SCHED_SHED_CORE_H

#include <atomic>
#include <cstdint>

#include "sched/policy.h"
#include "support/panic.h"

namespace numaws {

/** Shared admission/shedding decisions (see file comment). */
class ShedCore
{
  public:
    ShedCore() = default;
    explicit ShedCore(const ServingPolicy &policy) : _policy(policy)
    {
        NUMAWS_ASSERT(_policy.queueDelayEwmaShift >= 0
                      && _policy.queueDelayEwmaShift < 32);
    }

    bool enabled() const { return _policy.shed != ShedPolicy::None; }
    ShedPolicy policy() const { return _policy.shed; }

    /**
     * Admission verdict for a job of class @p cls whose lane currently
     * holds @p laneDepth queued jobs: false means reject at submit.
     * Capacity 0 (the default) never rejects; ShedPolicy::None ignores
     * capacities entirely (the PR 6 behavior).
     */
    bool
    admit(int cls, int64_t laneDepth) const
    {
        NUMAWS_ASSERT(cls >= 0 && cls < kNumServingClasses);
        if (!enabled())
            return true;
        const int cap = _policy.laneCapacity[cls];
        return cap <= 0 || laneDepth < static_cast<int64_t>(cap);
    }

    /** A claim observed @p delayNs of queue delay on class @p cls: feed
     * the class EWMA (claims of cancelled/expired entries count too —
     * they are evidence of the same queue). */
    void
    observeDelay(int cls, int64_t delayNs)
    {
        NUMAWS_ASSERT(cls >= 0 && cls < kNumServingClasses);
        if (delayNs < 0)
            delayNs = 0;
        std::atomic<int64_t> &ewma = _delayEwmaNs[cls];
        const int64_t prev = ewma.load(std::memory_order_relaxed);
        // Seed on first observation, then ewma += (x - ewma) / 2^shift.
        const int64_t next =
            prev == kUnseeded
                ? delayNs
                : prev + ((delayNs - prev) >> _policy.queueDelayEwmaShift);
        ewma.store(next, std::memory_order_relaxed);
    }

    /** Current claim-delay EWMA of @p cls, ns (0 until first claim). */
    int64_t
    delayEwmaNs(int cls) const
    {
        NUMAWS_ASSERT(cls >= 0 && cls < kNumServingClasses);
        const int64_t v =
            _delayEwmaNs[cls].load(std::memory_order_relaxed);
        return v == kUnseeded ? 0 : v;
    }

    /**
     * Priority aging (ServingPolicy::agingWaitUs): the effective class
     * of a lane whose head job has waited @p headWaitNs. Every full
     * agingWaitUs of head wait promotes the lane one class toward 0,
     * so a starved Batch lane eventually outranks a saturated Latency
     * lane at claim time. Monotonic in headWaitNs, floored at class 0,
     * and the identity when aging is off or the wait is non-positive —
     * claim order is then exactly the nominal strict-priority order.
     */
    int
    effectiveClass(int cls, int64_t headWaitNs) const
    {
        NUMAWS_ASSERT(cls >= 0 && cls < kNumServingClasses);
        if (_policy.agingWaitUs <= 0 || headWaitNs <= 0)
            return cls;
        const int64_t step_ns =
            static_cast<int64_t>(_policy.agingWaitUs) * 1000;
        const int64_t steps = headWaitNs / step_ns;
        if (steps >= static_cast<int64_t>(cls))
            return 0;
        return cls - static_cast<int>(steps);
    }

    /**
     * The claim-time lane ranking both engines share: among the lanes
     * whose head job has waited @p headWaitNs (negative == empty lane),
     * the one with the best effectiveClass() strictly below @p below,
     * nominal class breaking ties. With aging off the effective class
     * is the nominal one, so this is plain strict-priority order.
     * Returns -1 when no lane qualifies; @p promoted reports whether
     * aging (not nominal rank) won the pick.
     */
    int
    pickLane(const int64_t headWaitNs[kNumServingClasses], int below,
             bool &promoted) const
    {
        int best = -1;
        int best_eff = below;
        for (int c = 0; c < kNumServingClasses; ++c) {
            if (headWaitNs[c] < 0)
                continue;
            const int eff = effectiveClass(c, headWaitNs[c]);
            if (eff < best_eff) {
                best_eff = eff;
                best = c;
            }
        }
        promoted = best >= 0 && best_eff < best;
        return best;
    }

    /**
     * Shed-aware unpark (ServingPolicy::unparkLeadPct): true when any
     * class's claim-delay EWMA has reached leadPct% of its QueueDelay
     * target — the early-warning signal the elastic pool uses to wake
     * every parked worker *before* overloaded() crosses. Always false
     * when the knob is 0 or the policy has no QueueDelay targets.
     */
    bool
    unparkPressure() const
    {
        if (_policy.unparkLeadPct <= 0
            || _policy.shed != ShedPolicy::QueueDelay)
            return false;
        for (int c = 0; c < kNumServingClasses; ++c) {
            const int64_t target_ns =
                static_cast<int64_t>(_policy.queueDelayTargetUs[c])
                * 1000;
            if (target_ns > 0
                && delayEwmaNs(c) * 100
                       >= target_ns * _policy.unparkLeadPct)
                return true;
        }
        return false;
    }

    /** QueueDelay only: is any class's claim-delay EWMA above its
     * target? While true, each admission sheds one job from the lowest
     * nonempty lane (the engine owns the lanes and does the pop). */
    bool
    overloaded() const
    {
        if (_policy.shed != ShedPolicy::QueueDelay)
            return false;
        for (int c = 0; c < kNumServingClasses; ++c) {
            const int64_t target_ns =
                static_cast<int64_t>(_policy.queueDelayTargetUs[c])
                * 1000;
            if (target_ns > 0 && delayEwmaNs(c) > target_ns)
                return true;
        }
        return false;
    }

  private:
    /** Sentinel distinguishing "never observed" from a true 0 EWMA, so
     * the first claim seeds the filter instead of averaging with 0. */
    static constexpr int64_t kUnseeded = -1;

    ServingPolicy _policy{};
    std::atomic<int64_t> _delayEwmaNs[kNumServingClasses] = {
        {kUnseeded}, {kUnseeded}, {kUnseeded}};
};

} // namespace numaws

#endif // NUMAWS_SCHED_SHED_CORE_H
