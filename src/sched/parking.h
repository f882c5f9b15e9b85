/**
 * @file
 * Occupancy-guided idle-worker parking and PUSHBACK targeting.
 *
 * Two blind spots survived PR 2's OccupancyBoard: idle workers still
 * wake on a fixed timer whether or not work exists anywhere, and the
 * PUSHBACK pusher still probes random receivers whose mailboxes may be
 * full. Both policies are made board-guided here, each behind its own
 * ablatable knob:
 *
 *  - ParkPolicy::Board replaces the global 200us timer wait with a
 *    per-socket ParkingLot: a worker parks tagged with its socket once
 *    the board shows no work, and only these wake it:
 *     1. an occupancy edge on its own socket: a board word went
 *        0 -> nonzero (OccupancyBoard::publishDeque/publishMailbox
 *        report the edge back), so a push on socket 2 does not wake
 *        sockets 0, 1 and 3;
 *     2. an admission wake aimed at its socket
 *        (Runtime::notifyAdmission);
 *     3. a surplus-steal wake: a deque steal that left its victim
 *        non-empty wakes the nearest socket with sleepers
 *        (StealCore::surplusWakePlace), so work on one socket reaches
 *        sleepers on another that no edge of theirs would wake;
 *     4. the bounded fallback timeout, which keeps liveness: a lost
 *        wakeup costs at most one fallback period, never starvation.
 *  - PushTarget::Board picks PUSHBACK receivers from the complement of
 *    OccupancyBoard::mailboxBits(socket) — the workers whose mailbox
 *    advertises room — instead of probing blind, falling back to the
 *    random probe when the complement is empty (or the board lies:
 *    tryPut can still be rejected and the pusher retries as before).
 *
 * Wakeup correctness (what ParkingLot guarantees): wake(s) taken after
 * a worker is registered in slot s always wakes it — the epoch is
 * bumped under the slot mutex, so a parker between its predicate check
 * and the wait cannot miss it. The one unguarded window is a publish
 * that lands after the parker's last work check but completes its
 * waiter-count read before the parker registers; the board's release
 * publishes are not sequentially consistent against the waiter count,
 * so that wake may be skipped. The fallback timeout bounds the damage
 * to one period — the contract the scheduler is written against.
 */
#ifndef NUMAWS_SCHED_PARKING_H
#define NUMAWS_SCHED_PARKING_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "sched/policy.h" // ParkPolicy/PushTarget (the unified knob set)
#include "support/cache_aligned.h"
#include "support/rng.h"

namespace numaws {

/**
 * Per-socket parking: one waiter word + condition slot per socket, each
 * on its own cache line so a waker touching socket s never contends
 * with parkers on other sockets.
 *
 * The waiter word is the waker's fast path: wake() returns after one
 * acquire load when nobody is parked on the socket, so the publish
 * paths that piggyback on it (Worker::pushTask, Mailbox::tryPut) pay
 * nothing while the machine is busy — the lot only costs when someone
 * is actually asleep.
 */
class ParkingLot
{
  public:
    /** A disabled lot (no sockets): park returns immediately. */
    ParkingLot() = default;

    explicit ParkingLot(int sockets);

    ParkingLot(const ParkingLot &) = delete;
    ParkingLot &operator=(const ParkingLot &) = delete;

    bool enabled() const { return _numSockets > 0; }
    int numSockets() const { return _numSockets; }

    /**
     * Park the caller in @p socket's slot until wake(socket)/wakeAll(),
     * @p timeout, or @p pred returning true. The predicate is evaluated
     * under the slot mutex after the caller is registered as a waiter
     * and again on every notification, so any wake issued after
     * registration is never lost.
     *
     * @return true when a wake or the predicate ended the park before
     *         the timeout; false once the timeout expires, whatever the
     *         predicate says then (a sleeper that missed its wake and
     *         found work only at the fallback is a timeout, not a wake).
     */
    template <typename Pred>
    bool
    park(int socket, std::chrono::microseconds timeout, Pred pred)
    {
        if (!enabled())
            return false;
        Slot &s = _slots[socket];
        std::unique_lock<std::mutex> lock(s.m);
        s.waiters.fetch_add(1, std::memory_order_seq_cst);
        // Registered-then-check: a wake issued after the fetch_add sees
        // waiters != 0, takes the mutex, and bumps the epoch we are
        // about to snapshot — so it either serializes before this pred
        // (which then observes the published work) or after the
        // snapshot (and the epoch comparison catches it).
        const uint64_t epoch = s.epoch.load(std::memory_order_relaxed);
        const auto wake_seen = [&] {
            return s.epoch.load(std::memory_order_relaxed) != epoch;
        };
        bool woken = pred();
        if (!woken) {
            const auto deadline = std::chrono::steady_clock::now() + timeout;
            do {
                if (s.cv.wait_until(lock, deadline)
                    == std::cv_status::timeout) {
                    woken = wake_seen();
                    break;
                }
                woken = wake_seen() || pred();
            } while (!woken);
        }
        s.waiters.fetch_sub(1, std::memory_order_seq_cst);
        return woken;
    }

    /** park() with no predicate: wait for a wake or the timeout. */
    bool
    park(int socket, std::chrono::microseconds timeout)
    {
        return park(socket, timeout, [] { return false; });
    }

    /**
     * Wake every worker parked in @p socket's slot. One acquire load
     * when the slot is empty (the common busy-machine case).
     */
    void wake(int socket);

    /** Wake every slot, skipping no one (shutdown, root injection).
     * Deliberately no waiter-count fast path: the callers are rare and
     * must never miss a worker racing into park(). */
    void wakeAll();

    /** @name Introspection (tests, stats) */
    /// @{
    int
    waiters(int socket) const
    {
        return enabled() ? static_cast<int>(_slots[socket].waiters.load(
                   std::memory_order_acquire))
                         : 0;
    }

    /** Wakes delivered to a non-empty slot (wakeAll included). */
    uint64_t
    wakesDelivered(int socket) const
    {
        return enabled() ? _slots[socket].delivered.load(
                   std::memory_order_relaxed)
                         : 0;
    }
    /// @}

  private:
    struct alignas(kCacheLineBytes) Slot
    {
        /** Parked-worker count: the waker's lock-free fast path. */
        std::atomic<uint32_t> waiters{0};
        /** Bumped under the mutex by every wake; parkers snapshot it
         * under the same mutex, so a wake between snapshot and sleep is
         * never lost. */
        std::atomic<uint64_t> epoch{0};
        std::atomic<uint64_t> delivered{0};
        std::mutex m;
        std::condition_variable cv;
    };

    int _numSockets = 0;
    std::unique_ptr<Slot[]> _slots;
};

/**
 * Pick a PUSHBACK receiver among workers [first, last) whose mailbox
 * bit is clear in @p mailbox_bits — the board-guided receiver set —
 * uniformly at random. @p mask_of maps a worker id to its board bit
 * (OccupancyBoard::workerMask), so callers sample against one bitmap
 * snapshot. @p self is excluded (a pusher never targets itself; pass
 * -1 when the pusher is outside the range).
 *
 * @return a worker id in [first, last), or -1 when no candidate
 *         advertises room (callers fall back to the random probe).
 *
 * With mailbox capacity 1 a set bit means *full*, so the complement is
 * exactly the receivers with room. At higher capacities a set bit only
 * means nonempty — the pick is then conservative (partially filled
 * mailboxes are skipped), which costs placement choice, never
 * correctness: the random fallback still reaches every receiver.
 */
template <typename MaskFn>
int
pickClearMailbox(int first, int last, int self, uint64_t mailbox_bits,
                 MaskFn mask_of, Rng &rng)
{
    int candidates = 0;
    for (int w = first; w < last; ++w) {
        if (w != self && (mailbox_bits & mask_of(w)) == 0)
            ++candidates;
    }
    if (candidates == 0)
        return -1;
    int pick = static_cast<int>(
        rng.nextBounded(static_cast<uint64_t>(candidates)));
    for (int w = first; w < last; ++w) {
        if (w != self && (mailbox_bits & mask_of(w)) == 0
            && pick-- == 0)
            return w;
    }
    return -1; // unreachable: pick < candidates
}

} // namespace numaws

#endif // NUMAWS_SCHED_PARKING_H
