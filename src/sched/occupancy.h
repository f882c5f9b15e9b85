/**
 * @file
 * Lock-free occupancy board: per-socket bitmaps of who currently has work.
 *
 * PR 1's distance-level victim hierarchy probes blind: a thief pays a full
 * probe (and a failed-steal escalation tick) on a victim whose deque and
 * mailbox are both empty. The board makes victim selection *informed*:
 * every worker publishes two bits — deque non-emptiness and mailbox
 * occupancy — into a cache-aligned word shared by its socket, and thieves
 * read whole sockets at once to (a) skip provably-dry distance levels and
 * (b) weight candidate victims by occupancy (StealDistribution's
 * informed sampling).
 *
 * Cost discipline: publications are *edge triggered*. A publish first
 * checks the current bit with a relaxed load and returns without any RMW
 * when the bit already has the desired value, so steady-state push/pop on
 * a deep deque costs one relaxed load; the fetch_or/fetch_and (release)
 * fires only on 0<->1 transitions. Observers use acquire loads, pairing
 * with the release on set so that a thief reading "occupied" observes the
 * deposit that preceded the publication.
 *
 * Accuracy contract (what the scheduler may assume):
 *  - The board is advisory, never authoritative. *False-empty* — a bit
 *    still 0 while work was just made visible, or transiently cleared in
 *    a race — is allowed: a thief that trusts it merely probes elsewhere,
 *    and the escalation ladder still reaches the outermost level (which
 *    the level-skip logic never skips past), so no work is ever
 *    unreachable.
 *  - *False-nonempty* must not be invented: a set bit always
 *    happens-after a real deposit/push by some worker (the release/
 *    acquire pairing above), so probing a "occupied" victim is always
 *    justified even if the frame is gone by the time the probe lands.
 *    Stale 1-bits are repaired eagerly: owners clear on pop-to-empty and
 *    thieves clear a victim's bit when a probe finds it dry.
 *  - After quiescence (all publications complete, no concurrent
 *    mutators) the board equals ground truth exactly.
 *
 * Sockets with more than 64 workers alias bit indices modulo 64; an
 * aliased clear can only produce false-empty, which the contract allows.
 */
#ifndef NUMAWS_SCHED_OCCUPANCY_H
#define NUMAWS_SCHED_OCCUPANCY_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/cache_aligned.h"

namespace numaws {

/** Per-socket occupancy bitmaps published by workers, read by thieves. */
class OccupancyBoard
{
  public:
    /** An empty board (no workers); publishes and queries are no-ops. */
    OccupancyBoard() = default;

    /**
     * @param workers total worker/core count.
     * @param worker_socket socket of each worker (size == workers);
     *        sockets must be numbered densely from 0.
     */
    OccupancyBoard(int workers, const std::vector<int> &worker_socket);

    OccupancyBoard(OccupancyBoard &&) = default;
    OccupancyBoard &operator=(OccupancyBoard &&) = default;
    OccupancyBoard(const OccupancyBoard &) = delete;
    OccupancyBoard &operator=(const OccupancyBoard &) = delete;

    bool enabled() const { return _numWorkers > 0; }
    int numWorkers() const { return _numWorkers; }
    int numSockets() const { return _numSockets; }

    /** @name Publication (any thread; edge-triggered, see file docs)
     * Each returns true when this call took the socket's *combined*
     * (deque | mailbox) occupancy from 0 to nonzero — the socket edge
     * ParkingLot wakes ride on. Clears, no-ops, and publications that
     * lost the transition race return false. The verdict is advisory
     * like the rest of the board: a missed edge (racing clear between
     * the two word reads) only delays a parked worker by one fallback
     * period, and a spurious edge costs one wasted wake. */
    /// @{
    bool
    publishDeque(int worker, bool nonempty)
    {
        if (!enabled())
            return false;
        SocketWords &w = _words[_socketOf[worker]];
        return publish(w.deque, w.mailbox, _maskOf[worker], nonempty);
    }

    bool
    publishMailbox(int worker, bool occupied)
    {
        if (!enabled())
            return false;
        SocketWords &w = _words[_socketOf[worker]];
        return publish(w.mailbox, w.deque, _maskOf[worker], occupied);
    }
    /// @}

    /** @name Observation (any thread; acquire loads) */
    /// @{
    bool
    dequeNonempty(int worker) const
    {
        return enabled()
               && (dequeBits(_socketOf[worker]) & _maskOf[worker]) != 0;
    }

    bool
    mailboxOccupied(int worker) const
    {
        return enabled()
               && (mailboxBits(_socketOf[worker]) & _maskOf[worker]) != 0;
    }

    /** Deque non-empty or mailbox occupied. */
    bool
    workerHasWork(int worker) const
    {
        if (!enabled())
            return false;
        const SocketWords &w = _words[_socketOf[worker]];
        const uint64_t m = _maskOf[worker];
        return ((w.deque.load(std::memory_order_acquire)
                 | w.mailbox.load(std::memory_order_acquire))
                & m)
               != 0;
    }

    /** Any published work anywhere on the machine (one load per socket).
     * A thief that reads false here may skip its victim probe entirely —
     * the probe that motivated this board — as long as it still probes
     * on a bounded cadence, since a false-empty board may lag reality. */
    bool
    anyWork() const
    {
        for (int s = 0; s < _numSockets; ++s)
            if (socketHasWork(s))
                return true;
        return false;
    }

    /**
     * Any work *stealable by a thief on @p socket*: deque bits count on
     * every socket, mailbox bits only on the thief's own. PUSHBACK
     * deposits a frame only into mailboxes of the frame's place, so a
     * parked frame on another socket is earmarked for workers *there* —
     * a cross-socket thief taking it would mostly push it straight back
     * (churn, not progress). The bounded insurance probe still reaches
     * those frames if their own socket never drains them.
     */
    bool
    anyWorkFor(int socket) const
    {
        for (int s = 0; s < _numSockets; ++s) {
            uint64_t bits = _words[s].deque.load(std::memory_order_acquire);
            if (s == socket)
                bits |= _words[s].mailbox.load(std::memory_order_acquire);
            if (bits != 0)
                return true;
        }
        return false;
    }

    /** Any worker on @p socket with a non-empty deque or mailbox. */
    bool
    socketHasWork(int socket) const
    {
        if (!enabled())
            return false;
        const SocketWords &w = _words[socket];
        return (w.deque.load(std::memory_order_acquire)
                | w.mailbox.load(std::memory_order_acquire))
               != 0;
    }

    /** Raw deque bitmap of @p socket (bit i == i-th worker on it). */
    uint64_t
    dequeBits(int socket) const
    {
        return _words[socket].deque.load(std::memory_order_acquire);
    }

    /** Raw mailbox bitmap of @p socket. */
    uint64_t
    mailboxBits(int socket) const
    {
        return _words[socket].mailbox.load(std::memory_order_acquire);
    }

    /** Publication bit of @p worker within its socket's words — lets a
     * reader test a snapshot of dequeBits()/mailboxBits() per victim
     * without re-polling the atomics. */
    uint64_t workerMask(int worker) const { return _maskOf[worker]; }
    /// @}

    /** One-line occupancy summary, e.g. for bench logs. */
    std::string describe() const;

  private:
    /** Two bitmaps per socket on a private cache line: thieves scanning a
     * socket touch one line; publications from different sockets never
     * false-share. */
    struct alignas(kCacheLineBytes) SocketWords
    {
        std::atomic<uint64_t> deque{0};
        std::atomic<uint64_t> mailbox{0};
    };

    /** @return true iff this call flipped the socket's combined
     * occupancy 0 -> nonzero (@p word is the written word, @p other the
     * socket's sibling word). */
    static bool
    publish(std::atomic<uint64_t> &word,
            const std::atomic<uint64_t> &other, uint64_t mask, bool on)
    {
        // Edge trigger: the relaxed pre-check keeps the no-transition
        // path free of RMWs; the release on the transition publishes the
        // deposit that preceded this call.
        if (on) {
            if ((word.load(std::memory_order_relaxed) & mask) == 0) {
                const uint64_t prev =
                    word.fetch_or(mask, std::memory_order_release);
                // The socket edge belongs to the publication that set
                // the first bit of both words; the sibling read may
                // race a concurrent clear (advisory, see caller docs).
                return prev == 0
                       && other.load(std::memory_order_relaxed) == 0;
            }
        } else {
            if ((word.load(std::memory_order_relaxed) & mask) != 0)
                word.fetch_and(~mask, std::memory_order_release);
        }
        return false;
    }

    int _numWorkers = 0;
    int _numSockets = 0;
    std::vector<int> _socketOf;
    std::vector<uint64_t> _maskOf;
    std::unique_ptr<SocketWords[]> _words;
};

} // namespace numaws

#endif // NUMAWS_SCHED_OCCUPANCY_H
