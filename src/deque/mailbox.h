/**
 * @file
 * Single-entry mailbox for lazy work pushing (Section III-B).
 *
 * Each worker owns one mailbox into which other workers may deposit a
 * full frame earmarked for this worker's place, *without interrupting
 * it*. The mailbox holds exactly one frame, as in the paper: that single
 * entry is load-bearing in the Section IV theory — with at most one
 * frame parked per worker the top-heavy-deques argument survives and the
 * pushing cost amortizes against successful steals. A full mailbox
 * rejects the deposit and PUSHBACK retries another receiver.
 *
 * The mailbox optionally publishes its occupancy to an OccupancyBoard
 * (attachBoard): tryPut sets the owner's mailbox bit after the deposit is
 * visible, tryTake clears it when the frame leaves. That ordering
 * makes a set bit always happen-after a real deposit (never-invented
 * occupancy) while an unset bit may transiently lag a deposit
 * (false-empty, which the board contract allows).
 */
#ifndef NUMAWS_DEQUE_MAILBOX_H
#define NUMAWS_DEQUE_MAILBOX_H

#include <atomic>

#include "sched/occupancy.h"
#include "sched/parking.h"
#include "support/cache_aligned.h"

namespace numaws {

/** Lock-free single-slot mailbox of T*. */
template <typename T>
class Mailbox
{
  public:
    Mailbox() = default;
    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    /** Publish occupancy transitions for @p worker on @p board. */
    void
    attachBoard(OccupancyBoard *board, int worker)
    {
        _board = board;
        _worker = worker;
    }

    /**
     * Also wake @p lot's slot for @p socket whenever a deposit flips
     * the socket's board occupancy 0 -> nonzero (ParkPolicy::Board).
     * The deposit is the runtime's second publish point (after
     * Worker::pushTask), so parked workers learn about frames parked
     * for their place without a timer. Requires attachBoard.
     */
    void
    attachParking(ParkingLot *lot, int socket)
    {
        _lot = lot;
        _socket = socket;
    }

    /**
     * Attempt to deposit @p item.
     * @return false if the slot holds a frame (the pusher then retries
     *         with a different random receiver, per PUSHBACK).
     */
    bool
    tryPut(T *item)
    {
        T *expected = nullptr;
        if (!_slot.compare_exchange_strong(expected, item,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
            return false;
        // Deposit first, then advertise: a thief that reads the
        // occupancy bit (acquire) observes this frame. A socket
        // occupancy edge wakes the owner's parked socket.
        if (_board != nullptr && _board->publishMailbox(_worker, true)
            && _lot != nullptr)
            _lot->wake(_socket);
        return true;
    }

    /**
     * Remove and return the parked frame, or nullptr if empty. Used by
     * the owner in its scheduling loop (POPMAILBOX) and by thieves that
     * win the coin flip (BIASEDSTEALWITHPUSH outcome 2/3).
     */
    T *
    tryTake()
    {
        if (_slot.load(std::memory_order_relaxed) != nullptr) {
            if (T *item = _slot.exchange(nullptr, std::memory_order_acq_rel)) {
                // A deposit racing in behind the take keeps its bit.
                if (_board != nullptr
                    && _slot.load(std::memory_order_relaxed) == nullptr)
                    _board->publishMailbox(_worker, false);
                return item;
            }
        }
        // Dry check: repair a stale 1-bit for free (the board contract's
        // "repaired eagerly" promise; racing a concurrent deposit at
        // worst leaves a transient false-empty, which the contract
        // allows and the owner's unconditional POPMAILBOX drains
        // regardless).
        if (_board != nullptr)
            _board->publishMailbox(_worker, false);
        return nullptr;
    }

    /**
     * Read the parked frame without removing it (a thief inspects the
     * frame's place before deciding to take it or push it onward).
     */
    T *peek() const { return _slot.load(std::memory_order_acquire); }

    /** The slot holds a frame (a deposit would be rejected)? */
    bool full() const { return peek() != nullptr; }

  private:
    alignas(kCacheLineBytes) std::atomic<T *> _slot{nullptr};
    OccupancyBoard *_board = nullptr;
    int _worker = -1;
    ParkingLot *_lot = nullptr;
    int _socket = -1;
};

} // namespace numaws

#endif // NUMAWS_DEQUE_MAILBOX_H
