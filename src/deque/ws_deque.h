/**
 * @file
 * THE-protocol work-stealing deque (Frigo, Leiserson, Randall, PLDI'98).
 *
 * The deque embodies the work-first principle at the data-structure level:
 * the busy owner pushes and pops at the tail with two atomic operations and
 * one fence, taking the lock only when it races a thief for the final
 * element; thieves always take the lock and steal from the head. The paper
 * inherits this protocol unchanged from Cilk Plus (Section II), and so do
 * both of our engines.
 *
 * Terminology matches the paper: the *head* is where thieves steal (oldest
 * work) and the *tail* is where the owner works (youngest work). The ABP
 * analysis calls these "top" and "bottom".
 */
#ifndef NUMAWS_DEQUE_WS_DEQUE_H
#define NUMAWS_DEQUE_WS_DEQUE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "support/cache_aligned.h"
#include "support/panic.h"
#include "support/spin_lock.h"

namespace numaws {

/**
 * Fixed-capacity deque of pointers.
 *
 * Capacity bounds the *spawn depth* (continuations outstanding at once),
 * not total spawns, so a few thousand slots accommodate any reasonable
 * recursion; overflow is a panic rather than silent resizing because
 * resizing under the THE protocol would require a stop-the-world handshake
 * with thieves.
 *
 * @tparam T element type; the deque stores T* and never owns them.
 */
template <typename T>
class WsDeque
{
  public:
    // The buffer is left uninitialized: the THE protocol only reads
    // slots in [head, tail), each written by pushTail first, and a
    // zero-fill would touch every page of a deep deque up front.
    explicit WsDeque(std::size_t capacity = 8192)
        : _buffer(new T *[capacity]), _capacity(capacity)
    {
        NUMAWS_ASSERT(capacity >= 2);
    }

    WsDeque(const WsDeque &) = delete;
    WsDeque &operator=(const WsDeque &) = delete;

    /**
     * Owner-only: push @p item at the tail. This is the work path — one
     * relaxed store plus one release store.
     */
    void
    pushTail(T *item)
    {
        const int64_t t = _tail.load(std::memory_order_relaxed);
        // Overflow check against a cached head bound, hoisting the
        // acquire load of _head off the common case: _head only ever
        // advances, so a stale cache understates it and the test is
        // conservative — the cache is refreshed (and the check
        // repeated) only when the pessimistic bound trips, i.e. at
        // most once per `capacity` pushes on a deque thieves are
        // draining, and once ever on one they are not.
        if (t - _headCache >= static_cast<int64_t>(_capacity)) {
            _headCache = _head.load(std::memory_order_acquire);
            if (t - _headCache >= static_cast<int64_t>(_capacity))
                NUMAWS_PANIC("work deque overflow (capacity %zu); spawn "
                             "depth exceeds the configured bound",
                             _capacity);
        }
        _buffer[static_cast<std::size_t>(t) % _capacity] = item;
        // Publish the element before advertising the new tail to thieves.
        _tail.store(t + 1, std::memory_order_release);
    }

    /**
     * Owner-only: pop from the tail (THE protocol fast path).
     * @return the youngest item, or nullptr if the deque was empty or the
     *         last item was lost to a thief.
     */
    T *
    popTail()
    {
        int64_t t = _tail.load(std::memory_order_relaxed) - 1;
        _tail.store(t, std::memory_order_relaxed);
        // The fence orders the tail decrement before reading the head —
        // this is the T/H exchange at the heart of the THE protocol.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const int64_t h = _head.load(std::memory_order_relaxed);
        if (h <= t) {
            // No conflict possible: at least one item remains below any
            // concurrent thief's claim.
            if (h < t)
                return _buffer[static_cast<std::size_t>(t) % _capacity];
            // Exactly one item: race a thief for it under the lock.
            T *item = nullptr;
            {
                std::lock_guard<SpinLock> g(_lock);
                const int64_t h2 = _head.load(std::memory_order_relaxed);
                if (h2 <= t) {
                    item = _buffer[static_cast<std::size_t>(t) % _capacity];
                } else {
                    // Thief won; restore the tail to the empty position.
                    _tail.store(t + 1, std::memory_order_relaxed);
                }
            }
            if (item == nullptr)
                return nullptr;
            return item;
        }
        // Deque was empty; undo the decrement.
        _tail.store(t + 1, std::memory_order_relaxed);
        return nullptr;
    }

    /**
     * Thief: steal from the head. Thieves serialize on the deque lock
     * (overhead deliberately placed on the steal path).
     * @return the oldest item, or nullptr if the deque is empty.
     */
    T *
    stealHead()
    {
        std::lock_guard<SpinLock> g(_lock);
        const int64_t h = _head.load(std::memory_order_relaxed);
        // Claim the slot before validating against the tail, mirroring the
        // original protocol's H increment-then-check.
        _head.store(h + 1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        // Acquire pairs with pushTail's release store: the slot and
        // everything the owner wrote before the push (the closure, the
        // group's owner) are visible to the thief. The fence alone
        // implies this too, but TSan does not model fences; on x86
        // this is still a plain load.
        const int64_t t = _tail.load(std::memory_order_acquire);
        if (h < t) {
            return _buffer[static_cast<std::size_t>(h) % _capacity];
        }
        // Deque empty (or owner won the conflict); retreat.
        _head.store(h, std::memory_order_relaxed);
        return nullptr;
    }

    /**
     * Thief: steal up to half the deque from the head in one locked
     * critical section (remote-steal batching). A cross-socket steal pays
     * the same QPI round trip whether it moves one frame or several, so
     * remote-level thieves amortize that latency by taking a batch; local
     * thieves keep taking single frames, preserving the top-heavy-deques
     * argument where it matters.
     *
     * Claims ceil-half of the observed size (never less than one when
     * nonempty), capped at @p max_n, then validates against the tail the
     * same increment-then-check way stealHead() does; if the owner is
     * contending for the youngest items the claim retreats so the slot at
     * the owner's tail index is never touched by the batch.
     *
     * @param out receives the stolen items, oldest first.
     * @param max_n capacity of @p out.
     * @return number of items written to @p out.
     */
    std::size_t
    stealHalf(T **out, std::size_t max_n)
    {
        if (max_n == 0)
            return 0;
        std::lock_guard<SpinLock> g(_lock);
        const int64_t h = _head.load(std::memory_order_relaxed);
        const int64_t t0 = _tail.load(std::memory_order_acquire);
        const int64_t avail = t0 - h;
        if (avail <= 0)
            return 0;
        int64_t want = (avail + 1) / 2;
        if (want > static_cast<int64_t>(max_n))
            want = static_cast<int64_t>(max_n);
        // Claim the range before validating, mirroring stealHead().
        _head.store(h + want, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const int64_t t = _tail.load(std::memory_order_relaxed);
        if (t < h + want) {
            // The owner decremented the tail into our claim; keep only
            // the items strictly below its tail index and release the
            // rest (the racing slot at index t belongs to the owner).
            const int64_t safe = t - h > 0 ? t - h : 0;
            _head.store(h + safe, std::memory_order_relaxed);
            want = safe;
        }
        for (int64_t i = 0; i < want; ++i)
            out[i] = _buffer[static_cast<std::size_t>(h + i) % _capacity];
        return static_cast<std::size_t>(want);
    }

    /** Approximate emptiness check (exact for the owner when quiescent). */
    bool
    empty() const
    {
        return _head.load(std::memory_order_acquire)
               >= _tail.load(std::memory_order_acquire);
    }

    /** Approximate current size (for stats/tests, not for decisions). */
    int64_t
    size() const
    {
        const int64_t s = _tail.load(std::memory_order_acquire)
                          - _head.load(std::memory_order_acquire);
        return s < 0 ? 0 : s;
    }

  private:
    alignas(kCacheLineBytes) std::atomic<int64_t> _head{0};
    alignas(kCacheLineBytes) std::atomic<int64_t> _tail{0};
    /** Owner-only lower bound on _head for pushTail's overflow check;
     * shares the owner's tail line, never touched by thieves. */
    int64_t _headCache = 0;
    alignas(kCacheLineBytes) SpinLock _lock;
    std::unique_ptr<T *[]> _buffer;
    std::size_t _capacity;
};

} // namespace numaws

#endif // NUMAWS_DEQUE_WS_DEQUE_H
