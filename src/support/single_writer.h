/**
 * @file
 * Single-writer counters that other threads may read while they move.
 */
#ifndef NUMAWS_SUPPORT_SINGLE_WRITER_H
#define NUMAWS_SUPPORT_SINGLE_WRITER_H

#include <atomic>

namespace numaws {

/**
 * A counter with one writing thread and any number of readers.
 *
 * The writer bumps it with a relaxed load plus a relaxed store — no
 * locked RMW, so on x86 an increment costs what a plain one does — and
 * a reader on another thread (Runtime::stats() while workers run) gets
 * a torn-free value without a data race. Only the owner may write:
 * two concurrent writers would lose updates. Copies transfer the value
 * relaxed, so a struct holding counters stays copyable for its
 * single-threaded uses (the simulator re-seeding a StealCore, a reset
 * by assignment).
 */
template <typename T>
class SingleWriterCounter
{
  public:
    SingleWriterCounter() = default;
    SingleWriterCounter(T v) : _v(v) {}
    SingleWriterCounter(const SingleWriterCounter &o) : _v(o.load()) {}

    SingleWriterCounter &
    operator=(const SingleWriterCounter &o)
    {
        _v.store(o.load(), std::memory_order_relaxed);
        return *this;
    }

    T load() const { return _v.load(std::memory_order_relaxed); }
    operator T() const { return load(); }

    SingleWriterCounter &
    operator+=(T d)
    {
        _v.store(load() + d, std::memory_order_relaxed);
        return *this;
    }
    SingleWriterCounter &operator++() { return *this += 1; }

  private:
    std::atomic<T> _v{0};
};

} // namespace numaws

#endif // NUMAWS_SUPPORT_SINGLE_WRITER_H
