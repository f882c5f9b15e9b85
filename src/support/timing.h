/**
 * @file
 * Wall-clock timing helpers for benchmarks and the runtime's per-worker
 * work/scheduling/idle accounting.
 */
#ifndef NUMAWS_SUPPORT_TIMING_H
#define NUMAWS_SUPPORT_TIMING_H

#include <chrono>
#include <cstdint>

#include "support/single_writer.h"

namespace numaws {

/** Monotonic nanosecond timestamp. */
inline int64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock::now().time_since_epoch())
        .count();
}

/** Simple start/stop stopwatch reporting seconds. */
class WallTimer
{
  public:
    WallTimer() : _start(nowNs()) {}

    void reset() { _start = nowNs(); }

    /** Seconds since construction or the last reset(). */
    double
    seconds() const
    {
        return static_cast<double>(nowNs() - _start) * 1e-9;
    }

    int64_t nanoseconds() const { return nowNs() - _start; }

  private:
    int64_t _start;
};

/** TimeSplit's buckets, in a base shared by every BasicTimeSplit so a
 * live split and an aggregate name one Bucket type. */
struct TimeSplitBuckets
{
    enum Bucket { Work = 0, Scheduling = 1, Idle = 2, NumBuckets = 3 };
};

/**
 * Accumulator that splits a worker's lifetime into named buckets
 * (work / scheduling / idle), mirroring the paper's Figure 3 and 8
 * decomposition. The caller brackets each activity with enter/exit.
 *
 * @tparam Ns bucket storage: int64_t for aggregates (TimeSplit), a
 *         SingleWriterCounter for a worker's live split (LiveTimeSplit),
 *         which Runtime::stats() reads while the worker writes it.
 */
template <typename Ns>
class BasicTimeSplit : public TimeSplitBuckets
{
  public:
    void
    add(Bucket b, int64_t ns)
    {
        _ns[b] += ns;
    }

    int64_t ns(Bucket b) const { return _ns[b]; }
    double seconds(Bucket b) const { return static_cast<double>(_ns[b]) * 1e-9; }

    template <typename O>
    void
    merge(const BasicTimeSplit<O> &other)
    {
        for (int b = 0; b < NumBuckets; ++b)
            _ns[b] += other.ns(static_cast<Bucket>(b));
    }

  private:
    Ns _ns[NumBuckets] = {0, 0, 0};
};

using TimeSplit = BasicTimeSplit<int64_t>;
using LiveTimeSplit = BasicTimeSplit<SingleWriterCounter<int64_t>>;

} // namespace numaws

#endif // NUMAWS_SUPPORT_TIMING_H
