/**
 * @file
 * The benchmark's workloads and the runtime counters they share.
 *
 * Every workload reports the same end-to-end metrics, each defined per
 * workload in README.md: setup_s, peak_rss_mb (set by main), speedup,
 * tail_slowdown and work_ratio. With tracing on it also reports the
 * per-layer metrics of the layers it exercises.
 */
#ifndef NUMAWS_BENCHMARK_SUITE_H
#define NUMAWS_BENCHMARK_SUITE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "numaws.h"

namespace numaws::bench {

void runFjFine(const RunConfig &cfg, Report &rep);
void runFjNuma(const RunConfig &cfg, Report &rep);
void runServeOpen(const RunConfig &cfg, Report &rep);
void runSimNuma32(const RunConfig &cfg, Report &rep);

/** The percentile of every tail_slowdown: on a shared host a p99 rides
 * on one stall and moved by a quarter between runs, a p90 by a few
 * percent. Ungated tails use tailQuantileFor. */
inline constexpr double kTailQ = 0.9;

/** Options of every threaded runtime the benchmark builds: the shipped
 * defaults, @p workers threads over min(workers, 2) virtual places. */
RuntimeOptions runtimeOptions(int workers, uint64_t seed);

/** Order-free checksum of sort keys, which a sort must keep. */
struct KeySum
{
    uint64_t sum = 0;
    uint64_t xorAll = 0;

    void
    add(int64_t key)
    {
        sum += static_cast<uint64_t>(key);
        xorAll ^= static_cast<uint64_t>(key);
    }
};

/** Whether the @p n keys at @p data are sorted and checksum to
 * @p expected. */
bool sortedWithSum(const int64_t *data, int64_t n, const KeySum &expected);

/** One timed serial-elision sample and whether its output was right. */
struct SerialSample
{
    double ms = 0.0;
    bool ok = true;
};

/**
 * The serial reference a parallel run is compared with: one thread per
 * CPU of @p cpus, pinned there, all running @p body (given the thread's
 * slot index) at once, one warm-up and then @p samples timed calls each.
 * Returns the harmonic mean over threads of each thread's median, ms.
 *
 * P independent serial runs meet the same host as one P-way parallel
 * run: the same CPU quota, the same slow CPUs, the same memory
 * bandwidth. A serial run timed alone meets none of that, so TS/TP
 * would swing with the host's load instead of with the runtime.
 * Every output is counted in @p rep under @p what.
 */
double concurrentSerialMs(const std::vector<int> &cpus, int samples,
                          const std::function<SerialSample(int)> &body,
                          Report &rep, const std::string &what);

/** Runtime::stats() summed over measured blocks of one runtime size. */
struct RuntimeTally
{
    /** Operations (runs or jobs) the counters cover. */
    uint64_t ops = 0;
    WorkerCounters counters;
    int64_t workNs = 0;
    int64_t schedNs = 0;
    int64_t idleNs = 0;
    /** Sum over blocks of workers x block wall time. */
    double workerWallNs = 0.0;
    /** Largest carved pool + data-heap slab memory seen, bytes. */
    uint64_t slabBytes = 0;

    void add(const RuntimeStats &s, uint64_t block_ops, int workers,
             int64_t wall_ns);

    double workNsPerOp() const;

    /** The runtime/sched/deque/mem counter metrics of this tally. */
    void report(Report &rep) const;
};

/**
 * Whether a span around Runtime::submit on @p rt measures submit: the
 * 1-worker runtimes share the pinned main thread's CPU, so there the
 * woken worker preempts the main thread inside the span.
 */
inline bool
submitSpanned(const Runtime &rt)
{
    return rt.numWorkers() > 1;
}

/** a / b, or 0 when b is 0. */
double ratio(double a, double b);

} // namespace numaws::bench

#endif // NUMAWS_BENCHMARK_SUITE_H
