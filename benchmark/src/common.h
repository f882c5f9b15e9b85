/**
 * @file
 * Shared pieces of the repository benchmark: run parameters, the metric
 * report, the sample statistics every workload uses, process resource
 * readings and the host-shape probe.
 */
#ifndef NUMAWS_BENCHMARK_COMMON_H
#define NUMAWS_BENCHMARK_COMMON_H

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

namespace numaws::bench {

/** Parameters of one benchmark run. */
struct RunConfig
{
    uint64_t seed = 1;
    /** Length of the measuring phase (set-up is extra). */
    double seconds = 20.0;
    /** Record spans and report the per-layer metrics. */
    bool trace = false;
    /** The P CPUs the load uses (P = min(allowed CPUs, 4)); serial
     * reference runs are pinned to them one thread each. */
    std::vector<int> cpus;

    int workers() const { return static_cast<int>(cpus.size()); }
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (rounds, jobs, passes, calls). */
    uint64_t samples = 0;
    /** Free-form qualifier, e.g. the percentile a tail value is. */
    std::string note;
};

/** Metrics plus the output-check tally of one run. */
class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit,
             uint64_t samples, const std::string &note = "");

    /** Count one output check; a failed one is also logged to stderr. */
    void check(bool ok, const std::string &what);

    const std::vector<Metric> &metrics() const { return _metrics; }
    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const { return _failed; }

  private:
    std::vector<Metric> _metrics;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
};

// ---------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------

/** Nearest-rank quantile, q in (0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);

/** Geometric mean of positive values; 0 if any value is not positive. */
double geomean(const std::vector<double> &v);

/** Harmonic mean of positive values; 0 if any value is not positive. */
double harmonicMean(const std::vector<double> &v);

/**
 * The highest of the percentiles p50, p90, p99, p99.9 that leaves at
 * least ten of @p n samples beyond it (0.5 when none does), so a tail is
 * never read off a handful of samples.
 */
double tailQuantileFor(std::size_t n);

/** Quantile name for a note: 0.99 -> "p99". */
std::string quantileName(double q);

/**
 * Median over segments of each segment's @p q quantile: one stalled
 * segment moves the result by one rank instead of dragging a pooled
 * tail with it.
 */
double segmentQuantile(const std::vector<std::vector<double>> &segments,
                       double q);

/** The @p q quantile of all segments' samples together. */
double pooledQuantile(const std::vector<std::vector<double>> &segments,
                      double q);

// ---------------------------------------------------------------------
// Clocks and resources
// ---------------------------------------------------------------------

inline double
toMs(int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** CPU time of the whole process / the calling thread, nanoseconds. */
int64_t processCpuNs();
int64_t threadCpuNs();

/** Peak resident set size of the process so far, MiB. */
double peakRssMb();

/** Wall-clock budget for a measuring phase. */
class Deadline
{
  public:
    explicit Deadline(double seconds);
    bool passed() const;

  private:
    int64_t _endNs;
};

/** The CPUs this process may run on, ascending. */
std::vector<int> allowedCpus();

/**
 * Pins the calling thread to one CPU until destroyed, then restores its
 * previous CPU set. Threads created meanwhile (a Runtime's workers)
 * inherit the pin and keep it.
 */
class CpuPin
{
  public:
    explicit CpuPin(int cpu);
    ~CpuPin();

    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t _saved;
    bool _pinned = false;
};

/** Logical CPUs and the parallelism they actually deliver. */
struct HostShape
{
    int hostCores = 1;
    /** host_cores x (serial busy-loop time / time of host_cores
     * concurrent copies): 4.0 on four idle CPUs, less when the host is
     * shared or throttled. */
    double effectiveCpus = 1.0;
};

HostShape probeHost();

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

/** A number with all its digits (%.17g; non-finite values become 0). */
std::string jsonNumber(double v);

/** A quoted, escaped JSON string. */
std::string jsonString(const std::string &s);

/** Unit checks of the helpers above; returns the number of failures. */
int runSelftest();

} // namespace numaws::bench

#endif // NUMAWS_BENCHMARK_COMMON_H
