#include "common.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#include "support/timing.h"
#include "topology/affinity.h"

namespace numaws::bench {

void
Report::set(const std::string &name, double value, const std::string &unit,
            uint64_t samples, const std::string &note)
{
    for (Metric &m : _metrics) {
        if (m.name == name) {
            m = {name, value, unit, samples, note};
            return;
        }
    }
    _metrics.push_back({name, value, unit, samples, note});
}

void
Report::check(bool ok, const std::string &what)
{
    ++_attempted;
    if (ok)
        return;
    ++_failed;
    if (_failed <= 20)
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

// ---------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : v) {
        if (!(x > 0.0))
            return 0.0;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
harmonicMean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double inv_sum = 0.0;
    for (const double x : v) {
        if (!(x > 0.0))
            return 0.0;
        inv_sum += 1.0 / x;
    }
    return static_cast<double>(v.size()) / inv_sum;
}

double
tailQuantileFor(std::size_t n)
{
    // q = num / den; samples beyond the nearest rank ceil(q n) are
    // n - ceil(q n), computed in integers so p99 of exactly 1000
    // samples qualifies.
    static constexpr uint64_t kLadder[][2] = {
        {999, 1000}, {99, 100}, {9, 10}};
    for (const auto &q : kLadder) {
        const uint64_t rank = (q[0] * n + q[1] - 1) / q[1];
        if (n >= rank + 10)
            return static_cast<double>(q[0]) / static_cast<double>(q[1]);
    }
    return 0.5;
}

std::string
quantileName(double q)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
    return buf;
}

double
segmentQuantile(const std::vector<std::vector<double>> &segments, double q)
{
    std::vector<double> per_segment;
    per_segment.reserve(segments.size());
    for (const std::vector<double> &s : segments) {
        if (!s.empty())
            per_segment.push_back(quantile(s, q));
    }
    return median(std::move(per_segment));
}

double
pooledQuantile(const std::vector<std::vector<double>> &segments, double q)
{
    std::vector<double> all;
    for (const std::vector<double> &s : segments)
        all.insert(all.end(), s.begin(), s.end());
    return quantile(std::move(all), q);
}

// ---------------------------------------------------------------------
// Clocks and resources
// ---------------------------------------------------------------------

namespace {

int64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** A dependent integer chain the optimizer cannot drop or vectorize. */
uint64_t
busyLoop(uint64_t iters, uint64_t x)
{
    for (uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

} // namespace

int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

double
peakRssMb()
{
    // VmHWM covers this program's address space only. ru_maxrss would
    // also count the launcher's resident set at fork, which exec carries
    // over: launched from Python it moved with the modules run.py loaded.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr
           && std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) {
    }
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

Deadline::Deadline(double seconds)
    : _endNs(nowNs() + static_cast<int64_t>(seconds * 1e9))
{
}

bool
Deadline::passed() const
{
    return nowNs() >= _endNs;
}

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return {0};
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    }
    return cpus;
}

CpuPin::CpuPin(int cpu)
{
    CPU_ZERO(&_saved);
    if (pthread_getaffinity_np(pthread_self(), sizeof(_saved), &_saved) != 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    _pinned = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

CpuPin::~CpuPin()
{
    if (_pinned)
        pthread_setaffinity_np(pthread_self(), sizeof(_saved), &_saved);
}

HostShape
probeHost()
{
    HostShape shape;
    shape.hostCores = std::max(1, hostCpuCount());
    std::atomic<uint64_t> sink{0};
    // Size the loop to ~20 ms on this host, then take the faster of two
    // serial timings so one preempted run does not inflate the result.
    uint64_t iters = 1 << 20;
    int64_t serial_ns = 0;
    for (;;) {
        const int64_t t0 = nowNs();
        sink += busyLoop(iters, 88172645463325252ULL);
        serial_ns = nowNs() - t0;
        if (serial_ns >= 20000000 || iters >= (uint64_t{1} << 36))
            break;
        iters *= 2;
    }
    {
        const int64_t t0 = nowNs();
        sink += busyLoop(iters, 88172645463325252ULL);
        serial_ns = std::min(serial_ns, nowNs() - t0);
    }
    const int64_t t0 = nowNs();
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < shape.hostCores; ++i)
            threads.emplace_back([&sink, iters, i] {
                sink += busyLoop(iters, 88172645463325252ULL + i);
            });
        for (std::thread &t : threads)
            t.join();
    }
    const int64_t parallel_ns = std::max<int64_t>(1, nowNs() - t0);
    shape.effectiveCpus = static_cast<double>(shape.hostCores)
                          * static_cast<double>(serial_ns)
                          / static_cast<double>(parallel_ns);
    if (sink.load() == 42) // keeps the loops observable
        std::fprintf(stderr, "probe sink\n");
    return shape;
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    out += '"';
    return out;
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

int
runSelftest()
{
    int failures = 0;
    const auto expect = [&failures](bool ok, const char *what) {
        std::printf("  %-58s %s\n", what, ok ? "ok" : "FAIL");
        failures += ok ? 0 : 1;
    };

    // The ">= 10 samples beyond" rule at its edges.
    expect(tailQuantileFor(9) == 0.5, "tail rule: 9 samples -> p50");
    expect(tailQuantileFor(99) == 0.5, "tail rule: 99 samples -> p50");
    expect(tailQuantileFor(100) == 0.9, "tail rule: 100 samples -> p90");
    expect(tailQuantileFor(999) == 0.9, "tail rule: 999 samples -> p90");
    expect(tailQuantileFor(1000) == 0.99, "tail rule: 1000 -> p99");
    expect(tailQuantileFor(10000) == 0.999, "tail rule: 10000 -> p99.9");
    expect(quantileName(0.999) == "p99.9", "quantile names");

    std::vector<double> ramp;
    for (int i = 1; i <= 100; ++i)
        ramp.push_back(i);
    std::vector<double> shuffled = ramp;
    std::reverse(shuffled.begin(), shuffled.end());
    expect(quantile(shuffled, 0.9) == 90.0, "nearest rank: p90 of 1..100");
    expect(quantile(shuffled, 0.5) == 50.0, "nearest rank: p50 of 1..100");
    expect(quantile({7.0}, 0.99) == 7.0, "nearest rank: one sample");
    expect(quantile({}, 0.5) == 0.0, "nearest rank: empty sample");

    expect(std::fabs(geomean({1.0, 4.0, 16.0}) - 4.0) < 1e-12,
           "geomean of 1, 4, 16 is 4");
    expect(geomean({2.0, 0.0}) == 0.0, "geomean rejects a zero");
    expect(std::fabs(harmonicMean({1.0, 3.0}) - 1.5) < 1e-12,
           "harmonic mean of 1, 3 is 1.5");

    // One stalled segment moves the segment median by one rank only.
    std::vector<std::vector<double>> segments(5, ramp);
    segments[2].assign(100, 1e6);
    expect(segmentQuantile(segments, 0.9) == 90.0,
           "segment median ignores one stalled segment");
    // 400 ramp samples (each value four times) below 100 stalled ones:
    // the 250th smallest is 63.
    expect(pooledQuantile(segments, 0.5) == 63.0,
           "pooled quantile spans every segment");

    // Numbers survive print -> parse bit for bit; strings are escaped.
    bool round_trip = true;
    for (const double v :
         {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, 1234.5678, -0.0}) {
        const std::string text = jsonNumber(v);
        round_trip &= std::strtod(text.c_str(), nullptr) == v;
    }
    expect(round_trip, "JSON numbers round-trip exactly");
    expect(jsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"",
           "JSON strings escape quote, backslash, control");
    expect(jsonNumber(std::nan("")) == "0", "non-finite numbers print 0");
    return failures;
}

} // namespace numaws::bench
