/**
 * @file
 * serve-open: open-loop Poisson arrivals from the main thread into a
 * (P-1)-worker runtime, so the generator keeps a CPU of its own.
 *
 * Jobs cycle through three kinds: Latency fib, Normal heat whose grids
 * come from numa::allocate inside the job (the result grid is freed by
 * the main thread after checking: a remote free), and Batch sort.
 * Each round sets up fresh runtimes and inputs and, per kind, times the
 * serial elision alone (TS) and closed-loop on a 1-worker runtime (T1),
 * both pinned to one CPU. The round then runs one segment at the `low`
 * rate and four at `mid` and, in the untraced rounds of a traced run,
 * probes for the highest rate the runtime sustains. Before the first
 * segment and after each one it times P serial elisions of each kind at
 * once (TSref, see concurrentSerialMs), the yardstick of the segment's
 * latencies. Latency runs from the instant a job was due to the instant
 * it was done, so a late generator is charged to the jobs it delayed.
 */
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bodies.h"
#include "suite.h"
#include "support/rng.h"
#include "support/timing.h"
#include "trace.h"

namespace numaws::bench {

namespace {

using trace::Kind;
using trace::Span;
using trace::SpanIf;

constexpr int kFibJobN = 25;
/** 64 x 64 doubles = 32 KiB, the largest pooled data-heap class. */
constexpr int64_t kHeatN = 64;
constexpr int kHeatSteps = 32; // even: the result lands in the first grid
constexpr int64_t kHeatGrainRows = 16;
constexpr int64_t kSortN = 4096;
constexpr int kSortInputs = 16;

/**
 * Offered load per serving worker, jobs/s, frozen: 5% (`low`, the pool
 * parks between jobs) and 20% (`mid`, jobs queue) of one worker at the
 * mean TSref of the job mix, 156 us, on the reference host (README.md).
 * Rates calibrated from each round's TSref followed its noise: the
 * mid-rate median latency then varied three times as much between runs.
 * At 40% the runtime ran at about 80% of its measured capacity, and the
 * p90 slowdown there spread up to 30% between runs of ten seeds; at 20%,
 * under 3%.
 */
constexpr double kRateLowPerServer = 320.0;
constexpr double kRateMidPerServer = 1280.0;
constexpr int kLowJobs = 500;
constexpr int kMidJobs = 2000;
constexpr int kMidSegmentsPerRound = 4;
constexpr int kSerialSamples = 20;
/** Slowdown limit of goodput_frac and of the capacity probes: latency
 * within 20x the job's TSref. */
constexpr double kSlowdownLimit = 20.0;
/**
 * Capacity probes: rung i offers kRateMidPerServer x (1 + i / 2) per
 * worker, 20% to 100% of one worker in steps of 10%. A probe segment of
 * kProbeJobs jobs meets a rung when its p99 slowdown stays within
 * kSlowdownLimit and its backlog does not grow: the median slowdown of
 * its last quarter of jobs is at most kBacklogGrowth times that of its
 * first quarter.
 */
constexpr int kCapacityRungs = 9;
constexpr int kProbeJobs = 1000;
constexpr double kBacklogGrowth = 2.0;

enum JobKind : int
{
    kFib,
    kHeat,
    kSort,
    kNumKinds
};

const char *const kKindNames[kNumKinds] = {"fib", "heat", "sort"};

/** Inputs and reference outputs of one round. */
struct RoundInputs
{
    uint64_t fibRef = 0;
    std::vector<double> heatInit;
    std::vector<double> heatRef;
    std::vector<std::vector<int64_t>> sortKeys;
    std::vector<KeySum> sortSums;
};

/** One Jacobi sweep over rows [lo, hi), interior columns. */
void
heatRows(const double *src, double *dst, int64_t lo, int64_t hi)
{
    for (int64_t i = lo; i < hi; ++i)
        for (int64_t j = 1; j < kHeatN - 1; ++j)
            dst[i * kHeatN + j] =
                0.2
                * (src[i * kHeatN + j] + src[(i - 1) * kHeatN + j]
                   + src[(i + 1) * kHeatN + j] + src[i * kHeatN + j - 1]
                   + src[i * kHeatN + j + 1]);
}

/** Serial elision of the heat job. Both grids start as the input, so
 * the boundary never needs copying. */
std::vector<double>
heatSerialJob(const std::vector<double> &init)
{
    std::vector<double> a = init;
    std::vector<double> b = init;
    double *src = a.data();
    double *dst = b.data();
    for (int s = 0; s < kHeatSteps; ++s) {
        heatRows(src, dst, 1, kHeatN - 1);
        std::swap(src, dst);
    }
    return a;
}

template <bool kTrace>
double *
heatJob(const std::vector<double> &init, uint64_t op)
{
    const std::size_t bytes = init.size() * sizeof(double);
    double *a = nullptr;
    double *b = nullptr;
    {
        SpanIf<kTrace> s(Kind::Alloc, op);
        a = static_cast<double *>(numa::allocate(bytes));
    }
    {
        SpanIf<kTrace> s(Kind::Alloc, op);
        b = static_cast<double *>(numa::allocate(bytes));
    }
    std::memcpy(a, init.data(), bytes);
    std::memcpy(b, init.data(), bytes);
    double *src = a;
    double *dst = b;
    for (int s = 0; s < kHeatSteps; ++s) {
        parallelForRange(1, kHeatN - 1, kHeatGrainRows,
                         [src, dst](int64_t lo, int64_t hi) {
                             heatRows(src, dst, lo, hi);
                         });
        std::swap(src, dst);
    }
    {
        SpanIf<kTrace> s(Kind::Free, op);
        numa::deallocate(b);
    }
    return a; // the client checks and frees it
}

/** Serial elision of the sort job: quarters, then two merge levels. */
std::vector<int64_t>
sortSerialJob(const std::vector<int64_t> &keys)
{
    std::vector<int64_t> out = keys;
    std::vector<int64_t> tmp(out.size());
    int64_t *d = out.data();
    int64_t *t = tmp.data();
    const int64_t q = kSortN / 4;
    for (int i = 0; i < 4; ++i)
        std::sort(d + i * q, d + (i + 1) * q);
    std::merge(d, d + q, d + q, d + 2 * q, t);
    std::merge(d + 2 * q, d + 3 * q, d + 3 * q, d + kSortN, t + 2 * q);
    std::merge(t, t + 2 * q, t + 2 * q, t + kSortN, d);
    return out;
}

/** Sorts @p keys into @p out, which the client sized beforehand: the
 * result outlives the job, and memory a worker allocated for it would be
 * freed on the main thread, making peak RSS depend on which arena
 * each block came from. */
template <bool kTrace>
void
sortJob(const std::vector<int64_t> &keys, std::vector<int64_t> &out,
        uint64_t op)
{
    std::copy(keys.begin(), keys.end(), out.begin());
    std::vector<int64_t> tmp(out.size());
    int64_t *d = out.data();
    int64_t *t = tmp.data();
    const int64_t q = kSortN / 4;
    {
        TaskGroup tg;
        for (int i = 0; i < 3; ++i) {
            SpanIf<kTrace> s(Kind::Spawn, op);
            tg.spawn([d, q, i, op] {
                SpanIf<kTrace> task(Kind::Task, op);
                std::sort(d + i * q, d + (i + 1) * q);
            });
        }
        std::sort(d + 3 * q, d + kSortN);
        SpanIf<kTrace> s(Kind::Sync, op);
        tg.sync();
    }
    {
        TaskGroup tg;
        {
            SpanIf<kTrace> s(Kind::Spawn, op);
            tg.spawn([d, t, q, op] {
                SpanIf<kTrace> task(Kind::Task, op);
                std::merge(d, d + q, d + q, d + 2 * q, t);
            });
        }
        std::merge(d + 2 * q, d + 3 * q, d + 3 * q, d + kSortN, t + 2 * q);
        SpanIf<kTrace> s(Kind::Sync, op);
        tg.sync();
    }
    std::merge(t, t + 2 * q, t + 2 * q, t + kSortN, d);
}

bool
sortIsCorrect(const std::vector<int64_t> &v, const RoundInputs &in,
              std::size_t idx)
{
    return v.size() == static_cast<std::size_t>(kSortN)
           && sortedWithSum(v.data(), kSortN, in.sortSums[idx]);
}

/** One serial elision of @p kind, timed and checked. */
SerialSample
serialJob(JobKind kind, const RoundInputs &in, uint64_t op)
{
    const int64_t t0 = nowNs();
    bool ok = true;
    switch (kind) {
    case kFib: {
        Span s(Kind::Fib, op);
        ok = workloads::fibSerial(kFibJobN) == in.fibRef;
        break;
    }
    case kHeat: {
        Span s(Kind::Heat, op);
        ok = heatSerialJob(in.heatInit) == in.heatRef;
        break;
    }
    default: {
        Span s(Kind::Sort, op);
        const std::size_t idx = op % kSortInputs;
        ok = sortIsCorrect(sortSerialJob(in.sortKeys[idx]), in, idx);
        break;
    }
    }
    return {toMs(nowNs() - t0), ok};
}

/** One submitted job and what it produced. */
struct JobSlot
{
    JobKind kind = kFib;
    uint64_t op = 0;
    int64_t dueNs = 0;
    int64_t submitNs = 0;
    JobHandle handle;
    uint64_t fib = 0;
    double *heat = nullptr;
    std::vector<int64_t> sorted;
};

/** Fills in @p slot's kind and op; a sort slot's output is sized here,
 * on the main thread, before any timing starts. */
void
initSlot(JobSlot &slot, JobKind kind, uint64_t op)
{
    slot.kind = kind;
    slot.op = op;
    if (kind == kSort)
        slot.sorted.resize(static_cast<std::size_t>(kSortN));
}

JobOptions
jobOptions(JobKind kind)
{
    JobOptions o;
    o.cls = kind == kFib    ? JobClass::Latency
            : kind == kHeat ? JobClass::Normal
                            : JobClass::Batch;
    return o;
}

/** Submit @p slot's job; @p in and @p slot outlive it. */
template <bool kTrace>
void
submitJob(Runtime &rt, JobSlot &slot, const RoundInputs &in)
{
    Span s(Kind::Submit, slot.op, submitSpanned(rt));
    slot.handle = rt.submit(
        [&slot, &in] {
            SpanIf<kTrace> j(Kind::Job, slot.op);
            switch (slot.kind) {
            case kFib:
                slot.fib = fibTask<kTrace>(kFibJobN, slot.op);
                break;
            case kHeat:
                slot.heat = heatJob<kTrace>(in.heatInit, slot.op);
                break;
            default:
                sortJob<kTrace>(in.sortKeys[slot.op % kSortInputs],
                                slot.sorted, slot.op);
                break;
            }
        },
        jobOptions(slot.kind));
}

/** Check a finished job's output and release what it returned. */
void
checkJob(JobSlot &slot, const RoundInputs &in, Report &rep)
{
    bool ok = slot.handle.outcome() == JobOutcome::Done;
    switch (slot.kind) {
    case kFib:
        ok &= slot.fib == in.fibRef;
        break;
    case kHeat:
        ok &= slot.heat != nullptr
              && std::memcmp(slot.heat, in.heatRef.data(),
                             in.heatRef.size() * sizeof(double))
                     == 0;
        if (slot.heat != nullptr) {
            Span s(Kind::Free, slot.op);
            numa::deallocate(slot.heat);
            slot.heat = nullptr;
        }
        break;
    default:
        ok &= sortIsCorrect(slot.sorted, in, slot.op % kSortInputs);
        break;
    }
    rep.check(ok, std::string("serve-open: ") + kKindNames[slot.kind]
                      + " job is Done with the serial result");
}

RoundInputs
makeInputs(uint64_t seed)
{
    Rng rng(seed);
    RoundInputs in;
    in.fibRef = workloads::fibSerial(kFibJobN);
    in.heatInit.resize(static_cast<std::size_t>(kHeatN * kHeatN));
    for (double &v : in.heatInit)
        v = rng.nextDouble();
    in.heatRef = heatSerialJob(in.heatInit);
    for (int i = 0; i < kSortInputs; ++i) {
        std::vector<int64_t> keys(static_cast<std::size_t>(kSortN));
        KeySum sum;
        for (int64_t &k : keys) {
            k = static_cast<int64_t>(rng.next() >> 1);
            sum.add(k);
        }
        in.sortKeys.push_back(std::move(keys));
        in.sortSums.push_back(sum);
    }
    return in;
}

/** Poisson arrival offsets (ns from segment start) at @p rate jobs/s. */
std::vector<int64_t>
arrivals(double rate, int jobs, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int64_t> out(static_cast<std::size_t>(jobs));
    double t = 0.0;
    for (int64_t &a : out) {
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        a = static_cast<int64_t>(t * 1e9);
    }
    return out;
}

/** Sleep toward @p due, then spin the last 100 us: a sleeping thread
 * wakes tens of microseconds late, a spinning one takes a CPU the
 * runtime may need (under a CPU quota, from all of it). */
void
paceUntil(int64_t due)
{
    for (;;) {
        const int64_t left = due - nowNs();
        if (left <= 0)
            return;
        if (left > 150000)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(left - 100000));
    }
}

/** What one open-loop segment measured. */
struct Segment
{
    std::vector<JobKind> kinds;
    std::vector<double> latencyMs;
    std::vector<double> queueUs;
    std::vector<double> execUs;
    std::vector<double> lateUs;
    double workerCpuMsPerJob = 0.0;
};

/** Each job's latency over its kind's TSref in @p ts_ref, in arrival
 * order. */
std::vector<double>
slowdowns(const Segment &seg, const double *ts_ref)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < seg.latencyMs.size(); ++i)
        out.push_back(ratio(seg.latencyMs[i], ts_ref[seg.kinds[i]]));
    return out;
}

/** Whether a capacity probe met its rung (see kCapacityRungs); the
 * slowdowns are in arrival order. */
bool
meetsRung(const std::vector<double> &slowdown)
{
    const auto quarter = static_cast<std::ptrdiff_t>(slowdown.size() / 4);
    const double first = median(std::vector<double>(
        slowdown.begin(), slowdown.begin() + quarter));
    const double last = median(
        std::vector<double>(slowdown.end() - quarter, slowdown.end()));
    return quantile(slowdown, tailQuantileFor(slowdown.size()))
               <= kSlowdownLimit
           && last <= kBacklogGrowth * first;
}

class ServeRounds
{
  public:
    ServeRounds(const RunConfig &cfg, Report &rep)
        : _cfg(cfg), _rep(rep), _servers(std::max(1, cfg.workers() - 1))
    {
    }

    void
    run()
    {
        // Timer slack would otherwise add ~50 us to every sleep.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        const Deadline deadline(_cfg.seconds);
        const uint64_t min_rounds = _cfg.trace ? 2 : 1;
        for (uint64_t round = 0; round < min_rounds || !deadline.passed();
             ++round) {
            const bool traced = _cfg.trace && round % 2 == 1;
            trace::setActive(traced);
            if (traced)
                runRound<true>(round);
            else
                runRound<false>(round);
        }
        trace::setActive(false);
    }

    void
    report() const
    {
        // Percentiles are taken per segment, then the median over
        // segments: a segment the host stalled moves the result by one
        // rank, where pooled over all segments its jobs shifted every
        // percentile.
        _rep.set("setup_s", median(_setupS), "s", _setupS.size());
        _rep.set("speedup", ratio(1.0, segmentQuantile(_midSlowdown, 0.5)),
                 "x", _midSlowdown.size(),
                 "TSref / mid-rate latency, p50 per segment, median over "
                 "segments");
        _rep.set("tail_slowdown", segmentQuantile(_midSlowdown, kTailQ), "x",
                 _midSlowdown.size(),
                 "mid-rate latency / TSref, p90 per segment, median over "
                 "segments");
        _rep.set("work_ratio", median(_workRatio), "x", _workRatio.size(),
                 "geomean over kinds of T1/TS on one CPU, median over "
                 "rounds");
        const double q99 = tailQuantileFor(kMidJobs);
        _rep.set("lat_p50_ms", pooledQuantile(_midLatMs, 0.5), "ms",
                 _midLatMs.size(), "mid rate, p50 over all jobs");
        _rep.set("lat_tail_ms", segmentQuantile(_midLatMs, q99), "ms",
                 _midLatMs.size(),
                 "mid rate " + quantileName(q99) + ", median over segments");
        const double low_q = tailQuantileFor(kLowJobs);
        _rep.set("idle_lat_tail_ms", segmentQuantile(_lowLatMs, low_q), "ms",
                 _lowLatMs.size(),
                 "low rate " + quantileName(low_q)
                     + ", median over segments");
        _rep.set("idle_speedup", ratio(1.0, pooledQuantile(_lowSlowdown, 0.5)),
                 "x", _lowSlowdown.size(),
                 "TSref / low-rate latency, p50 over all jobs");
        _rep.set("idle_tail_slowdown", pooledQuantile(_lowSlowdown, kTailQ),
                 "x", _lowSlowdown.size(),
                 "low-rate latency / TSref, p90 over all jobs");
        _rep.set("goodput_frac",
                 ratio(static_cast<double>(_midWithin),
                       static_cast<double>(_midAttempted)),
                 "frac", _midAttempted,
                 "mid-rate jobs Done within "
                     + std::to_string(static_cast<int>(kSlowdownLimit))
                     + "x their TSref");
        _rep.set("rate_low", kRateLowPerServer * _servers, "1/s", 1);
        _rep.set("rate_mid", kRateMidPerServer * _servers, "1/s", 1);
        if (!_cfg.trace)
            return;
        _rep.set("job.capacity_per_s", median(_capacity), "1/s",
                 _capacity.size(),
                 "highest probed rate with p99 within "
                     + std::to_string(static_cast<int>(kSlowdownLimit))
                     + "x TSref and no growing backlog, median over "
                       "untraced rounds");
        double mean_ts = 0.0;
        double mean_t1 = 0.0;
        for (int k = 0; k < kNumKinds; ++k) {
            mean_ts += median(_tsMs[k]) / kNumKinds;
            mean_t1 += median(_t1Ms[k]) / kNumKinds;
        }
        _tallyW.report(_rep);
        _rep.set("runtime.cpu_ms_per_op", median(_cpuMsPerJob), "ms",
                 _cpuMsPerJob.size(), "worker CPU per mid-rate job");
        _rep.set("mem.pooled_bytes_frac",
                 ratio(static_cast<double>(_tallyW.counters.dataBytesPooled),
                       static_cast<double>(_heatBytesRequested)),
                 "frac", _tallyW.ops, "pooled / requested data bytes");
        _rep.set("runtime.overhead_ns_per_spawn",
                 ratio((mean_t1 - mean_ts) * 1e6,
                       ratio(static_cast<double>(_tally1.counters.spawns),
                             static_cast<double>(_tally1.ops))),
                 "ns", _tally1.ops, "(T1 - TS) / spawns, mean job");
        _rep.set("runtime.work_inflation",
                 ratio(_tallyW.workNsPerOp(), _tally1.workNsPerOp()), "x",
                 _tallyW.ops, "W per job served / W per job on T1");
        _rep.set("runtime.start_us", segmentQuantile(_lowQueueUs, 0.5),
                 "us", _lowQueueUs.size(), "low-rate root queue delay");
        _rep.set("job.queue_p50_us", segmentQuantile(_midQueueUs, 0.5),
                 "us", _midQueueUs.size(), "mid rate");
        _rep.set("job.queue_p99_us", segmentQuantile(_midQueueUs, q99),
                 "us", _midQueueUs.size(), "mid rate " + quantileName(q99));
        _rep.set("job.exec_p50_us", segmentQuantile(_midExecUs, 0.5), "us",
                 _midExecUs.size(), "mid rate");
        _rep.set("job.exec_p99_us", segmentQuantile(_midExecUs, q99), "us",
                 _midExecUs.size(), "mid rate " + quantileName(q99));
        _rep.set("gen.late_p99_us", segmentQuantile(_midLateUs, q99), "us",
                 _midLateUs.size(),
                 "generator lateness, mid rate " + quantileName(q99));
        _rep.set("workloads.fib_ts_ms", median(_tsMs[kFib]), "ms",
                 _tsMs[kFib].size());
        _rep.set("workloads.heat_ts_ms", median(_tsMs[kHeat]), "ms",
                 _tsMs[kHeat].size());
        _rep.set("workloads.sort_ts_ms", median(_tsMs[kSort]), "ms",
                 _tsMs[kSort].size());
        _rep.set("trace.overhead_frac",
                 ratio(pooledQuantile(_tracedMidSlowdown, 0.5),
                       pooledQuantile(_midSlowdown, 0.5))
                     - 1.0,
                 "frac", _tracedMidSlowdown.size(),
                 "traced / untraced mid-rate median slowdown - 1");
    }

  private:
    template <bool kTrace>
    void
    runRound(uint64_t round)
    {
        const uint64_t round_seed = _cfg.seed * 0x9e3779b97f4a7c15ULL + round;
        const RoundInputs in = makeInputs(round_seed);
        int64_t setup_ns = 0;
        double ts[kNumKinds];
        double t1[kNumKinds];
        {
            const CpuPin pin(_cfg.cpus[round % _cfg.cpus.size()]);
            serialBlock(in, ts);
            setup_ns += t1Block<kTrace>(in, round_seed, t1);
        }
        std::vector<std::vector<int64_t>> schedule;
        schedule.push_back(arrivals(kRateLowPerServer * _servers, kLowJobs,
                                    round_seed + 1));
        for (int s = 0; s < kMidSegmentsPerRound; ++s)
            schedule.push_back(arrivals(kRateMidPerServer * _servers,
                                        kMidJobs, round_seed + 2 + s));
        if (!kTrace) {
            std::vector<double> work_ratio;
            for (int k = 0; k < kNumKinds; ++k)
                work_ratio.push_back(ratio(t1[k], ts[k]));
            _workRatio.push_back(geomean(work_ratio));
        }

        const int64_t t0 = nowNs();
        std::unique_ptr<Runtime> rt;
        {
            Span s(Kind::RuntimeConstruct, 0);
            rt = std::make_unique<Runtime>(
                runtimeOptions(_servers, round_seed));
        }
        _setupS.push_back(static_cast<double>(setup_ns + nowNs() - t0)
                          / 1e9);
        // Warm the pools before anything is timed.
        for (int i = 0; i < 3 * kNumKinds; ++i) {
            JobSlot slot;
            initSlot(slot, static_cast<JobKind>(i % kNumKinds), _op++);
            submitJob<kTrace>(*rt, slot, in);
            slot.handle.wait();
            checkJob(slot, in, _rep);
        }
        // TSref is measured before the first segment and after each one,
        // and a segment's jobs are compared with the mean of the two
        // around it: a TSref taken once per round missed how fast the
        // host was during each segment.
        double before[kNumKinds];
        tsRef(in, before);
        for (std::size_t s = 0; s < schedule.size(); ++s) {
            const bool mid = s > 0;
            // Counters cover the untraced mid-rate segments only.
            const Segment seg =
                segment<kTrace>(*rt, in, schedule[s], !kTrace && mid);
            double after[kNumKinds];
            double around[kNumKinds];
            tsRef(in, after);
            for (int k = 0; k < kNumKinds; ++k) {
                around[k] = 0.5 * (before[k] + after[k]);
                before[k] = after[k];
            }
            const std::vector<double> slowdown = slowdowns(seg, around);
            if (kTrace) {
                if (mid)
                    _tracedMidSlowdown.push_back(slowdown);
                continue;
            }
            if (!mid) {
                _lowSlowdown.push_back(slowdown);
                _lowLatMs.push_back(seg.latencyMs);
                _lowQueueUs.push_back(seg.queueUs);
                continue;
            }
            _midSlowdown.push_back(slowdown);
            _midLatMs.push_back(seg.latencyMs);
            _midQueueUs.push_back(seg.queueUs);
            _midExecUs.push_back(seg.execUs);
            _midLateUs.push_back(seg.lateUs);
            _cpuMsPerJob.push_back(seg.workerCpuMsPerJob);
            for (const double x : slowdown)
                _midWithin += x <= kSlowdownLimit ? 1 : 0;
            _midAttempted += slowdown.size();
        }
        // The capacity is a per-layer metric: an untraced run spends the
        // probes' time on more mid-rate segments instead.
        if (!kTrace && _cfg.trace)
            _capacity.push_back(probeCapacity(*rt, in, before, round_seed));
    }

    /** TSref: for each kind, P serial elisions at once (see
     * concurrentSerialMs); writes each kind's value to @p ts_ref. */
    void
    tsRef(const RoundInputs &in, double *ts_ref)
    {
        for (int k = 0; k < kNumKinds; ++k) {
            Span block(Kind::Block, static_cast<uint64_t>(k));
            const uint64_t op = _op;
            _op += _cfg.cpus.size();
            ts_ref[k] = concurrentSerialMs(
                _cfg.cpus, kSerialSamples,
                [&in, k, op](int slot) {
                    return serialJob(static_cast<JobKind>(k), in,
                                     op + static_cast<uint64_t>(slot));
                },
                _rep, "serve-open: concurrent serial job is correct");
        }
    }

    /** Rate of capacity rung @p i, jobs/s over all serving workers. */
    double
    rungRate(int i) const
    {
        return kRateMidPerServer * (1.0 + 0.5 * i) * _servers;
    }

    /** The highest rung rate a probe segment meets, by bisection over
     * the rungs; rung 0 is the mid rate, which the round already ran. */
    double
    probeCapacity(Runtime &rt, const RoundInputs &in, const double *ts_ref,
                  uint64_t round_seed)
    {
        int met = 0;
        int failed = kCapacityRungs;
        while (failed - met > 1) {
            const int rung = (met + failed) / 2;
            const Segment seg = segment<false>(
                rt, in,
                arrivals(rungRate(rung), kProbeJobs,
                         round_seed + 2 + kMidSegmentsPerRound + rung),
                false);
            (meetsRung(slowdowns(seg, ts_ref)) ? met : failed) = rung;
        }
        return rungRate(met);
    }

    /** TS alone: every kind's serial elision, no runtime alive; writes
     * each kind's median to @p ts_ms. */
    void
    serialBlock(const RoundInputs &in, double *ts_ms)
    {
        Span block(Kind::Block, 0);
        std::vector<double> ms[kNumKinds];
        for (int i = 0; i <= kSerialSamples; ++i) {
            for (int k = 0; k < kNumKinds; ++k) {
                const SerialSample s =
                    serialJob(static_cast<JobKind>(k), in, _op++);
                _rep.check(s.ok, std::string("serve-open: serial ")
                                     + kKindNames[k] + " is correct");
                if (i > 0) // warm-up
                    ms[k].push_back(s.ms);
            }
        }
        for (int k = 0; k < kNumKinds; ++k) {
            ts_ms[k] = median(ms[k]);
            _tsMs[k].insert(_tsMs[k].end(), ms[k].begin(), ms[k].end());
        }
    }

    /** T1: each kind closed-loop on a fresh 1-worker runtime; writes
     * each kind's median to @p t1_ms and returns the runtime's
     * construction ns. */
    template <bool kTrace>
    int64_t
    t1Block(const RoundInputs &in, uint64_t seed, double *t1_ms)
    {
        Span block(Kind::Block, 1);
        const int64_t t0 = nowNs();
        std::unique_ptr<Runtime> rt;
        {
            Span s(Kind::RuntimeConstruct, 0);
            rt = std::make_unique<Runtime>(runtimeOptions(1, seed));
        }
        const int64_t setup_ns = nowNs() - t0;
        std::vector<double> ms[kNumKinds];
        for (int i = 0; i <= kSerialSamples; ++i) {
            if (i == 1)
                rt->resetStats();
            for (int k = 0; k < kNumKinds; ++k) {
                JobSlot slot;
                initSlot(slot, static_cast<JobKind>(k), _op++);
                const int64_t s0 = nowNs();
                submitJob<kTrace>(*rt, slot, in);
                {
                    Span s(Kind::Wait, slot.op);
                    slot.handle.wait();
                }
                const int64_t s1 = nowNs();
                checkJob(slot, in, _rep);
                if (i > 0)
                    ms[k].push_back(toMs(s1 - s0));
            }
        }
        for (int k = 0; k < kNumKinds; ++k) {
            t1_ms[k] = median(ms[k]);
            if (!kTrace)
                _t1Ms[k].insert(_t1Ms[k].end(), ms[k].begin(), ms[k].end());
        }
        if (!kTrace)
            _tally1.add(rt->stats(), kSerialSamples * kNumKinds, 1, 0);
        return setup_ns;
    }

    /** One open-loop segment over @p offsets on @p rt. With @p tally its
     * counters and requested heat bytes count toward the per-layer
     * metrics. */
    template <bool kTrace>
    Segment
    segment(Runtime &rt, const RoundInputs &in,
            const std::vector<int64_t> &offsets, bool tally)
    {
        Span block(Kind::Block, _op);
        std::vector<JobSlot> slots(offsets.size());
        for (std::size_t i = 0; i < slots.size(); ++i)
            initSlot(slots[i], static_cast<JobKind>(i % kNumKinds), _op++);
        rt.resetStats();
        const int64_t cpu0 = processCpuNs();
        const int64_t main_cpu0 = threadCpuNs();
        const int64_t start = nowNs() + 1000000;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            JobSlot &slot = slots[i];
            slot.dueNs = start + offsets[i];
            paceUntil(slot.dueNs);
            slot.submitNs = nowNs();
            submitJob<kTrace>(rt, slot, in);
        }
        for (JobSlot &slot : slots) {
            Span s(Kind::Wait, slot.op);
            slot.handle.wait();
        }
        const int64_t wall = nowNs() - start;
        Segment seg;
        seg.workerCpuMsPerJob =
            toMs((processCpuNs() - cpu0) - (threadCpuNs() - main_cpu0))
            / static_cast<double>(slots.size());
        RuntimeStats stats = rt.stats();
        for (JobSlot &slot : slots) {
            checkJob(slot, in, _rep);
            // Done instant: the runtime stamps submit and finish on the
            // same clock, and submit follows our submitNs by nanoseconds.
            const int64_t done = slot.submitNs + slot.handle.latencyNs();
            const double ms = toMs(done - slot.dueNs);
            seg.kinds.push_back(slot.kind);
            seg.latencyMs.push_back(ms);
            seg.queueUs.push_back(
                static_cast<double>(slot.handle.queueNs()) / 1e3);
            seg.execUs.push_back(
                static_cast<double>(slot.handle.execNs()) / 1e3);
            seg.lateUs.push_back(
                static_cast<double>(slot.submitNs - slot.dueNs) / 1e3);
            if (tally && slot.kind == kHeat)
                _heatBytesRequested +=
                    2 * in.heatInit.size() * sizeof(double);
        }
        if (tally) {
            // checkJob freed the heat results on this thread, after the
            // snapshot: count those remote frees too.
            stats.counters.dataRemoteFrees =
                rt.stats().counters.dataRemoteFrees;
            _tallyW.add(stats, slots.size(), _servers, wall);
        }
        return seg;
    }

    const RunConfig &_cfg;
    Report &_rep;
    const int _servers;
    uint64_t _op = 0;
    /** TS and T1 samples per kind, untraced rounds for T1. */
    std::vector<double> _tsMs[kNumKinds], _t1Ms[kNumKinds];
    /** Untraced rounds: per-round T1/TS geomean over kinds. */
    std::vector<double> _workRatio;
    std::vector<std::vector<double>> _lowSlowdown, _lowLatMs, _lowQueueUs;
    std::vector<std::vector<double>> _midSlowdown, _midLatMs, _midQueueUs,
        _midExecUs, _midLateUs, _tracedMidSlowdown;
    std::vector<double> _setupS, _cpuMsPerJob;
    /** Untraced rounds: the highest rung rate met, jobs/s. */
    std::vector<double> _capacity;
    uint64_t _midWithin = 0;
    uint64_t _midAttempted = 0;
    uint64_t _heatBytesRequested = 0;
    RuntimeTally _tally1, _tallyW;
};

} // namespace

void
runServeOpen(const RunConfig &cfg, Report &rep)
{
    ServeRounds rounds(cfg, rep);
    rounds.run();
    rounds.report();
}

} // namespace numaws::bench
