/**
 * @file
 * Shared open-loop serving machinery for the serving benches
 * (ablation_serving, ablation_overload, ablation_preempt,
 * ablation_interference).
 *
 * Each bench keeps its own job shapes, scenarios, warm-up counts, seeds,
 * rows and gates; this header holds what they all drive those through:
 *  - threaded: the serving RuntimeOptions, the mean-job / burst-capacity
 *    calibration probe, seeded Poisson arrival offsets, and the
 *    open-loop pacing driver with its Done-job samples;
 *  - simulated: the merged multi-root job mix, its Poisson SimJob
 *    builder, the serving SimConfig, a class-filtered p99 over one run,
 *    and the byte-determinism gate.
 */
#ifndef NUMAWS_BENCH_SERVING_HARNESS_H
#define NUMAWS_BENCH_SERVING_HARNESS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sim/serving.h"

namespace numaws::bench {

/** The serving benches' flags on top of BenchArgs. */
struct ServingArgs : BenchArgs
{
    std::string json;   ///< --json report path
    uint64_t firstSeed; ///< --seed
    int seeds;          ///< --seeds: simulated seeds per scenario
    int reps;           ///< --reps: threaded repetitions per scenario
    bool skipThreaded;  ///< --skip-threaded

    ServingArgs(const Cli &cli, const char *json_default, int reps_default)
        : BenchArgs(cli),
          json(cli.getString("json", json_default)),
          firstSeed(static_cast<uint64_t>(cli.getInt("seed", 0x5eed))),
          seeds(std::max(1, static_cast<int>(cli.getInt("seeds", 3)))),
          reps(std::max(1, static_cast<int>(
                               cli.getInt("reps", reps_default)))),
          skipThreaded(cli.getBool("skip-threaded", false))
    {}
};

/** Write @p report to the --json path; exit status 1 unless @p ok. */
inline int
finishReport(const JsonReport &report, const ServingArgs &args, bool ok,
             const char *bench)
{
    report.writeFile(args.json);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(),
                args.json.c_str());
    if (ok)
        return 0;
    std::printf("FAIL: %s acceptance gate violated\n", bench);
    return 1;
}

// ---------------------------------------------------------------------
// Threaded engine
// ---------------------------------------------------------------------

/** Serving runtime on @p workers workers over up to two places. @p spin
 * disables idle parking (a parked worker charges its wake latency to
 * the next job, noise a latency comparison must not carry). */
inline RuntimeOptions
servingRuntimeOptions(int workers, bool spin)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.numPlaces = workers >= 2 ? 2 : 1;
    if (spin)
        o.sched.parkSpinFailures = 1 << 30;
    return o;
}

/** Seed of threaded repetition @p rep. */
inline uint64_t
repSeed(uint64_t first_seed, int rep)
{
    return first_seed + 104729ULL * static_cast<uint64_t>(rep);
}

/** @p count Poisson arrival offsets in nanoseconds at @p rate_per_s. */
inline std::vector<double>
poissonArrivalsNs(double rate_per_s, int count, uint64_t seed)
{
    sim::ArrivalProcess p;
    p.ratePerSec = rate_per_s;
    p.seed = seed;
    // ghz=1.0 makes arrivalCycles return nanoseconds.
    return sim::arrivalCycles(p, count, 1.0);
}

/** This host's service rate for one job stream, measured on a fresh
 * runtime (destroyed before any measured runtime starts). */
struct Calibration
{
    double meanJobS = 0.0;     ///< one job at a time, submit -> done
    double capacityPerS = 0.0; ///< closed-loop burst throughput
};

/**
 * Calibrate on a runtime built from @p o: @p probe_jobs submit-and-wait
 * jobs (indices probe_first..) time the serial per-job mean, then a
 * closed-loop burst of @p burst_jobs jobs (indices 0..) times the
 * sustainable jobs/s — deriving capacity as workers / mean would
 * overstate it on hosts with fewer cores than workers. Either count
 * may be 0 to skip that half. @p submit is JobHandle(Runtime &, int i).
 */
template <typename Submit>
Calibration
calibrate(const RuntimeOptions &o, int probe_first, int probe_jobs,
          int burst_jobs, Submit &&submit)
{
    Runtime rt(o);
    Calibration c;
    const int64_t t0 = nowNs();
    for (int i = probe_first; i < probe_first + probe_jobs; ++i)
        submit(rt, i).wait();
    if (probe_jobs > 0)
        c.meanJobS =
            static_cast<double>(nowNs() - t0) * 1e-9 / probe_jobs;
    if (burst_jobs > 0) {
        std::vector<JobHandle> hs;
        hs.reserve(static_cast<std::size_t>(burst_jobs));
        const int64_t b0 = nowNs();
        for (int i = 0; i < burst_jobs; ++i)
            hs.push_back(submit(rt, i));
        for (JobHandle &h : hs)
            h.wait();
        c.capacityPerS =
            burst_jobs / (static_cast<double>(nowNs() - b0) * 1e-9);
    }
    return c;
}

/** Warm-up before a measured open-loop stream. */
struct Warmup
{
    int first = 0;  ///< index of the first warm-up job
    int count = 12; ///< submit-and-wait jobs
    /** Extra wait after the jobs, before stats reset (lets a sensor
     * register a condition the warm-up ran under). */
    std::chrono::milliseconds settle{0};
};

/** A finished open-loop stream: every handle resolved. */
struct OpenLoop
{
    double elapsed_s = 0.0;         ///< pacing start -> last job done
    std::vector<JobHandle> handles; ///< submission order

    double
    arrivalPerSec() const
    {
        return static_cast<double>(handles.size()) / elapsed_s;
    }

    uint64_t
    count(JobOutcome o) const
    {
        uint64_t n = 0;
        for (const JobHandle &h : handles)
            n += h.outcome() == o ? 1 : 0;
        return n;
    }

    /** Done jobs' submit -> finish latencies (us), for job indices
     * @p keep accepts. Shed jobs resolve instantly with no latency to
     * speak of; counting their ~0 would flatter any shedding run. */
    template <typename Keep>
    std::vector<double>
    latenciesUs(Keep &&keep) const
    {
        std::vector<double> v;
        for (std::size_t i = 0; i < handles.size(); ++i)
            if (handles[i].outcome() == JobOutcome::Done && keep(i))
                v.push_back(
                    static_cast<double>(handles[i].latencyNs()) / 1000.0);
        return v;
    }

    std::vector<double>
    latenciesUs() const
    {
        return latenciesUs([](std::size_t) { return true; });
    }

    /** Done jobs' submit -> claim queue delays (us). */
    std::vector<double>
    queueDelaysUs() const
    {
        std::vector<double> v;
        for (const JobHandle &h : handles)
            if (h.outcome() == JobOutcome::Done)
                v.push_back(static_cast<double>(h.queueNs()) / 1000.0);
        return v;
    }
};

/**
 * Drive @p rt open-loop: run the @p warm jobs and reset stats, then
 * submit job i at offset @p arrival_ns[i] from the run start and join
 * them all. The driver sleeps toward each arrival and spin-finishes the
 * last ~200us so submission timing is not at the mercy of timer slack.
 * @p submit is JobHandle(int i, bool warm).
 */
template <typename Submit>
OpenLoop
runOpenLoop(Runtime &rt, const Warmup &warm,
            const std::vector<double> &arrival_ns, Submit &&submit)
{
    for (int i = warm.first; i < warm.first + warm.count; ++i)
        submit(i, true).wait();
    if (warm.settle.count() > 0)
        std::this_thread::sleep_for(warm.settle);
    rt.resetStats();

    OpenLoop r;
    r.handles.reserve(arrival_ns.size());
    const int64_t t0 = nowNs();
    for (std::size_t i = 0; i < arrival_ns.size(); ++i) {
        const int64_t target = t0 + static_cast<int64_t>(arrival_ns[i]);
        while (nowNs() < target) {
            if (target - nowNs() > 200000)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
        }
        r.handles.push_back(submit(static_cast<int>(i), false));
    }
    for (JobHandle &h : r.handles)
        h.wait();
    r.elapsed_s = static_cast<double>(nowNs() - t0) * 1e-9;
    return r;
}

// ---------------------------------------------------------------------
// Simulated engine
// ---------------------------------------------------------------------

/** Seed of simulated seed index @p s. */
inline uint64_t
simSeed(uint64_t first_seed, int s)
{
    return first_seed + 7919ULL * static_cast<uint64_t>(s);
}

/** Every job's tree merged into one dag, one root per job. */
struct SimMix
{
    sim::ComputationDag dag;
    std::vector<sim::FrameId> roots;
    std::vector<int> classes;
    std::vector<uint8_t> deadlined; ///< per-job deadline marks
    double meanJobCycles = 0.0;     ///< nominal work per job
};

/** What job i of a mix runs: its tree, class and deadline mark. */
struct MixSlot
{
    const sim::ComputationDag *dag;
    int cls;
    bool deadlined = false;
};

/** Build a @p jobs-job mix; @p pick maps job index -> MixSlot. */
template <typename Pick>
SimMix
buildSimMix(int jobs, Pick &&pick)
{
    SimMix mix;
    double total_work = 0.0;
    for (int i = 0; i < jobs; ++i) {
        const MixSlot s = pick(i);
        mix.roots.push_back(mix.dag.append(*s.dag));
        mix.classes.push_back(s.cls);
        mix.deadlined.push_back(s.deadlined ? 1 : 0);
        total_work += s.dag->workSpan().work;
    }
    mix.meanJobCycles = total_work / jobs;
    return mix;
}

/** The mix's jobs at seeded arrivals targeting @p util of @p cores
 * simulated cores; @p rate_out receives the arrival rate. */
inline std::vector<sim::SimJob>
makeSimJobs(const SimMix &mix, double util, int cores, double ghz,
            uint64_t seed, double *rate_out,
            sim::ArrivalProcess::Kind kind =
                sim::ArrivalProcess::Kind::Poisson)
{
    sim::ArrivalProcess p;
    p.kind = kind;
    p.ratePerSec = util * cores * ghz * 1e9 / mix.meanJobCycles;
    p.seed = seed;
    *rate_out = p.ratePerSec;
    const std::vector<double> at = sim::arrivalCycles(
        p, static_cast<int>(mix.roots.size()), ghz);
    std::vector<sim::SimJob> jobs(mix.roots.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].root = mix.roots[i];
        jobs[i].arrivalCycles = at[i];
        jobs[i].cls = mix.classes[i];
    }
    return jobs;
}

/** The serving benches' simulated engine: the shipped default
 * (SimConfig{}), quick parking (when @p parking models it), seeded. */
inline sim::SimConfig
servingSimConfig(bool parking, uint64_t seed)
{
    sim::SimConfig c;
    c.modelParking = parking;
    c.sched.parkSpinFailures = 4;
    c.seed = seed;
    return c;
}

/** One simulated serving run with the classes its jobs carried. */
struct SimServingRun
{
    sim::ServingResult r;
    std::vector<int> classes; ///< input class of r.jobs[i]
    double ratePerSec = 0.0;
    double ghz = 1.0;

    /** p99 latency (us) over class @p cls's Done jobs. */
    double
    classP99Us(int cls) const
    {
        std::vector<double> lat;
        for (std::size_t i = 0; i < r.jobs.size(); ++i)
            if (classes[i] == cls && r.jobs[i].outcome == JobOutcome::Done)
                lat.push_back(r.jobs[i].latencyCycles() / ghz / 1000.0);
        return exactQuantile(std::move(lat), 0.99);
    }

    uint64_t
    classOutcome(int cls, JobOutcome o) const
    {
        uint64_t n = 0;
        for (std::size_t i = 0; i < r.jobs.size(); ++i)
            if (classes[i] == cls && r.jobs[i].outcome == o)
                ++n;
        return n;
    }
};

/** Gate: two renderings of a row are the same bytes. */
inline bool
gateIdentical(const char *what, const std::string &a, const std::string &b)
{
    const bool same = a == b;
    std::printf("  gate %-52s %s\n", what, same ? "ok" : "FAIL");
    return same;
}

/**
 * Determinism gate: @p render (one seeded sim run, rendered as its row
 * before provenance stamping) must give byte-identical rows twice. The
 * first row is stored in @p first when non-null.
 */
template <typename Render>
bool
gateReplaysIdentically(const char *what, Render &&render,
                       JsonRow *first = nullptr)
{
    const JsonRow a = render();
    const bool same = gateIdentical(what, a.str(), render().str());
    if (first != nullptr)
        *first = a;
    return same;
}

} // namespace numaws::bench

#endif // NUMAWS_BENCH_SERVING_HARNESS_H
