/**
 * @file
 * Open-loop serving rows: the PR 6 submission front door under Poisson
 * and bursty arrivals, in both engines.
 *
 * Jobs are small independent fib/matmul/heat computations submitted at
 * seeded arrival instants; per-job latency (submit -> finish) is the
 * metric, reported as exact sorted percentiles. Two rate classes per
 * mix: "low" (a few percent utilization — the elastic pool's parking
 * regime) and "high" (~60% utilization — the latency-under-load
 * regime). Each class runs elastic (workers park when the board and
 * JobQueue are both dry) and spin (parking disabled) so the elastic
 * trade is priced: parked wall time bought at low rate, tail latency
 * paid at high rate.
 *
 *   ./ablation_serving [--scale=0.25] [--cores=32] [--seeds=3]
 *                      [--seed=first] [--threads=2] [--reps=3]
 *                      [--skip-threaded] [--json=BENCH_serving.json]
 *
 * Exits nonzero unless (full runs only):
 *  1. sim, mixed/low: the elastic pool parks >= 80% of worker-idle
 *     time (parked cycles / idle cycles),
 *  2. sim, mixed/high: elastic p99 <= 1.10x the spin baseline,
 *  3. sim serving rows are byte-identical across repeated runs of the
 *     same seed (determinism of the arrival + admission machinery),
 *  4. threaded, mixed/low: the elastic pool parks >= 80% of the
 *     workers' wall time (utilization is ~2%, so wall ~= idle),
 *  5. threaded, mixed/high: elastic p99 <= 1.10x spin (median of
 *     --reps repetitions, so one noisy rep cannot flip the verdict).
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sim/serving.h"

using namespace numaws;
using namespace numaws::bench;
using namespace numaws::workloads;

namespace {

// ---------------------------------------------------------------------
// Threaded job bodies: small intra-job fork-join computations. The
// library helpers (fibParallel etc.) wrap rt.run() and so cannot be
// called from inside a job; these express the same shapes through the
// public TaskGroup / parallelForRange layer, sized to tens of
// microseconds so open-loop runs finish quickly at bench scale.
// ---------------------------------------------------------------------

uint64_t
fibJob(int n, int cutoff)
{
    if (n < cutoff)
        return fibSerial(n);
    uint64_t a = 0;
    TaskGroup tg;
    tg.spawn([&a, n, cutoff] { a = fibJob(n - 1, cutoff); });
    const uint64_t b = fibJob(n - 2, cutoff);
    tg.sync();
    return a + b;
}

std::atomic<double> g_sink{0.0}; ///< keeps job results observable

/** Submit job @p i of @p mix ("fib" or "mixed") with its class/hint. */
JobHandle
submitJob(Runtime &rt, const std::string &mix, int i)
{
    const int kind = mix == "fib" ? 0 : i % 3;
    JobOptions opts;
    switch (kind) {
      case 0:
        opts.cls = JobClass::Latency;
        return rt.submit([] {
            g_sink.store(static_cast<double>(fibJob(20, 14)),
                         std::memory_order_relaxed);
        }, opts);
      case 1:
        opts.cls = JobClass::Normal;
        opts.place = static_cast<Place>(i % rt.numPlaces());
        return rt.submit([] {
            g_sink.store(heatJob(64, 64, 2), std::memory_order_relaxed);
        }, opts);
      default:
        opts.cls = JobClass::Batch;
        return rt.submit([] {
            g_sink.store(matmulJob(48), std::memory_order_relaxed);
        }, opts);
    }
}

struct OpenLoopResult
{
    double elapsed_s = 0.0;
    double arrival_per_s = 0.0;
    std::vector<double> latencies_us; ///< Done jobs only
    uint64_t done = 0, shed = 0;      ///< shed = Rejected outcomes
    double parked_frac = 0.0; ///< parkedNs / (wall * workers)
    RuntimeStats stats;
};

/**
 * Drive @p rt open-loop: submit one job per entry of @p arrival_ns
 * (offsets from the run start), then join them all. The driver sleeps
 * toward each arrival and spin-finishes the last ~200us so submission
 * timing is not at the mercy of timer-slack.
 */
OpenLoopResult
runOpenLoop(Runtime &rt, const std::string &mix,
            const std::vector<double> &arrival_ns)
{
    // Warm the pools/histograms, then measure from a clean slate.
    for (int i = 0; i < 12; ++i)
        submitJob(rt, mix, i).wait();
    rt.resetStats();

    std::vector<JobHandle> handles;
    handles.reserve(arrival_ns.size());
    const int64_t t0 = nowNs();
    for (std::size_t i = 0; i < arrival_ns.size(); ++i) {
        const int64_t target = t0 + static_cast<int64_t>(arrival_ns[i]);
        while (nowNs() < target) {
            if (target - nowNs() > 200000)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
        }
        handles.push_back(submitJob(rt, mix, static_cast<int>(i)));
    }
    for (JobHandle &h : handles)
        h.wait();

    OpenLoopResult r;
    r.elapsed_s = static_cast<double>(nowNs() - t0) * 1e-9;
    r.arrival_per_s =
        static_cast<double>(handles.size()) / r.elapsed_s;
    r.latencies_us.reserve(handles.size());
    for (JobHandle &h : handles) {
        // Shed jobs resolve instantly with no latency to speak of;
        // counting their ~0 in the percentiles would flatter any run
        // with a shed policy.
        if (h.outcome() == JobOutcome::Done) {
            ++r.done;
            r.latencies_us.push_back(
                static_cast<double>(h.latencyNs()) / 1000.0);
        } else if (h.outcome() == JobOutcome::Rejected) {
            ++r.shed;
        }
    }
    r.stats = rt.stats();
    const double wall_ns =
        r.elapsed_s * 1e9 * static_cast<double>(rt.numWorkers());
    r.parked_frac =
        static_cast<double>(r.stats.counters.parkedNs) / wall_ns;
    return r;
}

// ---------------------------------------------------------------------
// Sim side: merged multi-root dags + simulateServing
// ---------------------------------------------------------------------

struct SimMix
{
    std::string name;
    sim::ComputationDag dag;      ///< all jobs' trees, merged
    std::vector<sim::FrameId> roots;
    std::vector<int> classes;
    double meanJobCycles = 0.0;   ///< nominal work per job
};

SimMix
buildSimMix(const std::string &name, int jobs, int sockets)
{
    SimMix mix;
    mix.name = name;
    std::vector<sim::ComputationDag> kinds;
    std::vector<int> kind_cls;
    kinds.push_back(fibDag(12));
    kind_cls.push_back(0); // Latency
    if (name == "mixed") {
        HeatParams heat;
        heat.nx = 64;
        heat.ny = 64;
        heat.steps = 2;
        heat.baseRows = 16;
        kinds.push_back(
            heatDag(heat, sockets, Placement::Partitioned, true));
        kind_cls.push_back(1); // Normal, place-hinted
        MatmulParams mm;
        mm.n = 64;
        mm.block = 32;
        kinds.push_back(
            matmulDag(mm, sockets, Placement::FirstTouch, false));
        kind_cls.push_back(2); // Batch
    }
    double total_work = 0.0;
    for (int i = 0; i < jobs; ++i) {
        const std::size_t k = i % kinds.size();
        mix.roots.push_back(mix.dag.append(kinds[k]));
        mix.classes.push_back(kind_cls[k]);
        total_work += kinds[k].workSpan().work;
    }
    mix.meanJobCycles = total_work / jobs;
    return mix;
}

/** Jobs at seeded arrivals targeting @p util of the simulated cores. */
std::vector<sim::SimJob>
makeSimJobs(const SimMix &mix, double util, int cores, double ghz,
            sim::ArrivalProcess::Kind kind, uint64_t seed,
            double &rate_out)
{
    sim::ArrivalProcess p;
    p.kind = kind;
    p.ratePerSec = util * cores * ghz * 1e9 / mix.meanJobCycles;
    p.seed = seed;
    rate_out = p.ratePerSec;
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

sim::SimConfig
simConfig(bool elastic, uint64_t seed)
{
    sim::SimConfig c = sim::SimConfig::adaptiveNumaWs();
    c.modelParking = elastic;
    c.sched.parkSpinFailures = 4;
    c.seed = seed;
    return c;
}

/** One serving row, rendered before provenance stamping so the
 * determinism gate can compare raw bytes. */
JsonRow
simServingRow(const SimMix &mix, const char *rate_class, double rate,
              const char *arrivals, bool elastic, int cores,
              uint64_t seed, const sim::ServingResult &r)
{
    JsonRow row;
    row.set("engine", "sim")
        .set("workload", mix.name)
        .set("mix", mix.name)
        .set("rate", rate_class)
        .set("arrivals", arrivals)
        .set("elastic", elastic)
        .set("cores", cores)
        .set("seed", seed)
        .set("jobs", static_cast<uint64_t>(r.jobs.size()))
        .set("arrival_per_s", rate)
        .set("elapsed_s", r.sim.elapsedSeconds)
        .set("work_s", r.sim.workSeconds)
        .set("sched_s", r.sim.schedSeconds)
        .set("idle_s", r.sim.idleSeconds)
        .set("p50_us", r.p50Us)
        .set("p99_us", r.p99Us)
        .set("p999_us", r.p999Us)
        .set("hist_p99_us",
             static_cast<double>(r.latency.quantile(0.99)) / 1000.0)
        .set("parks", r.sim.counters.parks)
        .set("parked_cycles", r.sim.counters.parkedCycles)
        .set("wakeups", r.sim.counters.wakeups)
        .set("board_wakes", r.sim.counters.boardWakes)
        .set("spurious_wakeups", r.sim.counters.spuriousWakeups)
        .set("steal_attempts", r.sim.counters.stealAttempts);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const BenchArgs args(cli);
    const std::string json_path =
        cli.getString("json", "BENCH_serving.json");
    const uint64_t first_seed =
        static_cast<uint64_t>(cli.getInt("seed", 0x5eed));
    const int num_seeds =
        std::max(1, static_cast<int>(cli.getInt("seeds", 3)));
    const int threads = static_cast<int>(cli.getInt("threads", 2));
    const int reps = std::max(1, static_cast<int>(cli.getInt("reps", 3)));
    const bool skip_threaded = cli.getBool("skip-threaded", false);
    const int sockets = socketsFor(args.cores);
    const int sim_jobs = args.scale >= 1.0 ? 240 : 90;

    const double kLowUtil = 0.05;
    const double kHighUtil = 0.6;

    JsonReport report;
    bool ok = true;

    // ---- Simulated serving rows + deterministic gates ----
    const Machine machine = Machine::paperMachineSubset(args.cores);
    struct RateClass
    {
        const char *name;
        double util;
    };
    const RateClass rate_classes[] = {{"low", kLowUtil},
                                      {"high", kHighUtil}};
    double mixed_low_parked_frac = 0.0;
    double mixed_high_p99[2] = {0.0, 0.0}; // [elastic]
    for (const std::string mix_name : {"fib", "mixed"}) {
        if (!args.only.empty() && args.only != mix_name)
            continue;
        const SimMix mix = buildSimMix(mix_name, sim_jobs, sockets);
        std::printf("\nSimulated serving %s, %d cores, %d jobs:\n",
                    mix_name.c_str(), args.cores, sim_jobs);
        Table t({"rate", "elastic", "T", "p50us", "p99us", "parks",
                 "parked%idle"});
        for (const RateClass &rc : rate_classes) {
            for (const bool elastic : {false, true}) {
                double p99_mean = 0.0;
                double parked_frac = 0.0;
                double rate = 0.0;
                double elapsed = 0.0, p50 = 0.0, parks = 0.0;
                for (int s = 0; s < num_seeds; ++s) {
                    const uint64_t seed = first_seed + 7919ULL * s;
                    const auto jobs = makeSimJobs(
                        mix, rc.util, args.cores, machine.ghz(),
                        sim::ArrivalProcess::Kind::Poisson, seed,
                        rate);
                    const sim::ServingResult r = sim::simulateServing(
                        mix.dag, jobs, machine, args.cores,
                        simConfig(elastic, seed));
                    report.addRow(simServingRow(mix, rc.name, rate,
                                                "poisson", elastic,
                                                args.cores, seed, r));
                    p99_mean += r.p99Us / num_seeds;
                    const double idle_cycles =
                        r.sim.idleSeconds * machine.ghz() * 1e9;
                    parked_frac +=
                        static_cast<double>(
                            r.sim.counters.parkedCycles)
                        / std::max(1.0, idle_cycles) / num_seeds;
                    elapsed += r.sim.elapsedSeconds / num_seeds;
                    p50 += r.p50Us / num_seeds;
                    parks += static_cast<double>(r.sim.counters.parks)
                             / num_seeds;
                }
                t.addRow({rc.name, elastic ? "yes" : "no",
                          Table::fmtSeconds(elapsed),
                          std::to_string(static_cast<int64_t>(p50)),
                          std::to_string(
                              static_cast<int64_t>(p99_mean)),
                          std::to_string(
                              static_cast<int64_t>(parks)),
                          std::to_string(static_cast<int64_t>(
                              parked_frac * 100.0))});
                if (mix_name == "mixed" && rc.util == kLowUtil
                    && elastic)
                    mixed_low_parked_frac = parked_frac;
                if (mix_name == "mixed" && rc.util == kHighUtil)
                    mixed_high_p99[elastic] = p99_mean;
            }
        }
        t.print();

        // Bursty admission rows (measured only): same high rate, jobs
        // arriving in bursts of 8 — the admission-edge stress shape.
        {
            double rate = 0.0;
            const auto jobs = makeSimJobs(
                mix, kHighUtil, args.cores, machine.ghz(),
                sim::ArrivalProcess::Kind::Burst, first_seed, rate);
            const sim::ServingResult r = sim::simulateServing(
                mix.dag, jobs, machine, args.cores,
                simConfig(true, first_seed));
            report.addRow(simServingRow(mix, "high", rate, "burst",
                                        true, args.cores, first_seed,
                                        r));
            std::printf("  burst arrivals: p99 %.0fus  parks %llu\n",
                        r.p99Us,
                        static_cast<unsigned long long>(
                            r.sim.counters.parks));
        }

        // Determinism gate: the same seeded serving run, repeated,
        // must render byte-identical rows.
        {
            double rate = 0.0;
            const auto jobs = makeSimJobs(
                mix, kHighUtil, args.cores, machine.ghz(),
                sim::ArrivalProcess::Kind::Poisson, first_seed, rate);
            const sim::ServingResult a = sim::simulateServing(
                mix.dag, jobs, machine, args.cores,
                simConfig(true, first_seed));
            const sim::ServingResult b = sim::simulateServing(
                mix.dag, jobs, machine, args.cores,
                simConfig(true, first_seed));
            const std::string row_a =
                simServingRow(mix, "high", rate, "poisson", true,
                              args.cores, first_seed, a)
                    .str();
            const std::string row_b =
                simServingRow(mix, "high", rate, "poisson", true,
                              args.cores, first_seed, b)
                    .str();
            const bool same = row_a == row_b;
            std::printf("  gate %-52s %s\n",
                        (mix_name + " serving rows byte-identical")
                            .c_str(),
                        same ? "ok" : "FAIL");
            ok &= same;
        }
    }

    if (args.only.empty()) {
        std::printf("\nSim serving gates:\n");
        ok &= gateMin("sim mixed/low elastic parked frac of idle",
                      mixed_low_parked_frac, 0.80);
        ok &= gateMax("sim mixed/high elastic/spin p99",
                      mixed_high_p99[1]
                          / std::max(1e-9, mixed_high_p99[0]),
                      1.10);
    }

    // ---- Threaded open-loop rows + gates ----
    if (!skip_threaded && args.only.empty()) {
        const int n_low = args.scale >= 1.0 ? 200 : 80;
        const int n_high = args.scale >= 1.0 ? 600 : 300;

        // Calibrate the mean job time on this host with a spin
        // runtime, then derive the two rate classes from it.
        double mean_job_s = 0.0;
        {
            RuntimeOptions o;
            o.numWorkers = threads;
            o.numPlaces = threads >= 2 ? 2 : 1;
            o.sched.parkSpinFailures = 1 << 30;
            Runtime rt(o);
            const int probe = 30;
            const int64_t t0 = nowNs();
            for (int i = 0; i < probe; ++i)
                submitJob(rt, "mixed", i).wait();
            mean_job_s = static_cast<double>(nowNs() - t0) * 1e-9
                         / probe;
        }
        const double rate_low = kLowUtil * threads / mean_job_s;
        const double rate_high = kHighUtil * threads / mean_job_s;
        std::printf("\nThreaded open-loop, %d workers (mean job "
                    "%.0fus, rates %.0f/s and %.0f/s):\n",
                    threads, mean_job_s * 1e6, rate_low, rate_high);

        struct Meas
        {
            double p99_us = 0.0;
            double parked_frac = 0.0;
        };
        // [rate_class][elastic]: medians over reps.
        Meas meas[2][2];
        Table t({"rate", "elastic", "p50us", "p99us", "parked%",
                 "parks", "spurious"});
        for (int rci = 0; rci < 2; ++rci) {
            const char *rc_name = rci == 0 ? "low" : "high";
            const double rate = rci == 0 ? rate_low : rate_high;
            const int n_jobs = rci == 0 ? n_low : n_high;
            for (const bool elastic : {false, true}) {
                RuntimeOptions o;
                o.numWorkers = threads;
                o.numPlaces = threads >= 2 ? 2 : 1;
                if (!elastic)
                    o.sched.parkSpinFailures = 1 << 30;
                Runtime rt(o);
                std::vector<double> p99s, parked;
                double p50 = 0.0, parks = 0.0, spurious = 0.0;
                for (int rep = 0; rep < reps; ++rep) {
                    sim::ArrivalProcess p;
                    p.ratePerSec = rate;
                    p.seed = first_seed + 104729ULL * rep;
                    // ghz=1.0 makes arrivalCycles return nanoseconds.
                    const auto arrivals =
                        sim::arrivalCycles(p, n_jobs, 1.0);
                    const OpenLoopResult r =
                        runOpenLoop(rt, "mixed", arrivals);
                    const double p99 =
                        exactQuantile(r.latencies_us, 0.99);
                    p99s.push_back(p99);
                    parked.push_back(r.parked_frac);
                    p50 += exactQuantile(r.latencies_us, 0.50) / reps;
                    parks += static_cast<double>(
                                 r.stats.counters.parks)
                             / reps;
                    spurious += static_cast<double>(
                                    r.stats.counters.spuriousWakes)
                                / reps;
                    JsonRow row;
                    row.set("engine", "threaded")
                        .set("workload", "mixed")
                        .set("mix", "mixed")
                        .set("rate", rc_name)
                        .set("arrivals", "poisson")
                        .set("elastic", elastic)
                        .set("workers", threads)
                        .set("rep", rep)
                        .set("jobs",
                             static_cast<uint64_t>(n_jobs))
                        .set("arrival_per_s", r.arrival_per_s)
                        .set("elapsed_s", r.elapsed_s)
                        .set("p50_us",
                             exactQuantile(r.latencies_us, 0.50))
                        .set("p99_us", p99)
                        .set("p999_us",
                             exactQuantile(r.latencies_us, 0.999))
                        .set("hist_p99_us",
                             static_cast<double>(
                                 r.stats.jobLatency.quantile(0.99))
                                 / 1000.0)
                        .set("jobs_completed",
                             r.stats.counters.jobsCompleted)
                        .set("parked_frac", r.parked_frac)
                        .set("parks", r.stats.counters.parks)
                        .set("spurious_wakeups",
                             r.stats.counters.spuriousWakes);
                    report.addRow(row);
                }
                Meas &m = meas[rci][elastic];
                m.p99_us = exactQuantile(p99s, 0.5);
                m.parked_frac = exactQuantile(parked, 0.5);
                t.addRow({rc_name, elastic ? "yes" : "no",
                          std::to_string(static_cast<int64_t>(p50)),
                          std::to_string(
                              static_cast<int64_t>(m.p99_us)),
                          std::to_string(static_cast<int64_t>(
                              m.parked_frac * 100.0)),
                          std::to_string(
                              static_cast<int64_t>(parks)),
                          std::to_string(
                              static_cast<int64_t>(spurious))});
            }
        }
        t.print();

        // Co-runner interference rows: high-rate elastic serving
        // while busy-loop threads steal the cores, once unprotected
        // and once with QueueDelay shedding. The co-runners eat a
        // chunk of capacity, so the same arrival rate is effectively
        // an overload; the shedding run is the protected comparator
        // the gate below measures against.
        double corun_none_p99 = 0.0, corun_shed_p99 = 0.0;
        {
            std::atomic<bool> stop{false};
            std::vector<std::thread> busy;
            for (int i = 0; i < threads; ++i)
                busy.emplace_back([&stop] {
                    volatile uint64_t x = 0;
                    while (!stop.load(std::memory_order_relaxed))
                        x = x + 1;
                });
            for (int shed = 0; shed < 2; ++shed) {
                RuntimeOptions o;
                o.numWorkers = threads;
                o.numPlaces = threads >= 2 ? 2 : 1;
                if (shed) {
                    const int lat_t = std::max(
                        2000, static_cast<int>(8e6 * mean_job_s));
                    o.sched.serving.shed = ShedPolicy::QueueDelay;
                    o.sched.serving.queueDelayTargetUs[0] = lat_t;
                    o.sched.serving.queueDelayTargetUs[1] = 2 * lat_t;
                    o.sched.serving.queueDelayTargetUs[2] = 4 * lat_t;
                }
                Runtime rt(o);
                sim::ArrivalProcess p;
                p.ratePerSec = rate_high;
                p.seed = first_seed;
                const auto arrivals =
                    sim::arrivalCycles(p, n_high, 1.0);
                const OpenLoopResult r =
                    runOpenLoop(rt, "mixed", arrivals);
                const double p99 =
                    exactQuantile(r.latencies_us, 0.99);
                (shed ? corun_shed_p99 : corun_none_p99) = p99;
                JsonRow row;
                row.set("engine", "threaded")
                    .set("workload", "mixed+corun")
                    .set("mix", "mixed")
                    .set("rate", "high")
                    .set("arrivals", "poisson")
                    .set("shed", shed ? "queue_delay" : "none")
                    .set("elastic", true)
                    .set("workers", threads)
                    .set("jobs", static_cast<uint64_t>(n_high))
                    .set("elapsed_s", r.elapsed_s)
                    .set("p50_us",
                         exactQuantile(r.latencies_us, 0.50))
                    .set("p99_us", p99)
                    .set("done", r.done)
                    .set("shed_jobs", r.shed)
                    .set("parked_frac", r.parked_frac)
                    .set("parks", r.stats.counters.parks);
                report.addRow(row);
                std::printf("  co-runner row (%s): p99 %.0fus, "
                            "%llu done / %llu shed (vs %.0fus "
                            "uncontended)\n",
                            shed ? "queue_delay" : "none", p99,
                            static_cast<unsigned long long>(r.done),
                            static_cast<unsigned long long>(r.shed),
                            meas[1][1].p99_us);
            }
            stop.store(true, std::memory_order_relaxed);
            for (std::thread &th : busy)
                th.join();
        }

        std::printf("\nThreaded serving gates:\n");
        ok &= gateMin("threaded mixed/low elastic parked frac",
                      meas[0][1].parked_frac, 0.80);
        ok &= gateMax("threaded mixed/high elastic/spin p99",
                      meas[1][1].p99_us
                          / std::max(1e-9, meas[1][0].p99_us),
                      1.10);
        // Under co-runner pressure the protected run must not be
        // worse than the unprotected one (2.0 covers shared-host
        // noise; a shedding bug that queues behind dead weight reads
        // far above it).
        ok &= gateMax("threaded corun queue_delay / corun none p99",
                      corun_shed_p99 / std::max(1e-9, corun_none_p99),
                      2.0);
    }

    report.writeFile(json_path);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(),
                json_path.c_str());

    if (!args.only.empty())
        return 0; // partial runs skip the gates

    if (!ok) {
        std::printf("FAIL: serving acceptance gate violated\n");
        return 1;
    }
    return 0;
}
