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
 *  2. sim, mixed/high: elastic p99 <= 1.10x the spin baseline, each
 *     arm's p99 taken over the Done-job latencies pooled across
 *     kTailGateSeeds seeds (the rows keep --seeds),
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

#include "serving_harness.h"

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

/** One threaded open-loop run of the mixed stream. */
struct ServedRun
{
    OpenLoop run;
    std::vector<double> latencies_us; ///< Done jobs only
    double parked_frac = 0.0;         ///< parkedNs / (wall * workers)
    RuntimeStats stats;
};

ServedRun
serveMixed(Runtime &rt, const std::vector<double> &arrival_ns)
{
    ServedRun s;
    s.run = runOpenLoop(rt, Warmup{}, arrival_ns, [&rt](int i, bool) {
        return submitJob(rt, "mixed", i);
    });
    s.latencies_us = s.run.latenciesUs();
    s.stats = rt.stats();
    const double wall_ns =
        s.run.elapsed_s * 1e9 * static_cast<double>(rt.numWorkers());
    s.parked_frac =
        static_cast<double>(s.stats.counters.parkedNs) / wall_ns;
    return s;
}

// ---------------------------------------------------------------------
// Sim side: merged multi-root dags + simulateServing
// ---------------------------------------------------------------------

/** "fib": Latency-class fib only. "mixed": round-robin Latency fib,
 * place-hinted Normal heat and Batch matmul. */
SimMix
servingMix(const std::string &name, int jobs, int sockets)
{
    std::vector<sim::ComputationDag> kinds;
    kinds.push_back(fibDag(12));
    if (name == "mixed") {
        HeatParams heat;
        heat.nx = 64;
        heat.ny = 64;
        heat.steps = 2;
        heat.baseRows = 16;
        kinds.push_back(
            heatDag(heat, sockets, Placement::Partitioned, true));
        MatmulParams mm;
        mm.n = 64;
        mm.block = 32;
        kinds.push_back(
            matmulDag(mm, sockets, Placement::FirstTouch, false));
    }
    return buildSimMix(jobs, [&kinds](int i) {
        const std::size_t k = static_cast<std::size_t>(i) % kinds.size();
        return MixSlot{&kinds[k], static_cast<int>(k)};
    });
}

/** One serving row, rendered before provenance stamping so the
 * determinism gate can compare raw bytes. */
JsonRow
simServingRow(const std::string &mix, const char *rate_class, double rate,
              const char *arrivals, bool elastic, int cores,
              uint64_t seed, const sim::ServingResult &r)
{
    JsonRow row;
    row.set("engine", "sim")
        .set("workload", mix)
        .set("mix", mix)
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
    const ServingArgs args(cli, "BENCH_serving.json", 3);
    const int threads = static_cast<int>(cli.getInt("threads", 2));
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
    double mixed_high_p99[2] = {0.0, 0.0}; // [elastic], pooled
    for (const std::string mix_name : {"fib", "mixed"}) {
        if (!args.only.empty() && args.only != mix_name)
            continue;
        const SimMix mix = servingMix(mix_name, sim_jobs, sockets);
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
                for (int s = 0; s < args.seeds; ++s) {
                    const uint64_t seed = simSeed(args.firstSeed, s);
                    const auto jobs =
                        makeSimJobs(mix, rc.util, args.cores,
                                    machine.ghz(), seed, &rate);
                    const sim::ServingResult r = sim::simulateServing(
                        mix.dag, jobs, machine, args.cores,
                        servingSimConfig(elastic, seed));
                    report.addRow(simServingRow(mix_name, rc.name, rate,
                                                "poisson", elastic,
                                                args.cores, seed, r));
                    p99_mean += r.p99Us / args.seeds;
                    const double idle_cycles =
                        r.sim.idleSeconds * machine.ghz() * 1e9;
                    parked_frac +=
                        static_cast<double>(
                            r.sim.counters.parkedCycles)
                        / std::max(1.0, idle_cycles) / args.seeds;
                    elapsed += r.sim.elapsedSeconds / args.seeds;
                    p50 += r.p50Us / args.seeds;
                    parks += static_cast<double>(r.sim.counters.parks)
                             / args.seeds;
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
            }
        }
        t.print();

        // The tail gate's statistic: p99 of the Done-job latencies
        // pooled over kTailGateSeeds seeds per arm.
        if (mix_name == "mixed") {
            for (const bool elastic : {false, true}) {
                std::vector<double> pooled_us;
                for (int s = 0; s < kTailGateSeeds; ++s) {
                    const uint64_t seed = simSeed(args.firstSeed, s);
                    double rate = 0.0;
                    const auto jobs =
                        makeSimJobs(mix, kHighUtil, args.cores,
                                    machine.ghz(), seed, &rate);
                    const sim::ServingResult r = sim::simulateServing(
                        mix.dag, jobs, machine, args.cores,
                        servingSimConfig(elastic, seed));
                    for (const sim::SimJobStats &j : r.jobs)
                        if (j.outcome == JobOutcome::Done)
                            pooled_us.push_back(j.latencyCycles()
                                                / machine.ghz() / 1000.0);
                }
                mixed_high_p99[elastic] =
                    exactQuantile(std::move(pooled_us), 0.99);
            }
            std::printf("  pooled p99 over %d seeds: spin %.0fus  "
                        "elastic %.0fus\n",
                        kTailGateSeeds, mixed_high_p99[0],
                        mixed_high_p99[1]);
        }

        // Bursty admission rows (measured only): same high rate, jobs
        // arriving in bursts of 8 — the admission-edge stress shape.
        {
            double rate = 0.0;
            const auto jobs = makeSimJobs(
                mix, kHighUtil, args.cores, machine.ghz(), args.firstSeed,
                &rate, sim::ArrivalProcess::Kind::Burst);
            const sim::ServingResult r = sim::simulateServing(
                mix.dag, jobs, machine, args.cores,
                servingSimConfig(true, args.firstSeed));
            report.addRow(simServingRow(mix_name, "high", rate, "burst",
                                        true, args.cores, args.firstSeed,
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
            const auto jobs =
                makeSimJobs(mix, kHighUtil, args.cores, machine.ghz(),
                            args.firstSeed, &rate);
            ok &= gateReplaysIdentically(
                (mix_name + " serving rows byte-identical").c_str(), [&] {
                    return simServingRow(
                        mix_name, "high", rate, "poisson", true,
                        args.cores, args.firstSeed,
                        sim::simulateServing(
                            mix.dag, jobs, machine, args.cores,
                            servingSimConfig(true, args.firstSeed)));
                });
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
    if (!args.skipThreaded && args.only.empty()) {
        const int n_low = args.scale >= 1.0 ? 200 : 80;
        const int n_high = args.scale >= 1.0 ? 600 : 300;

        // Calibrate the mean job time on this host with a spin
        // runtime, then derive the two rate classes from it.
        const double mean_job_s =
            calibrate(servingRuntimeOptions(threads, true), 0, 30, 0,
                      [](Runtime &rt, int i) {
                          return submitJob(rt, "mixed", i);
                      })
                .meanJobS;
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
                Runtime rt(servingRuntimeOptions(threads, !elastic));
                std::vector<double> p99s, parked;
                double p50 = 0.0, parks = 0.0, spurious = 0.0;
                for (int rep = 0; rep < args.reps; ++rep) {
                    const ServedRun r = serveMixed(
                        rt, poissonArrivalsNs(rate, n_jobs,
                                              repSeed(args.firstSeed, rep)));
                    const double p99 =
                        exactQuantile(r.latencies_us, 0.99);
                    p99s.push_back(p99);
                    parked.push_back(r.parked_frac);
                    p50 += exactQuantile(r.latencies_us, 0.50) / args.reps;
                    parks += static_cast<double>(
                                 r.stats.counters.parks)
                             / args.reps;
                    spurious += static_cast<double>(
                                    r.stats.counters.spuriousWakes)
                                / args.reps;
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
                        .set("arrival_per_s", r.run.arrivalPerSec())
                        .set("elapsed_s", r.run.elapsed_s)
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
                RuntimeOptions o = servingRuntimeOptions(threads, false);
                if (shed) {
                    const int lat_t = std::max(
                        2000, static_cast<int>(8e6 * mean_job_s));
                    o.sched.serving.shed = ShedPolicy::QueueDelay;
                    o.sched.serving.queueDelayTargetUs[0] = lat_t;
                    o.sched.serving.queueDelayTargetUs[1] = 2 * lat_t;
                    o.sched.serving.queueDelayTargetUs[2] = 4 * lat_t;
                }
                Runtime rt(o);
                const ServedRun r = serveMixed(
                    rt, poissonArrivalsNs(rate_high, n_high, args.firstSeed));
                const uint64_t done = r.run.count(JobOutcome::Done);
                const uint64_t shed_jobs =
                    r.run.count(JobOutcome::Rejected);
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
                    .set("elapsed_s", r.run.elapsed_s)
                    .set("p50_us",
                         exactQuantile(r.latencies_us, 0.50))
                    .set("p99_us", p99)
                    .set("done", done)
                    .set("shed_jobs", shed_jobs)
                    .set("parked_frac", r.parked_frac)
                    .set("parks", r.stats.counters.parks);
                report.addRow(row);
                std::printf("  co-runner row (%s): p99 %.0fus, "
                            "%llu done / %llu shed (vs %.0fus "
                            "uncontended)\n",
                            shed ? "queue_delay" : "none", p99,
                            static_cast<unsigned long long>(done),
                            static_cast<unsigned long long>(shed_jobs),
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

    // Partial (--workload) runs skip the gates.
    return finishReport(report, args, ok || !args.only.empty(), "serving");
}
