/**
 * @file
 * Overload-protection rows: the PR 7 admission/shedding machinery driven
 * past capacity in both engines.
 *
 * A mixed fib/heat/matmul job stream (classes round-robin: Latency,
 * Normal, Batch) arrives Poisson at two rates — "half" (~50%
 * utilization, the uncontended comparator) and "2x" (twice service
 * capacity, sustained overload) — under three shed configs: `none`
 * (PR 6 behavior: queues grow without bound), `reject` (per-lane
 * capacity bounce at submit), and `queue_delay` (CoDel-style: shed from
 * the lowest class while any class's claim-delay EWMA sits above
 * target). A fourth row set gives half the jobs deadlines so expiry
 * shows up in the tallies.
 *
 *   ./ablation_overload [--scale=0.25] [--cores=32] [--seeds=3]
 *                       [--seed=first] [--threads=2] [--reps=3]
 *                       [--skip-threaded] [--json=BENCH_overload.json]
 *
 * Exits nonzero unless (both engines; threaded gates use medians over
 * --reps so one noisy rep cannot flip the verdict):
 *  1. protection: queue_delay@2x keeps the Latency-class p99 within
 *     1.25x the uncontended (none@half) Latency-class p99,
 *  2. goodput: queue_delay@2x completes >= 0.9x the jobs/sec the
 *     saturated none@2x run does (shedding must not cost throughput),
 *  3. collapse: none@2x queue delay grows without bound — in the sim
 *     its queue p99 grows >= 1.3x when the arrival horizon doubles
 *     while queue_delay@2x grows <= 1.25x, each arm's p99 taken over
 *     the queue delays pooled across kTailGateSeeds seeds (the rows
 *     keep --seeds); threaded, none@2x queue p99 stays >= 2x
 *     queue_delay@2x's,
 *  4. sim rows are byte-identical across repeated runs of one seed,
 *  5. deadline rows under overload actually expire jobs (tallies move).
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

/**
 * Shed configuration named in the rows. Delay targets scale with the
 * engine's expected per-job *latency* (service time as experienced, not
 * total work) so the same knobs work for microsecond sim jobs spread
 * over 32 cores and the slower threaded bodies: the Latency class
 * tolerates ~2 jobs' worth of delay before shedding starts, lower
 * classes 4x/16x that (shedding victimizes them first anyway).
 */
ServingPolicy
servingFor(const std::string &shed, double lat_us, double norm_us,
           double batch_us, int lane_cap)
{
    ServingPolicy p;
    if (shed == "reject") {
        p.shed = ShedPolicy::Reject;
        for (int c = 0; c < kNumServingClasses; ++c)
            p.laneCapacity[c] = lane_cap;
    } else if (shed == "queue_delay") {
        p.shed = ShedPolicy::QueueDelay;
        p.queueDelayTargetUs[0] = std::max(1, static_cast<int>(lat_us));
        p.queueDelayTargetUs[1] =
            std::max(1, static_cast<int>(norm_us));
        p.queueDelayTargetUs[2] =
            std::max(1, static_cast<int>(batch_us));
    }
    return p;
}

/** Does job @p i carry a deadline when @p frac of jobs get one? */
bool
deadlined(std::size_t i, double frac)
{
    return frac > 0.0 && static_cast<double>(i % 100) < frac * 100.0;
}

// ---------------------------------------------------------------------
// Sim side
// ---------------------------------------------------------------------

/** Round-robin Latency, Normal, Batch jobs. */
SimMix
overloadMix(int jobs, int sockets)
{
    std::vector<sim::ComputationDag> kinds;
    // Latency-class requests are a single serial block (block == n) so
    // their execution time is load-independent: what the protection
    // gate measures is queueing, not intra-job parallelism starved by
    // a saturated machine (no admission policy can return that).
    MatmulParams serial_mm;
    serial_mm.n = 64;
    serial_mm.block = 64;
    kinds.push_back(
        matmulDag(serial_mm, sockets, Placement::FirstTouch, false));
    // Normal and Batch are parallel with small leaf frames (frequent
    // scheduling points), sized within ~2x of the Latency job's work so
    // job-count goodput is not skewed by which class the shedder
    // victimizes.
    HeatParams heat;
    heat.nx = 64;
    heat.ny = 64;
    heat.steps = 8;
    heat.baseRows = 16;
    kinds.push_back(
        heatDag(heat, sockets, Placement::Partitioned, true)); // Normal
    MatmulParams mm;
    mm.n = 64;
    mm.block = 16;
    kinds.push_back(
        matmulDag(mm, sockets, Placement::FirstTouch, false)); // Batch
    return buildSimMix(jobs, [&kinds](int i) {
        const int k = i % 3;
        return MixSlot{&kinds[static_cast<std::size_t>(k)], k};
    });
}

/** Sim overload scenario: rate multiple of capacity, shed config, and
 * an optional deadline on every other job. */
struct SimScenario
{
    const char *rate_name;
    double util;
    std::string shed;
    double deadline_frac = 0.0; ///< fraction of jobs given deadlines
};

SimServingRun
runSimScenario(const SimMix &mix, const SimScenario &sc,
               const Machine &machine, int cores, uint64_t seed)
{
    SimServingRun run;
    run.ghz = machine.ghz();
    run.classes = mix.classes;
    std::vector<sim::SimJob> jobs = makeSimJobs(
        mix, sc.util, cores, machine.ghz(), seed, &run.ratePerSec);
    // Deadline ~2x the mean job's work: generous uncontended, hopeless
    // once the unprotected queue has grown for a while.
    const double deadline_cycles = 2.0 * mix.meanJobCycles;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (deadlined(i, sc.deadline_frac))
            jobs[i].deadlineCycles =
                jobs[i].arrivalCycles + deadline_cycles;
    sim::SimConfig cfg = servingSimConfig(true, seed);
    // Latency target ~4 per-core service times: loose enough that the
    // regulated queue keeps standing (a near-empty queue lets the
    // server idle on arrival variance and costs goodput), tight enough
    // to bound the delay well under the unprotected collapse.
    const double mean_lat_us =
        mix.meanJobCycles / machine.ghz() / 1000.0 / cores;
    cfg.sched.serving = servingFor(
        sc.shed, 4.0 * mean_lat_us, 16.0 * mean_lat_us,
        64.0 * mean_lat_us, std::max(2, cores / 4));
    run.r = sim::simulateServing(mix.dag, jobs, machine, cores, cfg);
    return run;
}

/** One overload row, rendered before provenance stamping so the
 * determinism gate can compare raw bytes. `shed` names the policy;
 * the evicted-job count is `shed_jobs`. */
JsonRow
overloadRow(const char *engine, const SimScenario &sc, double rate,
            int cores_or_workers, uint64_t seed, std::size_t jobs,
            double elapsed_s, double p50_us, double p99_us,
            double lat_p99_us, double queue_p50_us, double queue_p99_us,
            double goodput, double shed_frac, uint64_t done,
            uint64_t expired, uint64_t cancelled, uint64_t rejected,
            uint64_t shed_jobs)
{
    JsonRow row;
    row.set("engine", engine)
        .set("workload", "mixed")
        .set("mix", "mixed")
        .set("rate", sc.rate_name)
        .set("arrivals", "poisson")
        .set("shed", sc.shed)
        .set("deadline_frac", sc.deadline_frac)
        .set(std::string(engine) == "sim" ? "cores" : "workers",
             cores_or_workers)
        .set("seed", seed)
        .set("jobs", static_cast<uint64_t>(jobs))
        .set("arrival_per_s", rate)
        .set("elapsed_s", elapsed_s)
        .set("p50_us", p50_us)
        .set("p99_us", p99_us)
        .set("lat_p99_us", lat_p99_us)
        .set("queue_p50_us", queue_p50_us)
        .set("queue_p99_us", queue_p99_us)
        .set("goodput", goodput)
        .set("shed_frac", shed_frac)
        .set("done", done)
        .set("expired", expired)
        .set("cancelled", cancelled)
        .set("rejected", rejected)
        .set("shed_jobs", shed_jobs);
    return row;
}

JsonRow
simRow(const SimScenario &sc, int cores, uint64_t seed,
       const SimServingRun &run)
{
    const sim::ServingResult &r = run.r;
    const double total = static_cast<double>(r.jobs.size());
    return overloadRow("sim", sc, run.ratePerSec, cores, seed,
                       r.jobs.size(), r.sim.elapsedSeconds, r.p50Us,
                       r.p99Us, run.classP99Us(0), r.queueP50Us,
                       r.queueP99Us, r.goodputPerSec,
                       static_cast<double>(r.shed) / total, r.done,
                       r.expired, r.cancelled, r.rejected, r.shed);
}

// ---------------------------------------------------------------------
// Threaded side: the bench_common.h job bodies, sized to hundreds of
// microseconds — see the submitJob comment.
// ---------------------------------------------------------------------

std::atomic<double> g_sink{0.0};

/** Class mix mirrors overloadMix: jobs are sized in the hundreds of
 * microseconds so overload queue delays (tens of ms) clear the host's
 * park/wake noise floor (~1-2ms on a shared CI core) by an order of
 * magnitude, and the three classes carry comparable work so job-count
 * goodput is not skewed by which class the shedder victimizes. */
JobHandle
submitJob(Runtime &rt, int i, int64_t deadline_ns)
{
    JobOptions opts;
    opts.deadlineNs = deadline_ns;
    switch (i % 3) {
      case 0:
        opts.cls = JobClass::Latency;
        return rt.submit([] {
            g_sink.store(matmulSerialJob(96),
                         std::memory_order_relaxed);
        }, opts);
      case 1:
        opts.cls = JobClass::Normal;
        opts.place = static_cast<Place>(i % rt.numPlaces());
        return rt.submit([] {
            g_sink.store(heatJob(128, 128, 32),
                         std::memory_order_relaxed);
        }, opts);
      default:
        opts.cls = JobClass::Batch;
        return rt.submit([] {
            g_sink.store(matmulJob(96), std::memory_order_relaxed);
        }, opts);
    }
}

struct OverloadRun
{
    double elapsed_s = 0.0;
    double arrival_per_s = 0.0;
    double goodput = 0.0;       ///< Done jobs / elapsed second
    double p50_us = 0.0;        ///< Done-job latency percentiles
    double p99_us = 0.0;
    double lat_p99_us = 0.0;    ///< Latency-class Done-job p99
    double queue_p50_us = 0.0;  ///< Done-job queue-delay percentiles
    double queue_p99_us = 0.0;
    uint64_t done = 0, expired = 0, cancelled = 0, rejected = 0,
             shed = 0;
    double shed_frac = 0.0;
};

/** Drive @p rt open-loop at seeded @p arrival_ns offsets. */
OverloadRun
runOverloadStream(Runtime &rt, const std::vector<double> &arrival_ns,
                  double deadline_frac, int64_t deadline_ns)
{
    const OpenLoop ol = runOpenLoop(
        rt, Warmup{}, arrival_ns, [&](int i, bool warm) {
            const bool ddl =
                !warm
                && deadlined(static_cast<std::size_t>(i), deadline_frac);
            return submitJob(rt, i, ddl ? deadline_ns : 0);
        });
    OverloadRun r;
    r.elapsed_s = ol.elapsed_s;
    r.arrival_per_s = ol.arrivalPerSec();
    r.done = ol.count(JobOutcome::Done);
    r.expired = ol.count(JobOutcome::Expired);
    r.cancelled = ol.count(JobOutcome::Cancelled);
    r.rejected = ol.count(JobOutcome::Rejected);
    if (r.done + r.expired + r.cancelled + r.rejected
        != ol.handles.size())
        NUMAWS_PANIC("job resolved with an unexpected outcome");
    const std::vector<double> lat_us = ol.latenciesUs();
    const std::vector<double> queue_us = ol.queueDelaysUs();
    r.goodput = static_cast<double>(r.done) / r.elapsed_s;
    r.p50_us = exactQuantile(lat_us, 0.50);
    r.p99_us = exactQuantile(lat_us, 0.99);
    r.lat_p99_us = exactQuantile(
        ol.latenciesUs([](std::size_t i) { return i % 3 == 0; }), 0.99);
    r.queue_p50_us = exactQuantile(queue_us, 0.50);
    r.queue_p99_us = exactQuantile(queue_us, 0.99);
    const RuntimeStats s = rt.stats();
    for (int c = 0; c < kNumJobClasses; ++c)
        r.shed += s.jobOutcomes[c].shed;
    r.shed_frac =
        static_cast<double>(r.shed)
        / static_cast<double>(ol.handles.size());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const ServingArgs args(cli, "BENCH_overload.json", 5);
    // Never oversubscribe: with more workers than physical cores the
    // OS deschedules a worker mid-frame and Latency-class claims stall
    // behind it, which the latency gate would misread as an admission
    // failure.
    const int default_threads = std::min(
        2u, std::max(1u, std::thread::hardware_concurrency()));
    const int threads =
        static_cast<int>(cli.getInt("threads", default_threads));
    const int sockets = socketsFor(args.cores);
    const int sim_jobs = args.scale >= 1.0 ? 480 : 240;

    const SimScenario scenarios[] = {
        {"half", 0.5, "none"},
        {"2x", 2.0, "none"},
        {"2x", 2.0, "reject"},
        {"2x", 2.0, "queue_delay"},
        {"2x", 2.0, "none", /*deadline_frac=*/0.5},
    };

    JsonReport report;
    bool ok = true;

    // ---- Simulated overload rows + deterministic gates ----
    const Machine machine = Machine::paperMachineSubset(args.cores);
    const SimMix mix = overloadMix(sim_jobs, sockets);
    std::printf("Simulated overload, %d cores, %d jobs:\n", args.cores,
                sim_jobs);
    Table t({"rate", "shed", "ddl", "latp99us", "qp99us", "goodput/s",
             "done", "shed#", "expired"});
    double base_lat_p99 = 0.0;      // none@half latency-class p99
    double none2x_goodput = 0.0;    // saturated throughput comparator
    double qd2x_lat_p99 = 0.0;
    double qd2x_goodput = 0.0;
    uint64_t ddl_expired = 0;
    for (const SimScenario &sc : scenarios) {
        double lat_p99 = 0.0, qp99 = 0.0, goodput = 0.0;
        double done = 0.0, shed = 0.0, expired = 0.0;
        for (int s = 0; s < args.seeds; ++s) {
            const uint64_t seed = simSeed(args.firstSeed, s);
            const SimServingRun run =
                runSimScenario(mix, sc, machine, args.cores, seed);
            report.addRow(simRow(sc, args.cores, seed, run));
            lat_p99 += run.classP99Us(0) / args.seeds;
            qp99 += run.r.queueP99Us / args.seeds;
            goodput += run.r.goodputPerSec / args.seeds;
            done += static_cast<double>(run.r.done) / args.seeds;
            shed += static_cast<double>(run.r.shed) / args.seeds;
            expired +=
                static_cast<double>(run.r.expired) / args.seeds;
            ddl_expired += sc.deadline_frac > 0.0 ? run.r.expired : 0;
        }
        t.addRow({sc.rate_name, sc.shed,
                  sc.deadline_frac > 0.0 ? "yes" : "no",
                  std::to_string(static_cast<int64_t>(lat_p99)),
                  std::to_string(static_cast<int64_t>(qp99)),
                  std::to_string(static_cast<int64_t>(goodput)),
                  std::to_string(static_cast<int64_t>(done)),
                  std::to_string(static_cast<int64_t>(shed)),
                  std::to_string(static_cast<int64_t>(expired))});
        if (sc.shed == "none" && sc.util == 0.5)
            base_lat_p99 = lat_p99;
        if (sc.shed == "none" && sc.util == 2.0
            && sc.deadline_frac == 0.0)
            none2x_goodput = goodput;
        if (sc.shed == "queue_delay") {
            qd2x_lat_p99 = lat_p99;
            qd2x_goodput = goodput;
        }
    }
    t.print();

    // Determinism: the same seeded overload run, repeated, must render
    // byte-identical rows (admission, shedding, and expiry decisions
    // all replay exactly).
    {
        const SimScenario sc = {"2x", 2.0, "queue_delay", 0.5};
        ok &= gateReplaysIdentically("sim overload rows byte-identical", [&] {
            return simRow(
                sc, args.cores, args.firstSeed,
                runSimScenario(mix, sc, machine, args.cores, args.firstSeed));
        });
    }

    // Unbounded vs bounded growth, by horizon doubling: run none@2x
    // and queue_delay@2x again with twice the arrival window. Without
    // protection the tail queue delay keeps growing with the horizon;
    // with QueueDelay shedding the one-in-one-out regulator pins it.
    // Each arm's p99 is taken over the queue delays of kTailGateSeeds
    // seeds pooled: the p99 of one 240-job run is its third-worst
    // claim, and a ratio of two such readings swung with the seed.
    double grow_none = 0.0, grow_qd = 0.0;
    {
        const SimMix mix2 = overloadMix(sim_jobs * 2, sockets);
        const SimScenario none2x = {"2x", 2.0, "none", 0.0};
        const SimScenario qd2x = {"2x", 2.0, "queue_delay", 0.0};
        const auto pooled_queue_p99 = [&](const SimMix &m,
                                          const SimScenario &sc) {
            std::vector<double> pooled_us;
            for (int s = 0; s < kTailGateSeeds; ++s) {
                const SimServingRun run =
                    runSimScenario(m, sc, machine, args.cores,
                                   simSeed(args.firstSeed, s));
                for (const sim::SimJobStats &j : run.r.jobs)
                    if (j.startCycles > 0.0)
                        pooled_us.push_back(j.queueCycles()
                                            / machine.ghz() / 1000.0);
            }
            return exactQuantile(std::move(pooled_us), 0.99);
        };
        grow_none = pooled_queue_p99(mix2, none2x)
                    / std::max(1e-9, pooled_queue_p99(mix, none2x));
        grow_qd = pooled_queue_p99(mix2, qd2x)
                  / std::max(1e-9, pooled_queue_p99(mix, qd2x));
        std::printf("  queue p99 growth pooled over %d seeds per arm\n",
                    kTailGateSeeds);
    }

    std::printf("\nSim overload gates:\n");
    ok &= gateMax("sim queue_delay@2x / none@half latency p99",
                  qd2x_lat_p99 / std::max(1e-9, base_lat_p99), 1.25);
    ok &= gateMin("sim queue_delay@2x / none@2x goodput",
                  qd2x_goodput / std::max(1e-9, none2x_goodput), 0.90);
    ok &= gateMin("sim none@2x queue p99 growth at 2x horizon",
                  grow_none, 1.30);
    ok &= gateMax("sim queue_delay@2x queue p99 growth at 2x horizon",
                  grow_qd, 1.25);
    ok &= gateMin("sim deadline rows expire jobs",
                  static_cast<double>(ddl_expired), 1.0);

    // ---- Threaded overload rows + gates ----
    if (!args.skipThreaded) {
        const int n_half = args.scale >= 1.0 ? 200 : 100;
        const int n_over = args.scale >= 1.0 ? 600 : 300;

        // Calibrate this host's capacity with the real runtime: the
        // serial per-job mean (spin runtime, one job at a time) sets
        // the latency targets, while a closed-loop burst sets the
        // sustainable jobs/s the open-loop rates are scaled from.
        // Deriving capacity as threads/mean_job would overstate it on
        // CI hosts with fewer cores than workers, turning "2x" into a
        // much deeper overload than the gates are calibrated for.
        const Calibration cal =
            calibrate(servingRuntimeOptions(threads, true), 0, 30, 60,
                      [](Runtime &rt, int i) { return submitJob(rt, i, 0); });
        const double mean_job_us = cal.meanJobS * 1e6;
        const double capacity_per_s = cal.capacityPerS;
        std::printf("\nThreaded overload, %d workers (mean job "
                    "%.0fus, capacity %.0f jobs/s):\n",
                    threads, mean_job_us, capacity_per_s);

        struct Agg
        {
            std::vector<double> lat_p99, goodput, qp99, shed_frac;
            double done_sum = 0.0, elapsed_sum = 0.0;
            OverloadRun last;

            /** Pooled over reps: tighter than a median of per-run
             * ratios on a noisy host. */
            double
            pooledGoodput() const
            {
                return done_sum / std::max(1e-9, elapsed_sum);
            }
        };
        Table tt({"rate", "shed", "ddl", "latp99us", "qp99us",
                  "goodput/s", "shed%", "expired"});
        Agg aggs[5];
        for (std::size_t si = 0; si < 5; ++si) {
            const SimScenario &sc = scenarios[si];
            const double rate = sc.util * capacity_per_s;
            const int n_jobs = sc.util < 1.0 ? n_half : n_over;
            // Spin instead of parking, like the calibration runtime:
            // under QueueDelay the regulated queue occasionally runs
            // dry and a parked worker charges its ~ms wake latency to
            // the next latency-class job — a cost the never-empty
            // `none` rows never pay, which skews the comparison.
            RuntimeOptions o = servingRuntimeOptions(threads, true);
            // Threaded targets sit above the host's park/wake noise
            // floor (hundreds of us on a shared CI core): below it
            // the EWMA reads permanently overloaded and the shedder
            // regulates the queue to empty, idling the worker between
            // wakes. The ladder is deliberately flat (1x/2x/4x, not
            // 1x/4x/16x): a 16x batch target would let the batch lane
            // legally carry most of the unprotected collapse.
            // 8x the mean job: at 2x overload the one-in-one-out
            // regulator sheds ~one victim per admission while the EWMA
            // sits above target; a tighter target keeps it above for
            // longer than the backlog justifies (EWMA lag) and pushes
            // the shed fraction past 50%, which directly costs goodput
            // (done ~ (1 - shed_frac) * 2 * capacity * window).
            const double lat_t = std::max(2000.0, 8.0 * mean_job_us);
            o.sched.serving = servingFor(sc.shed, lat_t, 2.0 * lat_t,
                                         4.0 * lat_t, 4 * threads);
            Runtime rt(o);
            Agg &agg = aggs[si];
            double expired = 0.0, qp99 = 0.0;
            for (int rep = 0; rep < args.reps; ++rep) {
                const OverloadRun r = runOverloadStream(
                    rt,
                    poissonArrivalsNs(rate, n_jobs,
                                      repSeed(args.firstSeed, rep)),
                    sc.deadline_frac,
                    static_cast<int64_t>(8.0 * mean_job_us * 1000.0));
                agg.lat_p99.push_back(r.lat_p99_us);
                agg.goodput.push_back(r.goodput);
                agg.qp99.push_back(r.queue_p99_us);
                agg.shed_frac.push_back(r.shed_frac);
                agg.done_sum += static_cast<double>(r.done);
                agg.elapsed_sum += r.elapsed_s;
                agg.last = r;
                expired += static_cast<double>(r.expired) / args.reps;
                qp99 += r.queue_p99_us / args.reps;
                report.addRow(
                    overloadRow("threaded", sc, r.arrival_per_s,
                                threads, repSeed(args.firstSeed, rep),
                                static_cast<std::size_t>(n_jobs),
                                r.elapsed_s, r.p50_us, r.p99_us,
                                r.lat_p99_us, r.queue_p50_us,
                                r.queue_p99_us, r.goodput,
                                r.shed_frac, r.done, r.expired,
                                r.cancelled, r.rejected, r.shed)
                        .set("rep", rep));
            }
            tt.addRow(
                {sc.rate_name, sc.shed,
                 sc.deadline_frac > 0.0 ? "yes" : "no",
                 std::to_string(static_cast<int64_t>(
                     exactQuantile(agg.lat_p99, 0.5))),
                 std::to_string(static_cast<int64_t>(qp99)),
                 std::to_string(static_cast<int64_t>(
                     exactQuantile(agg.goodput, 0.5))),
                 std::to_string(static_cast<int64_t>(
                     exactQuantile(agg.shed_frac, 0.5) * 100.0)),
                 std::to_string(static_cast<int64_t>(expired))});
        }
        tt.print();

        // Medians over reps: scenario order matches `scenarios`.
        const double t_none2x_lat = exactQuantile(aggs[1].lat_p99, 0.5);
        const double t_none2x_good = aggs[1].pooledGoodput();
        const double t_none2x_qp99 = exactQuantile(aggs[1].qp99, 0.5);
        const double t_qd_lat = exactQuantile(aggs[3].lat_p99, 0.5);
        const double t_qd_good = aggs[3].pooledGoodput();
        const double t_qd_qp99 = exactQuantile(aggs[3].qp99, 0.5);
        const double t_ddl_expired =
            static_cast<double>(aggs[4].last.expired);

        // Threaded thresholds are deliberately looser than the sim's
        // (1.25x latency, 0.90 goodput): those exact bounds are
        // enforced byte-deterministically above, while a shared 1-2
        // core CI host swings both wall-clock ratios by +/-40% run to
        // run. These gates catch the catastrophic failure modes — the
        // latency one compares against the *unprotected* 2x run
        // (shed victims come from the lowest nonempty lane, always
        // Batch at 2x, so admission control cannot reduce the Latency
        // class's own-lane M/G/1 queueing on a single-server host)
        // and asserts protection adds no latency tax on the class it
        // protects; the goodput one asserts shedding does not starve
        // the server of work (the empty-queue self-shed bug this
        // guards against read ~0.0 here, so 0.60 keeps an order of
        // magnitude of margin over the true failure mode).
        std::printf("\nThreaded overload gates:\n");
        ok &= gateMax("threaded queue_delay@2x / none@2x latency p99",
                      t_qd_lat / std::max(1e-9, t_none2x_lat), 2.0);
        ok &= gateMin("threaded queue_delay@2x / none@2x goodput",
                      t_qd_good / std::max(1e-9, t_none2x_good), 0.60);
        ok &= gateMin("threaded none@2x / queue_delay@2x queue p99",
                      t_none2x_qp99 / std::max(1e-9, t_qd_qp99), 2.0);
        ok &= gateMin("threaded deadline rows expire jobs",
                      t_ddl_expired, 1.0);
    }

    return finishReport(report, args, ok, "overload");
}
