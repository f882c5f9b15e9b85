/**
 * @file
 * Victim-policy ablation grid: {flat, occupancy+affinity} on the two
 * workloads that pulled the first hierarchical search in opposite
 * directions.
 *
 * PR 1 recorded the tension this grid measures: the blind distance
 * ladder cut matmul-layout steal probes ~16% but cost ~+30% simulated
 * time on heat, whose work travels through mailboxes on other sockets —
 * the ladder kept probing drained local deques. The informed policy
 * consults the OccupancyBoard and the thief's data-region homes, so the
 * ladder skips provably-dry levels and lands on the mailbox-fed sockets
 * directly. A second row group,
 * shipped-default, runs the configuration that ships (SimConfig{},
 * whose informed search is on by default) against the same config
 * with flat search on all nine paper dags.
 *
 *   ./ablation_victim_policy [--scale=0.25] [--cores=32] [--seeds=5]
 *                            [--seed=first] [--threads=2]
 *                            [--skip-threaded] [--skip-sim] [--json=...]
 *
 * Steal dynamics near heat's per-step barriers are seed sensitive, so
 * each (workload, policy) cell runs --seeds independent seeds; the JSON
 * carries one row per seed (with core-count/sha provenance) and the
 * gates compare *means*. The grid is also run on the threaded runtime
 * with --threads workers (fib + heat, engine="threaded" rows, ungated:
 * wall times mean nothing on the 1-core containers, but the steal/skip
 * counters do, and the CI threaded-bench job accumulates them into a
 * real-thread perf trajectory). Exits nonzero unless all acceptance
 * gates hold (simulator rows only):
 *  1. heat: occupancy+affinity <= flat-search simulated time
 *     (the PR 1 regression is erased),
 *  2. matmul_layout: occupancy+affinity steal probes stay >= 10% below
 *     flat search (the PR 1 win is kept),
 *  3. matmul_layout: occupancy+affinity <= flat-search simulated time
 *     (the informed search does not lose on the paper's locality
 *     showcase),
 *  4. shipped-default: the geomean over (dag, seed) cells of
 *     SimConfig{} / flat-search SimConfig{} simulated time <= 1.00
 *     (the shipped default is the faster search on the paper dags).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "support/timing.h"

using namespace numaws;
using namespace numaws::bench;
using namespace numaws::workloads;

namespace {

struct PolicyRow
{
    const char *name; ///< JSON "policy" field
    bool hierarchical;
};

// Flat search is the blind baseline; hierarchical steals are the
// informed (occupancy+affinity) ladder.
enum RowIndex
{
    kFlat,
    kInformed,
    kNumRows
};
const PolicyRow kRows[kNumRows] = {
    {"flat", false},
    {"occupancy+affinity", true},
};

struct Measured
{
    double elapsed = 0.0;
    uint64_t attempts = 0;
};

sim::SimConfig
configOf(const PolicyRow &row, uint64_t seed)
{
    sim::SimConfig c = sim::SimConfig::numaWs();
    c.sched.hierarchicalSteals = row.hierarchical;
    c.seed = seed;
    return c;
}

/** Geomean elapsed ratio of the shipped default over flat search. */
struct ShippedRatio
{
    double logSum = 0.0;
    int cells = 0;
    int won = 0; ///< cells where the shipped default is strictly faster

    double geomean() const { return std::exp(logSum / cells); }
};

JsonRow
simRow(const std::string &workload, const char *policy, int cores,
       uint64_t seed, const sim::SimResult &r)
{
    JsonRow j;
    j.set("engine", "sim")
        .set("workload", workload)
        .set("policy", policy)
        .set("escalation", "fixed")
        .set("cores", cores)
        .set("seed", seed)
        .set("elapsed_s", r.elapsedSeconds)
        .set("work_s", r.workSeconds)
        .set("sched_s", r.schedSeconds)
        .set("idle_s", r.idleSeconds)
        .set("steal_attempts", r.counters.stealAttempts)
        .set("steals", r.counters.steals)
        .set("mailbox_steals", r.counters.mailboxSteals)
        .set("level_skips", r.counters.levelSkips)
        .set("board_dry_polls", r.counters.boardDryPolls)
        .set("push_successes", r.counters.pushSuccesses)
        .set("remote_fraction", r.memory.remoteFraction());
    return j;
}

/** The shipped-default group: SimConfig{} against SimConfig{} with flat
 * search on every paper dag (4-socket, partitioned, hinted), one row
 * per (dag, seed, side). */
ShippedRatio
shippedRows(JsonReport &report, const BenchArgs &args, uint64_t first_seed,
            int num_seeds)
{
    ShippedRatio ratio;
    std::printf("\nShipped default vs flat search, %d cores, %d seeds:\n",
                args.cores, num_seeds);
    Table t({"workload", "T(shipped) ms", "T(flat) ms", "ratio", "won"});
    for (const SimWorkload &wl : simWorkloads(args.scale)) {
        if (!args.selected(wl))
            continue;
        const sim::ComputationDag dag = wl.build(
            socketsFor(args.cores), Placement::Partitioned, true);
        double shipped_mean = 0.0, flat_mean = 0.0;
        int won = 0;
        for (int s = 0; s < num_seeds; ++s) {
            sim::SimConfig shipped;
            shipped.seed = first_seed + 7919ULL * s;
            sim::SimConfig flat = shipped;
            flat.sched.hierarchicalSteals = false;
            const sim::SimResult rs =
                sim::simulatePacked(dag, args.cores, shipped);
            const sim::SimResult rf =
                sim::simulatePacked(dag, args.cores, flat);
            report.addRow(simRow(wl.name, "shipped-default", args.cores,
                                 shipped.seed, rs));
            report.addRow(simRow(wl.name, "shipped-flat", args.cores,
                                 shipped.seed, rf));
            shipped_mean += rs.elapsedSeconds / num_seeds;
            flat_mean += rf.elapsedSeconds / num_seeds;
            ratio.logSum += std::log(rs.elapsedSeconds / rf.elapsedSeconds);
            ++ratio.cells;
            won += rs.elapsedSeconds < rf.elapsedSeconds ? 1 : 0;
        }
        ratio.won += won;
        t.addRow({wl.name, Table::fmtSeconds(shipped_mean * 1e3),
                  Table::fmtSeconds(flat_mean * 1e3),
                  Table::fmtRatio(shipped_mean / flat_mean),
                  std::to_string(won) + "/" + std::to_string(num_seeds)});
    }
    t.print();
    return ratio;
}

/** The same policy grid on the threaded runtime (fib + heat), so the
 * CI threaded-bench job accumulates real-thread counters run over run.
 * Ungated: the simulator carries the acceptance gates. */
void
threadedRows(JsonReport &report, double scale, int workers)
{
    for (const PolicyRow &row : kRows) {
        RuntimeOptions o;
        o.numWorkers = workers;
        o.numPlaces = workers >= 4 ? 4 : (workers >= 2 ? 2 : 1);
        o.sched.hierarchicalSteals = row.hierarchical;
        Runtime rt(o);

        const double seconds = runThreadedFibHeat(rt, scale);
        const RuntimeStats stats = rt.stats();
        JsonRow j;
        j.set("engine", "threaded")
            .set("workload", "fib+heat")
            .set("policy", row.name)
            .set("escalation", "fixed")
            .set("workers", workers)
            .set("elapsed_s", seconds)
            .set("steal_attempts", stats.counters.stealAttempts)
            .set("steals", stats.counters.steals)
            .set("mailbox_steals", stats.counters.mailboxTakes)
            .set("level_skips", stats.counters.levelSkips)
            .set("board_dry_polls", stats.counters.dryPolls)
            .set("push_successes", stats.counters.pushbackSuccesses);
        report.addRow(j);
        std::printf("  threaded %-32s %0.3fs  attempts %llu  steals "
                    "%llu  skips %llu  dryPolls %llu\n",
                    row.name, seconds,
                    static_cast<unsigned long long>(
                        stats.counters.stealAttempts),
                    static_cast<unsigned long long>(
                        stats.counters.steals),
                    static_cast<unsigned long long>(
                        stats.counters.levelSkips),
                    static_cast<unsigned long long>(
                        stats.counters.dryPolls));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const BenchArgs args(cli);
    const std::string json_path =
        cli.getString("json", "BENCH_victim_policy.json");
    const uint64_t first_seed =
        static_cast<uint64_t>(cli.getInt("seed", 0x5eed));
    const int num_seeds =
        std::max(1, static_cast<int>(cli.getInt("seeds", 5)));
    const int threads = static_cast<int>(cli.getInt("threads", 2));
    const bool skip_threaded = cli.getBool("skip-threaded", false);
    // Threaded-only mode: skip the simulated grid and its gates (CI's
    // threaded-bench job uses this — bench-smoke already enforces the
    // sim gates, so re-simulating there would double the wall clock
    // for identical rows).
    const bool skip_sim = cli.getBool("skip-sim", false);
    const int places = socketsFor(args.cores);

    MatmulParams mm;
    mm.n = args.scale >= 1.0 ? 1024 : (args.scale >= 0.5 ? 512 : 256);
    mm.block = 64;
    mm.zLayout = true;

    HeatParams heat;
    heat.nx = args.scale >= 1.0 ? 2048 : (args.scale >= 0.5 ? 1024 : 512);
    heat.ny = heat.nx;
    heat.steps = args.scale >= 1.0 ? 16 : 8;

    struct Case
    {
        std::string name;
        sim::ComputationDag dag;
    };
    const Case cases[] = {
        {"heat", heatDag(heat, places, Placement::Partitioned, true)},
        {"matmul_layout",
         matmulDag(mm, places, Placement::Partitioned, true)},
    };

    JsonReport report;
    Measured means[2][kNumRows]; // per case, per policy row
    for (std::size_t ci = 0; ci < 2 && !skip_sim; ++ci) {
        const Case &sc = cases[ci];
        if (!args.only.empty() && args.only != sc.name)
            continue;
        std::printf("\nSimulated %s, %d cores, %d seeds:\n",
                    sc.name.c_str(), args.cores, num_seeds);
        Table t({"policy", "T(mean)", "idle", "attempts", "steals",
                 "skips", "remote%"});
        for (int ri = 0; ri < kNumRows; ++ri) {
            const PolicyRow &row = kRows[ri];
            Measured &mean = means[ci][ri];
            double idle = 0.0, remote = 0.0;
            uint64_t steals = 0, skips = 0;
            for (int s = 0; s < num_seeds; ++s) {
                const uint64_t seed = first_seed + 7919ULL * s;
                const sim::SimResult r = sim::simulatePacked(
                    sc.dag, args.cores, configOf(row, seed));
                report.addRow(
                    simRow(sc.name, row.name, args.cores, seed, r));
                mean.elapsed += r.elapsedSeconds / num_seeds;
                mean.attempts += r.counters.stealAttempts;
                idle += r.idleSeconds / num_seeds;
                remote += r.memory.remoteFraction() / num_seeds;
                steals += r.counters.steals;
                skips += r.counters.levelSkips;
            }
            mean.attempts /= static_cast<uint64_t>(num_seeds);
            t.addRow({row.name, Table::fmtSeconds(mean.elapsed),
                      Table::fmtSeconds(idle),
                      std::to_string(mean.attempts),
                      std::to_string(steals
                                     / static_cast<uint64_t>(num_seeds)),
                      std::to_string(skips
                                     / static_cast<uint64_t>(num_seeds)),
                      Table::fmtRatio(remote)});
        }
        t.print();
    }
    const ShippedRatio shipped =
        skip_sim ? ShippedRatio{}
                 : shippedRows(report, args, first_seed, num_seeds);

    if (!skip_threaded && args.only.empty()) {
        std::printf("\nThreaded runtime, %d workers:\n", threads);
        threadedRows(report, args.scale, threads);
    }

    report.writeFile(json_path);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(),
                json_path.c_str());

    if (!args.only.empty() || skip_sim)
        return 0; // partial/threaded-only runs skip the sim gates

    // Acceptance gates (see file header). Ratios vs. flat search use a
    // 0.5% tolerance for cost-model noise; the probe gate is absolute.
    bool ok = true;
    std::printf("\n");
    const Measured *heat_m = means[0];
    const Measured *matmul_m = means[1];
    ok &= gateMax("heat occ+affinity / flat elapsed",
                  heat_m[kInformed].elapsed / heat_m[kFlat].elapsed,
                  1.005);
    ok &= gateMax("matmul occ+affinity / flat steal probes",
                  static_cast<double>(matmul_m[kInformed].attempts)
                      / static_cast<double>(matmul_m[kFlat].attempts),
                  0.90);
    ok &= gateMax("matmul_layout occ+affinity / flat elapsed",
                  matmul_m[kInformed].elapsed / matmul_m[kFlat].elapsed,
                  1.005);
    std::printf("  shipped default faster than flat in %d of %d cells\n",
                shipped.won, shipped.cells);
    ok &= gateMax("shipped-default / flat elapsed (geomean)",
                  shipped.geomean(), 1.00);
    if (!ok) {
        std::printf("FAIL: victim-policy acceptance gate violated\n");
        return 1;
    }
    return 0;
}
