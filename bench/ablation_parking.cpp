/**
 * @file
 * Parking/push-target ablation grid: {ParkPolicy timer, board} x
 * {PushTarget random, board} on an idle-heavy serial-burst workload and
 * on heat (the PUSHBACK-heavy workload), both engines.
 *
 * The 200us timer wakes every idle worker every period whether or not
 * work exists — on a big machine that is a wakeup storm against a
 * provably dry board. Board parking (PR 3) parks workers per socket and
 * wakes only the sockets whose occupancy words went 0 -> nonzero, with
 * a longer fallback timeout as lost-wakeup insurance; the trade is
 * strictly fewer wakeups against a bounded pickup delay on sockets no
 * edge reaches. Board-guided PUSHBACK spends its attempts only on
 * receivers whose mailbox bit advertises room instead of probing blind.
 *
 *   ./ablation_parking [--scale=0.25] [--cores=32] [--seeds=5]
 *                      [--seed=first] [--threads=2] [--skip-threaded]
 *                      [--json=BENCH_parking.json]
 *
 * The serial-burst dag alternates a long serial strand (every other
 * core idle: the parking regime) with a wide fan of small tasks (the
 * wakeup-latency regime), so both sides of the trade are priced. Each
 * cell runs --seeds independent seeds; the JSON carries one row per
 * seed and the gates compare means. Exits nonzero unless:
 *  1. serialburst: board parking cuts simulated spurious wakeups at
 *     least 2x vs the 200us timer (push target fixed at random),
 *  2. serialburst: board parking does not regress simulated time
 *     (<= 1.02x the timer baseline),
 *  3. heat: board-guided PUSHBACK reduces pushAttempts *per deposited
 *     frame* vs random receivers (park policy fixed at timer). Raw
 *     attempt counts ride the scheduling trajectory and flip sign on
 *     unlucky 2-seed subsets; the per-frame rate isolates the
 *     mechanism (the exact sim board holds it at 1.0 on every seed,
 *     vs ~1.05-1.15 for random probing) and the raw mean still drops
 *     ~12% at the CI seed set.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/dag.h"
#include "support/timing.h"

using namespace numaws;
using namespace numaws::bench;
using namespace numaws::workloads;

namespace {

struct Cell
{
    ParkPolicy park;
    PushTarget push;

    std::string
    name() const
    {
        return std::string(parkPolicyName(park)) + "/"
               + pushTargetName(push);
    }
};

const Cell kCells[] = {
    {ParkPolicy::Timer, PushTarget::Random}, // the PR 2 baseline
    {ParkPolicy::Board, PushTarget::Random},
    {ParkPolicy::Timer, PushTarget::Board},
    {ParkPolicy::Board, PushTarget::Board},
};

/**
 * Idle-heavy fork-join: alternate a long serial strand (all cores but
 * one idle and parked) with a fan of small hinted tasks. The serial
 * strand spans several timer periods, so timer parking must pay
 * repeated dry wakeups per burst while board parking sleeps through to
 * the next occupancy edge (or one fallback period).
 */
sim::ComputationDag
serialBurstDag(int sockets, int bursts, double serial_cycles, int fan,
               double leaf_cycles)
{
    sim::DagBuilder b;
    b.beginRoot();
    for (int i = 0; i < bursts; ++i) {
        b.strand(serial_cycles, {});
        for (int t = 0; t < fan; ++t)
            b.spawnLeaf(/*place=*/t % sockets, leaf_cycles, {});
        b.sync();
    }
    b.end();
    return b.finish();
}

struct Measured
{
    double elapsed = 0.0;
    double spurious = 0.0;
    double pushAttempts = 0.0;
    double pushSuccesses = 0.0;

    /** Wasted-probe rate: attempts per deposited frame. Raw attempt
     * counts vary with the scheduling trajectory (more deposits can
     * mean more attempts even when each is cheaper), so the per-frame
     * rate is the seed-robust form of the PUSHBACK gate — the exact
     * board holds it at 1.0 on every seed. */
    double
    attemptsPerDeposit() const
    {
        return pushAttempts / std::max(1.0, pushSuccesses);
    }
};

sim::SimConfig
configOf(const Cell &cell, uint64_t seed)
{
    sim::SimConfig c = sim::SimConfig::adaptiveNumaWs();
    // Enable the parking model: park after a handful of fruitless
    // probes, the regime Runtime::mainLoop enters after its spin budget.
    // Every cell sets both policy axes explicitly, so the grid keeps
    // measuring timer/random baselines against the (now default) board
    // protocols.
    c.modelParking = true;
    c.sched.parkSpinFailures = 4;
    c.sched.parkPolicy = cell.park;
    c.sched.pushTarget = cell.push;
    c.seed = seed;
    return c;
}

void
threadedRows(JsonReport &report, double scale, int workers)
{
    for (const Cell &cell : kCells) {
        RuntimeOptions o;
        o.numWorkers = workers;
        o.numPlaces = workers >= 4 ? 4 : (workers >= 2 ? 2 : 1);
        o.sched.parkPolicy = cell.park;
        o.sched.pushTarget = cell.push;
        Runtime rt(o);

        const double seconds = runThreadedFibHeat(rt, scale);
        const RuntimeStats stats = rt.stats();
        JsonRow row;
        row.set("engine", "threaded")
            .set("workload", "fib+heat")
            .set("park", parkPolicyName(cell.park))
            .set("push", pushTargetName(cell.push))
            .set("workers", workers)
            .set("elapsed_s", seconds)
            .set("parks", stats.counters.parks)
            .set("park_wakes", stats.counters.parkWakes)
            .set("park_timeouts", stats.counters.parkTimeouts)
            // Same key as the sim rows so bench_trajectory.py tracks
            // the threaded spurious-wake history too.
            .set("spurious_wakeups", stats.counters.spuriousWakes)
            .set("push_attempts", stats.counters.pushbackAttempts)
            .set("push_successes", stats.counters.pushbackSuccesses);
        report.addRow(row);
        std::printf("  threaded %-13s %0.3fs  parks %llu  wakes %llu  "
                    "spurious %llu  pushAttempts %llu\n",
                    cell.name().c_str(), seconds,
                    static_cast<unsigned long long>(stats.counters.parks),
                    static_cast<unsigned long long>(
                        stats.counters.parkWakes),
                    static_cast<unsigned long long>(
                        stats.counters.spuriousWakes),
                    static_cast<unsigned long long>(
                        stats.counters.pushbackAttempts));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const BenchArgs args(cli);
    const std::string json_path =
        cli.getString("json", "BENCH_parking.json");
    const uint64_t first_seed =
        static_cast<uint64_t>(cli.getInt("seed", 0x5eed));
    const int num_seeds =
        std::max(1, static_cast<int>(cli.getInt("seeds", 5)));
    const int threads = static_cast<int>(cli.getInt("threads", 2));
    const bool skip_threaded = cli.getBool("skip-threaded", false);
    const int places = socketsFor(args.cores);

    const int bursts = args.scale >= 1.0 ? 32 : 12;
    HeatParams heat;
    heat.nx = args.scale >= 1.0 ? 2048
                                : (args.scale >= 0.5 ? 1024 : 512);
    heat.ny = heat.nx;
    heat.steps = args.scale >= 1.0 ? 16 : 8;

    struct Case
    {
        std::string name;
        sim::ComputationDag dag;
    };
    const Case cases[] = {
        {"serialburst",
         serialBurstDag(places, bursts, /*serial_cycles=*/2.2e6,
                        /*fan=*/64, /*leaf_cycles=*/20000.0)},
        {"heat", heatDag(heat, places, Placement::Partitioned, true)},
    };

    JsonReport report;
    // [case][park][push] means over seeds.
    Measured mean[2][2][2];
    for (std::size_t ci = 0; ci < 2; ++ci) {
        const Case &sc = cases[ci];
        if (!args.only.empty() && args.only != sc.name)
            continue;
        std::printf("\nSimulated %s, %d cores, %d seeds:\n",
                    sc.name.c_str(), args.cores, num_seeds);
        Table t({"park/push", "T(mean)", "parks", "wakeups", "spurious",
                 "boardwakes", "pushAtt"});
        for (const Cell &cell : kCells) {
            Measured m;
            double parks = 0.0, wakeups = 0.0, board_wakes = 0.0;
            for (int s = 0; s < num_seeds; ++s) {
                const uint64_t seed = first_seed + 7919ULL * s;
                const sim::SimResult r = sim::simulatePacked(
                    sc.dag, args.cores, configOf(cell, seed));
                JsonRow j;
                j.set("engine", "sim")
                    .set("workload", sc.name)
                    .set("park", parkPolicyName(cell.park))
                    .set("push", pushTargetName(cell.push))
                    .set("cores", args.cores)
                    .set("seed", seed)
                    .set("elapsed_s", r.elapsedSeconds)
                    .set("work_s", r.workSeconds)
                    .set("sched_s", r.schedSeconds)
                    .set("idle_s", r.idleSeconds)
                    .set("parks", r.counters.parks)
                    .set("wakeups", r.counters.wakeups)
                    .set("board_wakes", r.counters.boardWakes)
                    .set("spurious_wakeups",
                         r.counters.spuriousWakeups)
                    .set("push_attempts", r.counters.pushAttempts)
                    .set("push_successes", r.counters.pushSuccesses)
                    .set("steal_attempts", r.counters.stealAttempts);
                report.addRow(j);
                m.elapsed += r.elapsedSeconds / num_seeds;
                m.spurious += static_cast<double>(
                                  r.counters.spuriousWakeups)
                              / num_seeds;
                m.pushAttempts +=
                    static_cast<double>(r.counters.pushAttempts)
                    / num_seeds;
                m.pushSuccesses +=
                    static_cast<double>(r.counters.pushSuccesses)
                    / num_seeds;
                parks += static_cast<double>(r.counters.parks)
                         / num_seeds;
                wakeups += static_cast<double>(r.counters.wakeups)
                           / num_seeds;
                board_wakes +=
                    static_cast<double>(r.counters.boardWakes)
                    / num_seeds;
            }
            mean[ci][cell.park == ParkPolicy::Board]
                [cell.push == PushTarget::Board] = m;
            t.addRow({cell.name(), Table::fmtSeconds(m.elapsed),
                      std::to_string(static_cast<uint64_t>(parks)),
                      std::to_string(static_cast<uint64_t>(wakeups)),
                      std::to_string(
                          static_cast<uint64_t>(m.spurious)),
                      std::to_string(
                          static_cast<uint64_t>(board_wakes)),
                      std::to_string(
                          static_cast<uint64_t>(m.pushAttempts))});
        }
        t.print();
    }

    if (!skip_threaded && args.only.empty()) {
        std::printf("\nThreaded runtime, %d workers:\n", threads);
        threadedRows(report, args.scale, threads);
    }

    report.writeFile(json_path);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(),
                json_path.c_str());

    if (!args.only.empty())
        return 0; // partial runs skip the cross-cell gates

    // Acceptance gates (file header). Indices: [case][park][push] with
    // 1 == board on either axis; serialburst is case 0, heat case 1.
    bool ok = true;
    std::printf("\n");
    const Measured &sb_timer = mean[0][0][0];
    const Measured &sb_board = mean[0][1][0];
    ok &= gateMax("serialburst board/timer spurious wakeups",
                  sb_board.spurious
                      / std::max(1.0, sb_timer.spurious),
                  0.5);
    ok &= gateMax("serialburst board/timer elapsed",
                  sb_board.elapsed / sb_timer.elapsed, 1.02);
    ok &= gateMax("heat board/random pushAttempts per deposit",
                  mean[1][0][1].attemptsPerDeposit()
                      / mean[1][0][0].attemptsPerDeposit(),
                  0.98);
    if (!ok) {
        std::printf("FAIL: parking/push-target acceptance gate "
                    "violated\n");
        return 1;
    }
    return 0;
}
