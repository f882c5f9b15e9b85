/**
 * @file
 * Data-plane ablation: does the NUMA data plane (per-worker NumaHeap +
 * PartedVec with automatic spawn-time affinity) earn its keep over
 * plain global-heap allocation?
 *
 *   ./ablation_dataplane [--allocs=4096] [--reps=5] [--warmup=2]
 *                        [--skip-threaded]
 *                        [--json=BENCH_dataplane.json]
 *
 * Sim rows (always emitted, byte-deterministic): heat at 32 cores under
 * the full NUMA-WS scheduler, once with partitioned regions + hints —
 * the placement PartedVec produces in the threaded engine — and once
 * first-touch without hints, the global-heap baseline. Each dag is
 * simulated twice and the rows must be byte-identical.
 *
 * Threaded rows (skippable on 1-core CI containers with
 * --skip-threaded):
 *  - alloc: a 1-worker loop of numa::allocate(256)/touch/deallocate
 *    under DataHeapPolicy::Heap (plain malloc path) and ::Pooled
 *    (per-worker heap), repetitions interleaved so host noise drifts
 *    into both sides equally;
 *  - heat: 2 workers / 2 places, flat grids + chunkPlace hints versus
 *    PartedVec grids where placement falls out of the shards'
 *    registered homes, both validated bit-for-bit against heatSerial;
 *  - a DataHeapPolicy::Heap PartedVec compat row (measured +
 *    correctness only — under Heap the container is plain memory).
 *
 * Statistics: min-of-reps, as in ablation_spawn (scheduler
 * interference only ever adds time).
 *
 * Exits nonzero unless:
 *  1. sim parted/global elapsed <= 1.00 (partitioning + hints never
 *     lose under the NUMA-WS scheduler);
 *  2. repeated sim rows are byte-identical;
 * and, unless --skip-threaded:
 *  3. pooled user-allocation throughput >= 1.20x the heap baseline
 *     (min ns/alloc, heap/pooled >= 1.20);
 *  4. the pooled heap actually absorbed the traffic
 *     (dataBytesPooled covers >= 0.95 of the bytes requested);
 *  5. parted heat within 1.05x of the flat hinted grid in the best
 *     back-to-back rep pair — a catastrophe floor, not a win gate: on
 *     the shapes CI can afford, both run the same sweep and differ
 *     only in container overhead, and the paired-min statistic is the
 *     one that survives shared-runner noise (see the gate's comment).
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "support/timing.h"

using namespace numaws;
using namespace numaws::bench;
using workloads::HeatParams;
using workloads::Placement;

namespace {

constexpr int kSimCores = 32;
constexpr std::size_t kAllocBytes = 256;

struct Measured
{
    double meanSeconds = 0.0;
    double minSeconds = 0.0;
    RuntimeStats stats;

    void
    finish(std::vector<double> &rep_seconds)
    {
        for (const double s : rep_seconds)
            meanSeconds += s / static_cast<double>(rep_seconds.size());
        minSeconds =
            *std::min_element(rep_seconds.begin(), rep_seconds.end());
    }

    double
    minNsPer(int items) const
    {
        return minSeconds * 1e9 / items;
    }
};

RuntimeOptions
optionsFor(int workers, int places, DataHeapPolicy heap)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.numPlaces = places;
    o.dataHeap = heap;
    return o;
}

/** One alloc/touch/free repetition on the calling runtime's root
 * worker. The touch defeats dead-allocation elimination and is the
 * first-write a real consumer would do. */
double
allocRep(Runtime &rt, int allocs)
{
    WallTimer t;
    rt.run([&] {
        for (int i = 0; i < allocs; ++i) {
            void *p = numa::allocate(kAllocBytes);
            static_cast<volatile char *>(p)[0] = static_cast<char>(i);
            numa::deallocate(p);
        }
    });
    return t.seconds();
}

/** Sim row for one heat dag; no host stamps so rows byte-compare. */
JsonRow
simHeatRow(const HeatParams &p, Placement placement, bool hints,
           const char *container)
{
    const int sockets = socketsFor(kSimCores);
    const auto dag = workloads::heatDag(p, sockets, placement, hints);
    const sim::SimResult r =
        sim::simulatePacked(dag, kSimCores, sim::SimConfig::numaWs());
    JsonRow row;
    row.set("engine", "sim")
        .set("workload", "heat")
        .set("heap", "none")
        .set("container", container)
        .set("cores", kSimCores)
        .set("elapsed_s", r.elapsedSeconds)
        .set("work_s", r.workSeconds)
        .set("sched_s", r.schedSeconds);
    return row;
}

JsonRow
threadedRow(const char *workload, DataHeapPolicy heap,
            const char *container, int workers, int reps,
            const Measured &m)
{
    const WorkerCounters &c = m.stats.counters;
    JsonRow row;
    row.set("engine", "threaded")
        .set("workload", workload)
        .set("heap", dataHeapPolicyName(heap))
        .set("container", container)
        .set("workers", workers)
        .set("reps", reps)
        .set("elapsed_s", m.minSeconds)
        .set("elapsed_mean_s", m.meanSeconds)
        .set("data_bytes_pooled", c.dataBytesPooled)
        .set("data_remote_frees", c.dataRemoteFrees)
        .set("data_slab_bytes", c.dataSlabBytes)
        .set("steals", c.steals);
    return row;
}

/** Fill both grids with the deterministic initial condition the
 * correctness check replays serially. */
template <typename Grid>
void
initHeat(Grid &g, const HeatParams &p)
{
    for (int64_t i = 0; i < p.nx; ++i)
        for (int64_t j = 0; j < p.ny; ++j)
            g[static_cast<std::size_t>(i * p.ny + j)] =
                (i == 0 || i == p.nx - 1 || j == 0 || j == p.ny - 1)
                    ? 1.0
                    : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const int allocs =
        std::max(1, static_cast<int>(cli.getInt("allocs", 4096)));
    const int reps = std::max(1, static_cast<int>(cli.getInt("reps", 5)));
    const int warmup =
        std::max(0, static_cast<int>(cli.getInt("warmup", 2)));
    const bool skip_threaded = cli.getBool("skip-threaded", false);
    const std::string json_path =
        cli.getString("json", "BENCH_dataplane.json");

    JsonReport report;
    bool ok = true;
    std::printf("data-plane ablation (%d allocs, %d reps)\n\n", allocs,
                reps);

    // ------------------------------------------------------------------
    // Sim: partitioned + hints (what PartedVec produces) vs first-touch
    // global heap, 32 cores, full NUMA-WS scheduler. Byte-deterministic.
    // ------------------------------------------------------------------
    // 512x512: the per-socket quarter fits the modeled LLC, so the
    // partitioned grid's step-to-step reuse is visible — the regime the
    // paper's heat argument (and this gate) is about. At 1024x1024 the
    // per-step working set blows past the LLC model and placement stops
    // mattering.
    HeatParams sim_p;
    sim_p.nx = 512;
    sim_p.ny = 512;
    sim_p.steps = 16;
    const JsonRow parted_row =
        simHeatRow(sim_p, Placement::Partitioned, true, "parted");
    const JsonRow global_row =
        simHeatRow(sim_p, Placement::FirstTouch, false, "global");
    const JsonRow parted_again =
        simHeatRow(sim_p, Placement::Partitioned, true, "parted");
    const JsonRow global_again =
        simHeatRow(sim_p, Placement::FirstTouch, false, "global");
    report.addRow(parted_row);
    report.addRow(global_row);

    const double parted_s =
        sim::simulatePacked(
            workloads::heatDag(sim_p, socketsFor(kSimCores),
                               Placement::Partitioned, true),
            kSimCores, sim::SimConfig::numaWs())
            .elapsedSeconds;
    const double global_s =
        sim::simulatePacked(
            workloads::heatDag(sim_p, socketsFor(kSimCores),
                               Placement::FirstTouch, false),
            kSimCores, sim::SimConfig::numaWs())
            .elapsedSeconds;
    std::printf("  sim heat 32c: parted %.6fs  global %.6fs  "
                "ratio %.4f\n\n",
                parted_s, global_s, parted_s / global_s);

    ok &= gateMax("sim parted/global elapsed", parted_s / global_s,
                  1.00);
    const bool deterministic =
        parted_row.str() == parted_again.str()
        && global_row.str() == global_again.str();
    std::printf("  gate %-46s %s\n", "sim rows byte-deterministic",
                deterministic ? "ok" : "FAIL");
    ok &= deterministic;

    if (skip_threaded) {
        report.writeFile(json_path);
        std::printf("\nwrote %zu rows to %s (threaded rows skipped)\n",
                    report.numRows(), json_path.c_str());
        return ok ? 0 : 1;
    }

    // ------------------------------------------------------------------
    // Threaded: user-allocation throughput, heap vs pooled, reps
    // interleaved.
    // ------------------------------------------------------------------
    Runtime rt_heap(optionsFor(1, 1, DataHeapPolicy::Heap));
    Runtime rt_pool(optionsFor(1, 1, DataHeapPolicy::Pooled));
    for (int i = 0; i < warmup; ++i) {
        allocRep(rt_heap, allocs);
        allocRep(rt_pool, allocs);
    }
    rt_heap.resetStats();
    rt_pool.resetStats();
    Measured heap, pooled;
    std::vector<double> heap_seconds, pool_seconds;
    for (int i = 0; i < reps; ++i) {
        heap_seconds.push_back(allocRep(rt_heap, allocs));
        pool_seconds.push_back(allocRep(rt_pool, allocs));
    }
    heap.finish(heap_seconds);
    pooled.finish(pool_seconds);
    heap.stats = rt_heap.stats();
    pooled.stats = rt_pool.stats();

    {
        JsonRow row = threadedRow("alloc", DataHeapPolicy::Heap, "none",
                                  1, reps, heap);
        row.set("alloc_ns", heap.minNsPer(allocs));
        report.addRow(row);
    }
    {
        JsonRow row = threadedRow("alloc", DataHeapPolicy::Pooled,
                                  "none", 1, reps, pooled);
        row.set("alloc_ns", pooled.minNsPer(allocs));
        report.addRow(row);
    }
    std::printf("\n  alloc(%zuB) heap   %8.1f ns/alloc (min)\n",
                kAllocBytes, heap.minNsPer(allocs));
    std::printf("  alloc(%zuB) pooled %8.1f ns/alloc (min)   "
                "pooled KiB %llu  slab KiB %llu\n",
                kAllocBytes, pooled.minNsPer(allocs),
                static_cast<unsigned long long>(
                    pooled.stats.counters.dataBytesPooled >> 10),
                static_cast<unsigned long long>(
                    pooled.stats.counters.dataSlabBytes >> 10));

    ok &= gateMin("pooled/heap alloc throughput (min-rep)",
                  heap.minNsPer(allocs) / pooled.minNsPer(allocs), 1.20);
    const double coverage =
        static_cast<double>(pooled.stats.counters.dataBytesPooled)
        / (static_cast<double>(allocs) * kAllocBytes * reps);
    ok &= gateMin("pooled byte coverage of requested", coverage, 0.95);

    // ------------------------------------------------------------------
    // Threaded heat: flat hinted grids vs PartedVec, 2 workers/places,
    // reps interleaved, results checked bit-for-bit against serial.
    // ------------------------------------------------------------------
    // 512x512, 16 steps (even: the result lands back in grid a): big
    // enough that the ~4 ms sweep swamps per-step spawn overhead and
    // host noise — at 256x256 the min-rep ratio flaps past the 1.05
    // floor on a shared runner (calibrated spread there ~±8%; here
    // ~±2%).
    HeatParams hp;
    hp.nx = 512;
    hp.ny = 512;
    hp.steps = 16;
    const std::size_t cells =
        static_cast<std::size_t>(hp.nx) * static_cast<std::size_t>(hp.ny);
    std::vector<double> ref_a(cells), ref_b(cells);
    initHeat(ref_a, hp);
    initHeat(ref_b, hp);
    workloads::heatSerial(ref_a.data(), ref_b.data(), hp);

    Runtime rt_heat(optionsFor(2, 2, DataHeapPolicy::Pooled));
    std::vector<double> flat_a(cells), flat_b(cells);
    PartedVec<double> part_a(rt_heat, cells,
                             static_cast<std::size_t>(hp.ny));
    PartedVec<double> part_b(rt_heat, cells,
                             static_cast<std::size_t>(hp.ny));

    auto flat_rep = [&] {
        initHeat(flat_a, hp);
        initHeat(flat_b, hp);
        WallTimer t;
        workloads::heatParallel(rt_heat, flat_a.data(), flat_b.data(),
                                hp, true);
        return t.seconds();
    };
    auto parted_rep = [&] {
        initHeat(part_a, hp);
        initHeat(part_b, hp);
        WallTimer t;
        workloads::heatParallel(rt_heat, part_a, part_b, hp);
        return t.seconds();
    };

    for (int i = 0; i < warmup; ++i) {
        flat_rep();
        parted_rep();
    }
    rt_heat.resetStats();
    Measured flat, parted;
    std::vector<double> flat_seconds, parted_seconds;
    double best_pair = 1e300;
    for (int i = 0; i < reps; ++i) {
        flat_seconds.push_back(flat_rep());
        parted_seconds.push_back(parted_rep());
        // Paired ratio: this rep's parted against the flat run that
        // just preceded it, so a host-noise spike hits both sides of
        // the quotient. The min over pairs is the gate statistic —
        // min-vs-min across independently noisy sets flaps ±10% at
        // millisecond scale, while one clean back-to-back pair is
        // enough to show the container is not catastrophically slow
        // (a real regression inflates every pair).
        best_pair =
            std::min(best_pair, parted_seconds.back()
                                    / flat_seconds.back());
    }
    flat.finish(flat_seconds);
    parted.finish(parted_seconds);
    flat.stats = parted.stats = rt_heat.stats();

    bool exact = true;
    for (std::size_t i = 0; i < cells; ++i)
        exact = exact && flat_a[i] == ref_a[i] && part_a[i] == ref_a[i];
    std::printf("\n  heat %lldx%lld flat   %.6fs (min)\n",
                static_cast<long long>(hp.nx),
                static_cast<long long>(hp.ny), flat.minSeconds);
    std::printf("  heat %lldx%lld parted %.6fs (min)   shards %d\n",
                static_cast<long long>(hp.nx),
                static_cast<long long>(hp.ny), parted.minSeconds,
                part_a.numShards());
    std::printf("  gate %-46s %s\n",
                "heat results bit-identical to serial",
                exact ? "ok" : "FAIL");
    ok &= exact;
    ok &= gateMax("parted/flat heat elapsed (best pair)", best_pair,
                  1.05);

    report.addRow(threadedRow("heat", DataHeapPolicy::Pooled, "global",
                              2, reps, flat));
    report.addRow(threadedRow("heat", DataHeapPolicy::Pooled, "parted",
                              2, reps, parted));

    // ------------------------------------------------------------------
    // Ablation compat: PartedVec under DataHeapPolicy::Heap is plain
    // memory — measured and checked, never gated on speed.
    // ------------------------------------------------------------------
    {
        Runtime rt_plain(optionsFor(2, 2, DataHeapPolicy::Heap));
        PartedVec<double> pa(rt_plain, cells,
                             static_cast<std::size_t>(hp.ny));
        PartedVec<double> pb(rt_plain, cells,
                             static_cast<std::size_t>(hp.ny));
        Measured m;
        std::vector<double> secs;
        for (int i = 0; i < reps; ++i) {
            initHeat(pa, hp);
            initHeat(pb, hp);
            WallTimer t;
            workloads::heatParallel(rt_plain, pa, pb, hp);
            secs.push_back(t.seconds());
        }
        m.finish(secs);
        m.stats = rt_plain.stats();
        bool plain_exact = true;
        for (std::size_t i = 0; i < cells; ++i)
            plain_exact = plain_exact && pa[i] == ref_a[i];
        std::printf("  gate %-46s %s\n",
                    "heap-policy parted heat bit-identical",
                    plain_exact ? "ok" : "FAIL");
        ok &= plain_exact;
        report.addRow(threadedRow("heat", DataHeapPolicy::Heap, "parted",
                                  2, reps, m));
    }

    report.writeFile(json_path);
    std::printf("\nwrote %zu rows to %s\n", report.numRows(),
                json_path.c_str());
    if (!ok) {
        std::printf("FAIL: data-plane acceptance gate violated\n");
        return 1;
    }
    return 0;
}
