/**
 * @file
 * Tests for the hierarchical victim search (escalation ladder, informed
 * occupancy+affinity sampling) as wired into both engines, including the
 * load-balance-first invariant that a starving worker steals against the
 * place hint rather than idling.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mem/numa_arena.h"
#include "mem/page_map.h"
#include "runtime/api.h"
#include "sim/dag.h"
#include "sim/scheduler.h"
#include "workloads/workloads.h"

namespace numaws {
namespace {

// ---------------------------------------------------------------------
// Simulator: the starving-worker invariant
// ---------------------------------------------------------------------

/**
 * All parallel work hinted at place 0 of a two-socket machine. Sixteen
 * mid frames fan out eight leaves each; socket 0 alone would need
 * work/8 cycles, so finishing well under that bound proves socket-1
 * cores stole against the hint instead of idling.
 */
sim::ComputationDag
placeZeroHeavyDag(int mids, int leaves_per_mid, double leaf_cycles)
{
    sim::DagBuilder b;
    b.beginRoot();
    for (int m = 0; m < mids; ++m) {
        b.spawn(/*place=*/0);
        for (int l = 0; l < leaves_per_mid; ++l) {
            b.spawn(); // inherits place 0
            b.strand(leaf_cycles, {});
            b.end();
        }
        b.sync();
        b.end();
    }
    b.sync();
    b.end();
    return b.finish();
}

TEST(HierarchicalSim, StarvingWorkersStealAgainstTheHint)
{
    const sim::ComputationDag dag = placeZeroHeavyDag(16, 8, 5000.0);
    sim::SimConfig cfg;
    cfg.seed = 99;
    const sim::SimResult r = sim::simulatePacked(dag, 16, cfg);

    const double work = 16.0 * 8.0 * 5000.0;
    const double socket0_only_bound = work / 8.0; // 8 cores on socket 0
    // Finishing beneath the single-socket bound is only possible if
    // off-place cores executed hinted work (load balance over locality).
    EXPECT_LT(r.elapsedCycles, 0.9 * socket0_only_bound);
    // Sanity: more than trivially parallel, and the pushing machinery
    // actually engaged rather than being sidestepped.
    EXPECT_GT(r.elapsedCycles, work / 16.0);
    EXPECT_GT(r.counters.pushAttempts, 0u);
}

TEST(HierarchicalSim, ExtensionConfigMatchesWorkOfBaseline)
{
    // The extension knobs change *where* and *in what order* work runs,
    // never *what* runs: strand count and spawn count are invariant.
    const sim::ComputationDag dag = placeZeroHeavyDag(8, 4, 2000.0);
    sim::SimConfig base = sim::SimConfig::numaWs();
    sim::SimConfig ext;
    const sim::SimResult rb = sim::simulatePacked(dag, 16, base);
    const sim::SimResult ra = sim::simulatePacked(dag, 16, ext);
    EXPECT_EQ(rb.counters.strandsExecuted, ra.counters.strandsExecuted);
    EXPECT_EQ(rb.counters.spawns, ra.counters.spawns);
}

// ---------------------------------------------------------------------
// Threaded runtime: hierarchical knobs end to end
// ---------------------------------------------------------------------

TEST(HierarchicalRuntime, HintedWorkCompletesUnderHierarchicalKnobs)
{
    RuntimeOptions o;
    o.numWorkers = 4;
    o.numPlaces = 2;
    o.seed = 7;
    Runtime rt(o);

    std::atomic<int64_t> sum{0};
    rt.run([&] {
        TaskGroup g;
        for (int i = 0; i < 256; ++i) {
            // Everything hinted at place 0: the other place's workers
            // must still help once mailboxes saturate.
            g.spawn(
                [&sum, i] {
                    int64_t acc = 0;
                    for (int k = 0; k < 2000; ++k)
                        acc += (i * 31 + k) % 7;
                    sum.fetch_add(acc + 1,
                                  std::memory_order_relaxed);
                },
                /*place=*/0);
        }
        g.sync();
    });

    const RuntimeStats stats = rt.stats();
    EXPECT_GE(stats.counters.tasksExecuted, 256u);
    EXPECT_GT(sum.load(), 0);
}

TEST(HierarchicalRuntime, FibMatchesSerialUnderBothSearches)
{
    const int n = 18;
    const uint64_t expected = workloads::fibSerial(n);
    for (const bool hierarchical : {false, true}) {
        RuntimeOptions o;
        o.numWorkers = 3;
        o.numPlaces = 3;
        o.sched.hierarchicalSteals = hierarchical;
        Runtime rt(o);
        EXPECT_EQ(workloads::fibParallel(rt, n, 10), expected)
            << "hierarchical=" << hierarchical;
    }
}

TEST(HierarchicalSim, InformedPolicyMatchesWorkOfFlatSearch)
{
    // Victim selection changes where thieves look, never what executes.
    const sim::ComputationDag dag = placeZeroHeavyDag(8, 4, 2000.0);
    sim::SimConfig flat;
    flat.sched.hierarchicalSteals = false;
    const sim::SimResult base = sim::simulatePacked(dag, 16, flat);
    EXPECT_EQ(base.counters.levelSkips, 0u); // blind search
    const sim::SimResult r =
        sim::simulatePacked(dag, 16, sim::SimConfig{});
    EXPECT_EQ(r.counters.strandsExecuted, base.counters.strandsExecuted);
    EXPECT_EQ(r.counters.spawns, base.counters.spawns);
}

TEST(HierarchicalSim, InformedPolicySkipsProbesOnHintedWork)
{
    // Heavily hinted work makes local levels run dry: the board must
    // actually skip levels and replace probes with dry polls.
    const sim::ComputationDag dag = placeZeroHeavyDag(16, 8, 5000.0);
    const sim::SimResult r =
        sim::simulatePacked(dag, 16, sim::SimConfig{});

    // Flat search is the blind baseline: it never consults the board.
    sim::SimConfig blind;
    blind.sched.hierarchicalSteals = false;
    const sim::SimResult rb = sim::simulatePacked(dag, 16, blind);

    EXPECT_GT(r.counters.levelSkips + r.counters.boardDryPolls, 0u);
    // The informed policy must not probe more than blind search.
    EXPECT_LE(r.counters.stealAttempts, rb.counters.stealAttempts);
    // And the starving-worker invariant still holds (work completes).
    EXPECT_EQ(r.counters.strandsExecuted, rb.counters.strandsExecuted);
}

TEST(HierarchicalRuntime, InformedPolicyComputesCorrectResults)
{
    const int n = 18;
    RuntimeOptions o;
    o.numWorkers = 4;
    o.numPlaces = 2;
    Runtime rt(o);
    EXPECT_EQ(workloads::fibParallel(rt, n, 10), workloads::fibSerial(n));
}

TEST(HierarchicalRuntime, AffinityResolvesDataHomesThroughThePageMap)
{
    PageMap pm(2);
    NumaArena arena(pm);
    const std::size_t bytes = 1 << 16;
    void *block0 = arena.allocOnSocket(bytes, 0);
    void *block1 = arena.allocOnSocket(bytes, 1);

    RuntimeOptions o;
    o.numWorkers = 4;
    o.numPlaces = 2;
    o.pageMap = &pm;
    Runtime rt(o);

    std::atomic<int64_t> sum{0};
    rt.run([&] {
        TaskGroup g;
        for (int i = 0; i < 128; ++i) {
            void *data = (i & 1) != 0 ? block1 : block0;
            g.spawn(
                [&sum, data] {
                    auto *p = static_cast<unsigned char *>(data);
                    int64_t acc = 0;
                    for (int k = 0; k < 512; ++k)
                        acc += p[k] + 1;
                    sum.fetch_add(acc, std::memory_order_relaxed);
                },
                /*place=*/i & 1, data, bytes);
        }
        g.sync();
    });
    EXPECT_GE(sum.load(), 128 * 512);
    EXPECT_GE(rt.stats().counters.tasksExecuted, 128u);

    arena.free(block0);
    arena.free(block1);
}

TEST(HierarchicalRuntime, EscalationCountersAdvanceUnderStarvation)
{
    // Two workers, almost no work: steal attempts mostly fail, so the
    // hierarchical ladder must widen (the counter proves escalation ran).
    // Under the informed default a starving worker's dry-board polls
    // replace three probes in four, but every fourth still probes and
    // fails. Timer parking keeps the starving worker re-probing every
    // period instead of sleeping on its own socket's slot.
    RuntimeOptions o;
    o.numWorkers = 2;
    o.numPlaces = 2;
    o.sched.parkPolicy = ParkPolicy::Timer;
    Runtime rt(o);
    // Workers probe only while work is active, so keep one root running
    // until the counter moves (on a contended host the starving worker
    // may not be scheduled for a while), with a generous bound.
    uint64_t escalations = 0;
    rt.run([&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (escalations == 0
               && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            escalations = rt.stats().counters.escalations;
        }
    });
    EXPECT_GT(escalations, 0u);
}

} // namespace
} // namespace numaws