/**
 * @file
 * Threaded runtime tests: fork-join correctness, nesting, exceptions,
 * parallel_for semantics, repeated runs, work-stealing liveness, and
 * the steal-only join counter's remote path and ownership rule.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/api.h"
#include "support/spin_lock.h"
#include "workloads/workloads.h"

namespace numaws {
namespace {

RuntimeOptions
smallOptions(int workers, int places = 1)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.numPlaces = places;
    return o;
}

TEST(Runtime, RunsRootToCompletion)
{
    Runtime rt(smallOptions(2));
    int x = 0;
    rt.run([&] { x = 42; });
    EXPECT_EQ(x, 42);
}

TEST(Runtime, RepeatedRunsWork)
{
    Runtime rt(smallOptions(2));
    int total = 0;
    for (int i = 0; i < 20; ++i)
        rt.run([&] { ++total; });
    EXPECT_EQ(total, 20);
}

TEST(Runtime, SingleWorkerExecutesEverything)
{
    Runtime rt(smallOptions(1));
    EXPECT_EQ(workloads::fibParallel(rt, 20, 5),
              workloads::fibSerial(20));
}

TEST(Runtime, FibMatchesSerial)
{
    Runtime rt(smallOptions(4));
    EXPECT_EQ(workloads::fibParallel(rt, 24, 10),
              workloads::fibSerial(24));
}

TEST(Runtime, SpawnsActuallyRunConcurrentTasks)
{
    Runtime rt(smallOptions(2));
    std::atomic<int> count{0};
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < 100; ++i)
            tg.spawn([&] { count.fetch_add(1); });
        tg.sync();
    });
    EXPECT_EQ(count.load(), 100);
}

TEST(Runtime, NestedGroups)
{
    Runtime rt(smallOptions(3));
    std::atomic<int> leaves{0};
    rt.run([&] {
        TaskGroup outer;
        for (int i = 0; i < 8; ++i) {
            outer.spawn([&] {
                TaskGroup inner;
                for (int j = 0; j < 8; ++j)
                    inner.spawn([&] { leaves.fetch_add(1); });
                inner.sync();
            });
        }
        outer.sync();
    });
    EXPECT_EQ(leaves.load(), 64);
}

TEST(Runtime, GroupDestructorSyncs)
{
    Runtime rt(smallOptions(2));
    std::atomic<int> done{0};
    rt.run([&] {
        {
            TaskGroup tg;
            for (int i = 0; i < 16; ++i)
                tg.spawn([&] { done.fetch_add(1); });
            // no explicit sync: the destructor must wait
        }
        EXPECT_EQ(done.load(), 16);
    });
}

TEST(Runtime, ExceptionPropagatesFromSpawnedTask)
{
    Runtime rt(smallOptions(2));
    EXPECT_THROW(
        rt.run([&] {
            TaskGroup tg;
            tg.spawn([] { throw std::runtime_error("boom"); });
            tg.sync();
        }),
        std::runtime_error);
}

TEST(Runtime, ExceptionFromRootPropagates)
{
    Runtime rt(smallOptions(2));
    EXPECT_THROW(rt.run([] { throw std::logic_error("root"); }),
                 std::logic_error);
    // The runtime stays usable afterwards.
    int x = 0;
    rt.run([&] { x = 1; });
    EXPECT_EQ(x, 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    Runtime rt(smallOptions(4));
    std::vector<std::atomic<int>> hits(1000);
    rt.run([&] {
        parallelFor(0, 1000, 16, [&](int64_t i) { hits[i].fetch_add(1); });
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndTinyRanges)
{
    Runtime rt(smallOptions(2));
    std::atomic<int> count{0};
    rt.run([&] {
        parallelFor(5, 5, 4, [&](int64_t) { count.fetch_add(1); });
        parallelFor(5, 6, 4, [&](int64_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForPlaces, CoversRange)
{
    Runtime rt(smallOptions(4, 2));
    std::vector<std::atomic<int>> hits(512);
    rt.run([&] {
        parallelForPlaces(0, 512, 8,
                          [&](int64_t lo, int64_t hi) {
                              for (int64_t i = lo; i < hi; ++i)
                                  hits[i].fetch_add(1);
                          });
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ChunkOf, PartitionsEvenly)
{
    int64_t covered = 0;
    for (int c = 0; c < 7; ++c) {
        const RangeChunk rc = chunkOf(100, 7, c);
        covered += rc.end - rc.begin;
        EXPECT_LE(rc.end - rc.begin, 15);
        EXPECT_GE(rc.end - rc.begin, 14);
    }
    EXPECT_EQ(covered, 100);
    EXPECT_EQ(chunkOf(100, 7, 0).begin, 0);
    EXPECT_EQ(chunkOf(100, 7, 6).end, 100);
}

TEST(Runtime, StatsCountSpawnsAndTasks)
{
    Runtime rt(smallOptions(2));
    rt.resetStats();
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < 50; ++i)
            tg.spawn([] {});
        tg.sync();
    });
    const RuntimeStats s = rt.stats();
    EXPECT_EQ(s.counters.spawns, 50u);
    // 50 spawned tasks + 1 root.
    EXPECT_EQ(s.counters.tasksExecuted, 51u);
}

// Work-first time accounting: the clock is read only on a real worker
// state change, so timeSplitSwitches scales with steal-path events and
// never with spawns. fib(32) at cutoff 14 makes ~11k spawns per run.
TEST(WorkFirstTimeSplit, SingleWorkerFibReadsNoClockPerSpawn)
{
    Runtime rt(smallOptions(1));
    rt.resetStats();
    constexpr int kRuns = 3;
    for (int r = 0; r < kRuns; ++r)
        ASSERT_EQ(workloads::fibParallel(rt, 32, 14),
                  workloads::fibSerial(32));
    const RuntimeStats s = rt.stats();
    ASSERT_GE(s.counters.spawns, 10000u * kRuns);
    // A run claims its root (Idle -> Work) and runs dry after it
    // (Work -> Idle); every spawn, pop and sync in between is local.
    EXPECT_LE(s.counters.timeSplitSwitches, 8u * kRuns)
        << "spawns=" << s.counters.spawns;
}

TEST(WorkFirstTimeSplit, SwitchesBoundedByStealPathEvents)
{
    constexpr int kWorkers = 4;
    Runtime rt(smallOptions(kWorkers));
    rt.resetStats();
    for (int r = 0; r < 3; ++r)
        ASSERT_EQ(workloads::fibParallel(rt, 32, 14),
                  workloads::fibSerial(32));
    const RuntimeStats s = rt.stats();
    const WorkerCounters &c = s.counters;
    const uint64_t events = c.steals + c.mailboxTakes
                            + c.pushbackSuccesses + c.jobsCompleted
                            + c.parks;
    EXPECT_LE(c.timeSplitSwitches, 4 * events + 2 * kWorkers)
        << "spawns=" << c.spawns << " steals=" << c.steals
        << " mailboxTakes=" << c.mailboxTakes
        << " pushbacks=" << c.pushbackSuccesses
        << " jobs=" << c.jobsCompleted << " parks=" << c.parks;
}

TEST(Runtime, ApiQueriesInsideAndOutside)
{
    EXPECT_EQ(currentPlace(), kAnyPlace);
    EXPECT_EQ(currentRuntime(), nullptr);
    Runtime rt(smallOptions(4, 2));
    rt.run([&] {
        EXPECT_EQ(numPlaces(), 2);
        EXPECT_NE(currentRuntime(), nullptr);
        EXPECT_GE(currentPlace(), 0);
    });
}

TEST(Runtime, ManySmallRunsDoNotLeakWork)
{
    Runtime rt(smallOptions(3));
    for (int round = 0; round < 30; ++round) {
        std::atomic<int> n{0};
        rt.run([&] {
            TaskGroup tg;
            for (int i = 0; i < 20; ++i)
                tg.spawn([&] { n.fetch_add(1); });
            tg.sync();
        });
        ASSERT_EQ(n.load(), 20) << "round " << round;
    }
}

// Steal-only join counter. A child the owner pops itself is counted
// down in the owner's plain count; a child finished elsewhere goes
// through _remoteDone. These tests force the remote path: the body
// never pops before sync, it spins until the child has started on the
// other worker. They make no timing assertion, and under TSan a join
// that failed to publish the child's writes shows up as a race.

/** Spawn @p child into @p tg, then spin (no pop) until it has started
 * on another worker. Returns the spawning worker's id. */
template <typename F>
int
spawnAndWaitForThief(TaskGroup &tg, std::atomic<bool> &started, F child)
{
    tg.spawn([&started, child]() mutable {
        started.store(true, std::memory_order_relaxed);
        child();
    });
    while (!started.load(std::memory_order_relaxed))
        cpuRelax();
    return Worker::current()->id();
}

TEST(JoinCounter, RemoteChildCompletesTheJoin)
{
    Runtime rt(smallOptions(2));
    int value = 0; // plain on purpose: only the join may publish it
    int child_worker = -1;
    int owner_worker = -1;
    int64_t pending_after = -1;
    rt.run([&] {
        std::atomic<bool> started{false};
        TaskGroup tg;
        owner_worker = spawnAndWaitForThief(tg, started, [&] {
            child_worker = Worker::current()->id();
            value = 42;
        });
        tg.sync();
        EXPECT_EQ(value, 42);
        pending_after = tg.pending();
    });
    EXPECT_NE(child_worker, owner_worker);
    EXPECT_EQ(pending_after, 0);
}

TEST(JoinCounter, RemoteChildExceptionIsRethrownAtSync)
{
    Runtime rt(smallOptions(2));
    int child_worker = -1;
    int owner_worker = -1;
    bool caught = false;
    rt.run([&] {
        std::atomic<bool> started{false};
        TaskGroup tg;
        owner_worker = spawnAndWaitForThief(tg, started, [&] {
            child_worker = Worker::current()->id();
            throw std::runtime_error("stolen child");
        });
        try {
            tg.sync();
        } catch (const std::runtime_error &e) {
            caught = std::string(e.what()) == "stolen child";
        }
        EXPECT_EQ(tg.pending(), 0);
    });
    EXPECT_NE(child_worker, owner_worker);
    EXPECT_TRUE(caught);
}

// Mixed local and remote children: nested fib groups on 4 workers, where
// some children are popped at home and some are stolen.
TEST(JoinCounter, MixedLocalAndRemoteChildren)
{
    Runtime rt(smallOptions(4));
    rt.resetStats();
    constexpr int kRuns = 20;
    for (int r = 0; r < kRuns; ++r)
        ASSERT_EQ(workloads::fibParallel(rt, 22, 6),
                  workloads::fibSerial(22))
            << "run " << r;
    // Every spawned child ran exactly once (plus one root per run).
    const WorkerCounters c = rt.stats().counters;
    EXPECT_EQ(c.tasksExecuted, c.spawns + kRuns);
}

// Cilk's rule: a group's spawns come from its own frame. A stolen child
// spawning into its parent's group would write the owner's plain count
// from another thread, so spawn stops it.
void
spawnIntoParentGroupFromThief()
{
    Runtime rt(smallOptions(2));
    rt.run([&] {
        std::atomic<bool> started{false};
        TaskGroup tg;
        spawnAndWaitForThief(tg, started, [&tg] { tg.spawn([] {}); });
        tg.sync();
    });
}

TEST(JoinCounterDeathTest, StolenChildSpawningIntoParentGroupAsserts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(spawnIntoParentGroupFromThief(), "_owner == nullptr");
}

} // namespace
} // namespace numaws
