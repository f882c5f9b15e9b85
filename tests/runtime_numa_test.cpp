/**
 * @file
 * NUMA-WS mechanism tests on the threaded runtime: place hints and
 * inheritance, lazy pushback via mailboxes, biased steal configuration,
 * and the work-first property that local pops never pay pushback costs.
 */
#include <gtest/gtest.h>

#include <atomic>

#include "runtime/api.h"

namespace numaws {
namespace {

RuntimeOptions
numaOptions(int workers, int places)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.numPlaces = places;
    o.sched.biasedSteals = true;
    o.sched.useMailboxes = true;
    return o;
}

TEST(RuntimeNuma, WorkersOfPlacePartitionsWorkers)
{
    Runtime rt(numaOptions(4, 2));
    const auto [b0, e0] = rt.workersOfPlace(0);
    const auto [b1, e1] = rt.workersOfPlace(1);
    EXPECT_EQ(b0, 0);
    EXPECT_EQ(e0, 2);
    EXPECT_EQ(b1, 2);
    EXPECT_EQ(e1, 4);
}

TEST(RuntimeNuma, PlaceHintInheritance)
{
    Runtime rt(numaOptions(4, 2));
    std::atomic<int> inherited_ok{0};
    rt.run([&] {
        TaskGroup tg;
        tg.spawn(
            [&] {
                // This task carries hint 1; a child spawned without an
                // explicit place must inherit it.
                TaskGroup inner;
                inner.spawn([&] {
                    Worker *w = Worker::current();
                    // The child's resolved hint equals the parent's.
                    if (w->currentHint() == 1)
                        inherited_ok.fetch_add(1);
                });
                inner.sync();
            },
            Place{1});
        tg.sync();
    });
    EXPECT_EQ(inherited_ok.load(), 1);
}

TEST(RuntimeNuma, AnyPlaceUnsetsHint)
{
    Runtime rt(numaOptions(4, 2));
    std::atomic<int> ok{0};
    rt.run([&] {
        TaskGroup tg;
        tg.spawn(
            [&] {
                TaskGroup inner;
                inner.spawn(
                    [&] {
                        if (Worker::current()->currentHint() == kAnyPlace)
                            ok.fetch_add(1);
                    },
                    kAnyPlace);
                inner.sync();
            },
            Place{1});
        tg.sync();
    });
    EXPECT_EQ(ok.load(), 1);
}

TEST(RuntimeNuma, HintedTasksMostlyRunAtTheirPlace)
{
    // Plenty of hinted work per place: the overwhelming majority should
    // execute on a worker of the hinted place (best effort, not strict).
    Runtime rt(numaOptions(4, 2));
    rt.resetStats();
    std::atomic<int64_t> on_place{0}, total{0};
    rt.run([&] {
        TaskGroup tg;
        for (int rep = 0; rep < 200; ++rep)
            for (Place p = 0; p < 2; ++p)
                tg.spawn(
                    [&, p] {
                        total.fetch_add(1);
                        if (currentPlace() == p)
                            on_place.fetch_add(1);
                        // A little work so tasks spread out.
                        volatile double x = 1.0;
                        for (int i = 0; i < 2000; ++i)
                            x = x * 1.0000001 + 0.1;
                    },
                    p);
        tg.sync();
    });
    EXPECT_EQ(total.load(), 400);
    // Best-effort: at least half land where hinted (typically ~all; the
    // bound is loose because load balancing may override). Inclusive
    // because on an oversubscribed single-CPU host the spawning worker
    // can run every task itself, which yields exactly half on-place.
    EXPECT_GE(on_place.load(), total.load() / 2);
}

TEST(RuntimeNuma, PushbackEventuallyGivesUpAtThreshold)
{
    RuntimeOptions o = numaOptions(2, 2);
    o.sched.pushThreshold = 2;
    Runtime rt(o);
    // One worker per place; hint everything at place 1. Work must still
    // complete (load balance beats locality when pushes fail).
    std::atomic<int> n{0};
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < 100; ++i)
            tg.spawn([&] { n.fetch_add(1); }, Place{1});
        tg.sync();
    });
    EXPECT_EQ(n.load(), 100);
}

TEST(RuntimeNuma, MailboxesDisabledStillCompletes)
{
    RuntimeOptions o = numaOptions(4, 2);
    o.sched.useMailboxes = false;
    Runtime rt(o);
    std::atomic<int> n{0};
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < 200; ++i)
            tg.spawn([&] { n.fetch_add(1); }, Place{i % 2});
        tg.sync();
    });
    EXPECT_EQ(n.load(), 200);
    EXPECT_EQ(rt.stats().counters.pushbackAttempts, 0u);
}

TEST(RuntimeNuma, UnhintedProgramUnaffectedByKnobs)
{
    // "not specifying locality hints ... result in comparable performance"
    // — at minimum, identical results and no pushback traffic.
    for (bool mailboxes : {false, true}) {
        RuntimeOptions o = numaOptions(4, 2);
        o.sched.useMailboxes = mailboxes;
        Runtime rt(o);
        rt.resetStats();
        std::atomic<int64_t> sum{0};
        rt.run([&] {
            parallelFor(0, 10000, 64,
                        [&](int64_t i) { sum.fetch_add(i); });
        });
        EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
        EXPECT_EQ(rt.stats().counters.pushbackAttempts, 0u);
    }
}

TEST(RuntimeNuma, BiasedStealsStillBalanceLoad)
{
    // All real work hinted at place 0; the other place's workers must
    // still steal it rather than idle forever (hints are hints).
    Runtime rt(numaOptions(4, 2));
    std::atomic<int> n{0};
    rt.run([&] {
        TaskGroup tg;
        for (int i = 0; i < 64; ++i)
            tg.spawn(
                [&] {
                    volatile double x = 1.0;
                    for (int k = 0; k < 50000; ++k)
                        x = x * 1.0000001 + 0.1;
                    n.fetch_add(1);
                },
                Place{0});
        tg.sync();
    });
    EXPECT_EQ(n.load(), 64);
}

TEST(RuntimeNuma, StatsTrackHintedPlacement)
{
    Runtime rt(numaOptions(4, 2));
    rt.resetStats();
    rt.run([&] {
        // Hint the children at the place the root is not on, so the
        // children its own worker pops never count: only a thief of the
        // hinted place, or a pushback to it, can. Each child carries
        // real work so those thieves get to run while the root is busy.
        const Place away{1 - currentPlace()};
        TaskGroup tg;
        for (int i = 0; i < 100; ++i)
            tg.spawn(
                [] {
                    volatile double x = 1.0;
                    for (int k = 0; k < 50000; ++k)
                        x = x * 1.0000001 + 0.1;
                },
                away);
        tg.sync();
    });
    const RuntimeStats s = rt.stats();
    EXPECT_GT(s.counters.tasksOnHintedPlace, 0u);
    EXPECT_LE(s.counters.tasksOnHintedPlace, 100u);
}

} // namespace
} // namespace numaws
