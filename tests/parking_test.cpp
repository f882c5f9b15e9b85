/**
 * @file
 * ParkingLot, socket-edge reporting, and board-guided PUSHBACK tests.
 *
 * Concurrency tests here follow the repo's 1-core-host discipline: no
 * assertions on wall-clock speed, only on ordering, counters, and the
 * bounded-timeout liveness guarantee (a parker always returns, wake or
 * no wake). parking_test runs under ASan/UBSan in CI's sanitizer job —
 * the park/publish stress below is the lost-wakeup race it exists for.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/runtime.h"
#include "sched/occupancy.h"
#include "sched/parking.h"
#include "sim/scheduler.h"
#include "workloads/workloads.h"

using namespace numaws;
using namespace std::chrono_literals;

namespace {

/** Spin (yielding) until @p pred or ~2s; returns pred(). */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 2000; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(1ms);
    }
    return pred();
}

/** A balanced binary fan of @p n leaves. Each spawner's deque holds
 * the continuations of its whole spawn chain, so a steal of the oldest
 * one leaves surplus behind (a flat spawn loop never does: work-first,
 * the deque holds one continuation at a time). */
void
binaryFan(sim::DagBuilder &b, int n, double leaf_cycles)
{
    if (n == 1) {
        b.strand(leaf_cycles, {});
        return;
    }
    b.spawn(kAnyPlace);
    binaryFan(b, n / 2, leaf_cycles);
    b.end();
    b.spawn(kAnyPlace);
    binaryFan(b, n - n / 2, leaf_cycles);
    b.end();
    b.sync();
}

} // namespace

// ---------------------------------------------------------------------
// ParkingLot
// ---------------------------------------------------------------------

TEST(ParkingLot, DisabledLotIsInert)
{
    ParkingLot lot;
    EXPECT_FALSE(lot.enabled());
    EXPECT_FALSE(lot.park(0, 10ms)); // returns immediately, no wait
    lot.wake(0);                     // no-ops, no crash
    lot.wakeAll();
}

TEST(ParkingLot, BoundedTimeoutLiveness)
{
    // The core guarantee the scheduler is written against: with no wake
    // at all, park() still returns after one timeout period.
    ParkingLot lot(1);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(lot.park(0, 20ms));
    EXPECT_GE(std::chrono::steady_clock::now() - t0, 15ms);
    EXPECT_EQ(lot.waiters(0), 0);
}

TEST(ParkingLot, PredicateShortCircuitsTheWait)
{
    ParkingLot lot(1);
    // True predicate: no sleep at all, reported as a (logical) wake.
    EXPECT_TRUE(lot.park(0, 1000ms, [] { return true; }));
}

TEST(ParkingLot, WorkSeenOnlyAtTheFallbackIsATimeout)
{
    // Work published with no wake leaves the parker asleep until its
    // fallback. That park missed its wake, so it must read as a
    // timeout even though the predicate holds by then.
    ParkingLot lot(1);
    std::atomic<int> checks{0};
    std::atomic<bool> work{false};
    std::thread publisher([&] {
        // After the registered-then-check evaluation: from here on only
        // a wake or the timeout re-runs the predicate.
        EXPECT_TRUE(eventually([&] { return checks.load() >= 1; }));
        work.store(true);
    });
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(lot.park(0, 50ms, [&] {
        checks.fetch_add(1);
        return work.load();
    }));
    EXPECT_GE(std::chrono::steady_clock::now() - t0, 40ms);
    publisher.join();
    EXPECT_TRUE(work.load());
    EXPECT_EQ(lot.waiters(0), 0);
}

TEST(ParkingLot, WakeTargetsOnlyItsSocket)
{
    ParkingLot lot(2);
    std::atomic<bool> release{false};
    std::atomic<int> woken_by_wake{-1};

    std::thread parker([&] {
        // Long timeout: only an explicit wake(1) should end this park.
        const bool w =
            lot.park(1, 5000ms, [&] { return release.load(); });
        woken_by_wake.store(w ? 1 : 0);
    });

    ASSERT_TRUE(eventually([&] { return lot.waiters(1) == 1; }));
    // Storm socket 0: socket 1's waiter must stay parked.
    for (int i = 0; i < 64; ++i)
        lot.wake(0);
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(lot.waiters(1), 1);
    EXPECT_EQ(lot.wakesDelivered(0), 0u); // no waiter there: fast path
    EXPECT_EQ(woken_by_wake.load(), -1);

    release.store(true);
    lot.wake(1);
    parker.join();
    EXPECT_EQ(woken_by_wake.load(), 1);
    EXPECT_GE(lot.wakesDelivered(1), 1u);
}

TEST(ParkingLot, WakeAllReachesEverySocket)
{
    constexpr int kSockets = 3;
    ParkingLot lot(kSockets);
    std::atomic<int> woken{0};
    std::vector<std::thread> parkers;
    for (int s = 0; s < kSockets; ++s) {
        parkers.emplace_back([&, s] {
            if (lot.park(s, 5000ms))
                woken.fetch_add(1);
        });
    }
    ASSERT_TRUE(eventually([&] {
        for (int s = 0; s < kSockets; ++s)
            if (lot.waiters(s) != 1)
                return false;
        return true;
    }));
    lot.wakeAll();
    for (auto &t : parkers)
        t.join();
    EXPECT_EQ(woken.load(), kSockets);
}

TEST(ParkingLot, LostWakeupStress)
{
    // Parkers and wakers race on one slot with a short fallback; a lost
    // wakeup may cost one period but can never wedge a parker. The test
    // passes iff every thread finishes its iterations (liveness) with
    // no sanitizer findings (the CI job runs this under ASan/UBSan).
    constexpr int kParkers = 3;
    constexpr int kRounds = 200;
    ParkingLot lot(1);
    std::atomic<uint64_t> published{0};

    std::vector<std::thread> parkers;
    std::atomic<int> done{0};
    for (int p = 0; p < kParkers; ++p) {
        parkers.emplace_back([&] {
            uint64_t seen = 0;
            for (int i = 0; i < kRounds; ++i) {
                lot.park(0, 500us, [&] {
                    return published.load(std::memory_order_acquire)
                           > seen;
                });
                seen = published.load(std::memory_order_acquire);
            }
            done.fetch_add(1);
        });
    }
    std::thread waker([&] {
        while (done.load() < kParkers) {
            published.fetch_add(1, std::memory_order_release);
            lot.wake(0);
            std::this_thread::yield();
        }
    });
    for (auto &t : parkers)
        t.join();
    waker.join();
    EXPECT_EQ(done.load(), kParkers);
    EXPECT_EQ(lot.waiters(0), 0);
}

// ---------------------------------------------------------------------
// OccupancyBoard socket-edge reporting (what targeted wakes ride on)
// ---------------------------------------------------------------------

TEST(OccupancyEdges, OnlyTheFirstPublicationOfASocketIsAnEdge)
{
    // Workers 0,1 on socket 0; workers 2,3 on socket 1.
    OccupancyBoard b(4, {0, 0, 1, 1});
    EXPECT_TRUE(b.publishDeque(0, true));    // socket 0: 0 -> nonzero
    EXPECT_FALSE(b.publishDeque(0, true));   // no transition at all
    EXPECT_FALSE(b.publishDeque(1, true));   // bit edge, socket already up
    EXPECT_FALSE(b.publishMailbox(0, true)); // same socket, other word
    EXPECT_TRUE(b.publishDeque(2, true));    // socket 1 is independent
    // Clears never report an edge.
    EXPECT_FALSE(b.publishDeque(0, false));
    EXPECT_FALSE(b.publishDeque(1, false));
    EXPECT_FALSE(b.publishMailbox(0, false));
    // Socket 0 fully dark again: the next set is an edge again.
    EXPECT_TRUE(b.publishMailbox(1, true));
}

// ---------------------------------------------------------------------
// Board-guided PUSHBACK receiver selection
// ---------------------------------------------------------------------

TEST(PushTargetBoard, FullMailboxesAreSkipped)
{
    // Workers 4..7 on the target place; bits 0..3 in its socket word.
    // Workers 4 and 6 advertise a parked frame (capacity-1: full).
    const auto mask_of = [](int w) { return 1ULL << (w - 4); };
    const uint64_t bits = mask_of(4) | mask_of(6);
    Rng rng(7);
    for (int i = 0; i < 256; ++i) {
        const int r = pickClearMailbox(4, 8, -1, bits, mask_of, rng);
        ASSERT_TRUE(r == 5 || r == 7) << "picked full mailbox " << r;
    }
    // Both clear slots are actually reachable.
    bool saw5 = false, saw7 = false;
    for (int i = 0; i < 256 && !(saw5 && saw7); ++i) {
        const int r = pickClearMailbox(4, 8, -1, bits, mask_of, rng);
        saw5 |= r == 5;
        saw7 |= r == 7;
    }
    EXPECT_TRUE(saw5 && saw7);
}

TEST(PushTargetBoard, SaturatedComplementFallsBackToRandom)
{
    const auto mask_of = [](int w) { return 1ULL << w; };
    Rng rng(11);
    // Every mailbox advertises a frame: no candidate.
    EXPECT_EQ(pickClearMailbox(0, 4, -1, 0xF, mask_of, rng), -1);
    // The only clear slot is the pusher itself: still no candidate.
    EXPECT_EQ(pickClearMailbox(0, 4, 2, 0xB, mask_of, rng), -1);
    // Empty range degenerates safely.
    EXPECT_EQ(pickClearMailbox(3, 3, -1, 0, mask_of, rng), -1);
}

// ---------------------------------------------------------------------
// Threaded runtime end to end under the new knobs
// ---------------------------------------------------------------------

TEST(RuntimeParking, FibCorrectUnderEveryParkPushCombination)
{
    const int n = 18;
    const uint64_t expected = workloads::fibSerial(n);
    for (const ParkPolicy park : {ParkPolicy::Timer, ParkPolicy::Board}) {
        for (const PushTarget push :
             {PushTarget::Random, PushTarget::Board}) {
            RuntimeOptions o;
            o.numWorkers = 3;
            o.numPlaces = 3;
            o.sched.parkPolicy = park;
            o.sched.pushTarget = push;
            // Short fallback: the 1-core host serializes threads, so
            // parks and timeouts genuinely occur during the run.
            o.sched.parkFallbackUs = 200;
            o.seed = 21;
            Runtime rt(o);
            EXPECT_EQ(workloads::fibParallel(rt, n, 10), expected)
                << parkPolicyName(park) << "/" << pushTargetName(push);
            const RuntimeStats stats = rt.stats();
            // Every park ends at most once, by a wake or a timeout; a
            // worker parked *right now* (post-run idle) has entered but
            // not resolved, so the gap is bounded by the worker count.
            const uint64_t resolved = stats.counters.parkWakes
                                      + stats.counters.parkTimeouts;
            EXPECT_GE(stats.counters.parks, resolved);
            EXPECT_LE(stats.counters.parks,
                      resolved
                          + static_cast<uint64_t>(o.numWorkers));
        }
    }
}

TEST(RuntimeParking, SurplusStealWakesTheOtherPlace)
{
    // 2 places x 2 workers, all parked. The job's admission wake goes
    // to place 0 (the first unhinted admission), and its unhinted
    // children fill only place 0's deques, so no occupancy edge ever
    // fires on place 1. The fallback outlasts the test: only the wake
    // of a steal that leaves surplus can bring place 1 in.
    RuntimeOptions o;
    o.numWorkers = 4;
    o.numPlaces = 2;
    o.sched.parkPolicy = ParkPolicy::Board;
    o.sched.parkFallbackUs = 60'000'000;
    o.seed = 7;
    Runtime rt(o);
    ASSERT_TRUE(eventually([&] {
        return rt.parkingLot().waiters(0) == 2
               && rt.parkingLot().waiters(1) == 2;
    }));

    constexpr int kChildren = 64;
    std::atomic<int> ran{0};
    const auto t0 = std::chrono::steady_clock::now();
    JobHandle h = rt.submit([&] {
        TaskGroup tg;
        // Each child sleeps, so its worker yields the CPU with the rest
        // of the fan still queued: a steal leaves surplus even on a
        // one-core host.
        for (int i = 0; i < kChildren; ++i)
            tg.spawn([&] {
                std::this_thread::sleep_for(1ms);
                ran.fetch_add(1);
            });
        tg.sync();
    });
    h.wait();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(ran.load(), kChildren);

    uint64_t place1_steals = 0;
    const auto [first, last] = rt.workersOfPlace(1);
    for (int w = first; w < last; ++w)
        place1_steals += rt.worker(w).counters().steals;
    EXPECT_GT(place1_steals, 0u);
    EXPECT_LT(elapsed, 10s); // far inside the 60 s fallback
    EXPECT_EQ(rt.stats().counters.parkTimeouts, 0u);
}

TEST(RuntimeParking, BoardParkingShutsDownCleanly)
{
    // Workers parked in per-socket slots at destruction time must all
    // be reachable by the shutdown wakeAll (no join hang). Construct,
    // let workers reach the parked state, destroy.
    RuntimeOptions o;
    o.numWorkers = 4;
    o.numPlaces = 2;
    o.sched.parkPolicy = ParkPolicy::Board;
    o.sched.parkFallbackUs = 50000; // long: shutdown must not wait for it
    Runtime rt(o);
    std::this_thread::sleep_for(20ms);
    // Destructor runs at scope exit; a hang here is the failure mode.
}

// ---------------------------------------------------------------------
// Simulator parking model
// ---------------------------------------------------------------------

TEST(SimParking, ModelOffByDefaultAndInert)
{
    const sim::ComputationDag dag = workloads::fibDag(16);
    sim::SimConfig cfg;
    ASSERT_FALSE(cfg.modelParking);
    const sim::SimResult r = sim::simulatePacked(dag, 16, cfg);
    EXPECT_EQ(r.counters.parks, 0u);
    EXPECT_EQ(r.counters.wakeups, 0u);
    EXPECT_EQ(r.counters.spuriousWakeups, 0u);
}

TEST(SimParking, PoliciesExecuteTheSameWork)
{
    const sim::ComputationDag dag = workloads::fibDag(16);
    // The Board defaults flipped in PR 4: the timer baseline must ask
    // for the retired policy explicitly.
    sim::SimConfig timer;
    timer.modelParking = true;
    timer.sched.parkSpinFailures = 4;
    timer.sched.parkPolicy = ParkPolicy::Timer;
    sim::SimConfig board = timer;
    board.sched.parkPolicy = ParkPolicy::Board;

    const sim::SimResult rt = sim::simulatePacked(dag, 16, timer);
    const sim::SimResult rb = sim::simulatePacked(dag, 16, board);
    EXPECT_EQ(rt.counters.strandsExecuted, rb.counters.strandsExecuted);
    EXPECT_EQ(rt.counters.spawns, rb.counters.spawns);
    // Timer wakes are never edge-targeted; board wakes may be.
    EXPECT_EQ(rt.counters.boardWakes, 0u);
}

TEST(SimParking, BoardWakesTargetSocketsWithWork)
{
    // An idle-heavy shape: one long serial strand, then a wide fan.
    // Cores park during the strand; under board parking the fan's
    // occupancy edges wake them, so spurious wakeups collapse vs the
    // periodic timer.
    sim::DagBuilder b;
    b.beginRoot();
    for (int burst = 0; burst < 4; ++burst) {
        b.strand(2.2e6, {}); // ~5 timer periods of machine-wide idling
        for (int t = 0; t < 32; ++t)
            b.spawnLeaf(kAnyPlace, 20000.0, {});
        b.sync();
    }
    b.end();
    const sim::ComputationDag dag = b.finish();

    sim::SimConfig timer;
    timer.modelParking = true;
    timer.sched.parkSpinFailures = 4;
    timer.sched.parkPolicy = ParkPolicy::Timer;
    sim::SimConfig board = timer;
    board.sched.parkPolicy = ParkPolicy::Board;

    const sim::SimResult rt = sim::simulatePacked(dag, 16, timer);
    const sim::SimResult rb = sim::simulatePacked(dag, 16, board);
    ASSERT_GT(rt.counters.parks, 0u);
    ASSERT_GT(rb.counters.parks, 0u);
    EXPECT_GT(rb.counters.boardWakes, 0u);
    // The acceptance-gate shape, at unit-test scale: at least 2x fewer
    // spurious wakeups, no simulated-time regression beyond 2%.
    EXPECT_LE(2 * rb.counters.spuriousWakeups,
              rt.counters.spuriousWakeups);
    EXPECT_LE(rb.elapsedCycles, 1.02 * rt.elapsedCycles);
}

TEST(SimParking, SurplusStealsWakeEverySocket)
{
    // Every core parks during a long serial strand; then core 0 (socket
    // 0) spawns a wide fan. Its occupancy edge wakes socket 0 only. The
    // fallback is hundreds of times the run, so sockets 1..3 join only
    // through the wakes of steals that leave surplus, and no park may
    // time out.
    sim::DagBuilder b;
    b.beginRoot();
    b.strand(2.2e6, {});
    constexpr int kFan = 64;
    constexpr double kLeaf = 200000.0;
    binaryFan(b, kFan, kLeaf);
    b.end();
    const sim::ComputationDag dag = b.finish();

    constexpr int kCores = 32;
    sim::SimConfig cfg;
    cfg.modelParking = true;
    cfg.sched.parkSpinFailures = 4;
    cfg.sched.parkPolicy = ParkPolicy::Board;
    cfg.sched.parkFallbackUs = 1'000'000;
    const sim::SimResult r = sim::simulatePacked(dag, kCores, cfg);
    ASSERT_GE(r.counters.parks, static_cast<uint64_t>(kCores - 1));
    // Every parked core was woken by the board, none by its timeout.
    EXPECT_GE(r.counters.boardWakes, static_cast<uint64_t>(kCores - 1));
    EXPECT_EQ(r.counters.wakeups, r.counters.boardWakes);
    // More than one socket's worth of cores shared the fan.
    EXPECT_LT(r.elapsedCycles, 2.2e6 + kFan * kLeaf / 16);
}

TEST(SimParking, DeterministicPerSeed)
{
    const sim::ComputationDag dag = workloads::fibDag(14);
    sim::SimConfig cfg;
    cfg.modelParking = true;
    cfg.sched.parkSpinFailures = 4;
    cfg.seed = 99;
    const sim::SimResult a = sim::simulatePacked(dag, 8, cfg);
    const sim::SimResult b2 = sim::simulatePacked(dag, 8, cfg);
    EXPECT_EQ(a.elapsedCycles, b2.elapsedCycles);
    EXPECT_EQ(a.counters.parks, b2.counters.parks);
    EXPECT_EQ(a.counters.wakeups, b2.counters.wakeups);
    EXPECT_EQ(a.counters.spuriousWakeups, b2.counters.spuriousWakeups);
}

TEST(SimPushTarget, BoardReceiversReducePushAttemptsOnHintedWork)
{
    // Heavily hinted work saturates place-0 mailboxes: random receivers
    // burn attempts on full slots, board-guided receivers only pick
    // advertised room (and never more attempts than random).
    sim::DagBuilder b;
    b.beginRoot();
    for (int m = 0; m < 64; ++m) {
        b.spawn(/*place=*/0);
        for (int l = 0; l < 4; ++l)
            b.spawnLeaf(kInheritPlace, 3000.0, {});
        b.sync();
        b.end();
    }
    b.sync();
    b.end();
    const sim::ComputationDag dag = b.finish();

    // numaWs() is the paper-literal factory, so its receivers are
    // already the explicit Random baseline the Board row compares to.
    sim::SimConfig rnd = sim::SimConfig::numaWs();
    ASSERT_EQ(rnd.sched.pushTarget, PushTarget::Random);
    rnd.seed = 5;
    sim::SimConfig guided = rnd;
    guided.sched.pushTarget = PushTarget::Board;

    const sim::SimResult rr = sim::simulatePacked(dag, 16, rnd);
    const sim::SimResult rg = sim::simulatePacked(dag, 16, guided);
    ASSERT_GT(rr.counters.pushAttempts, 0u);
    EXPECT_EQ(rr.counters.strandsExecuted, rg.counters.strandsExecuted);
    EXPECT_LE(rg.counters.pushAttempts, rr.counters.pushAttempts);
}
