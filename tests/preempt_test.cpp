/**
 * @file
 * PR 8 latency-class preemption, priority aging, and shed-aware unpark:
 * the yield directive in StealCore, checkpoint/resume correctness across
 * spawn/sync boundaries (including exception paths), aging monotonicity
 * in ShedCore, the simulator mirror's byte-determinism with the new
 * knobs on, and a no-lost-wakeup stress for the unpark escalation.
 *
 * Concurrency tests follow the repo's 1-core-host discipline: no
 * wall-clock speed assertions, only ordering, outcomes, counters, and
 * bounded liveness. Preemption scenarios pin a single worker so "all
 * workers busy" is deterministic, and bodies spawn in bounded loops
 * until the preempting job's side effect is observed.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "numaws.h"
#include "sched/shed_core.h"
#include "sched/steal_core.h"
#include "sim/serving.h"
#include "workloads/workloads.h"

using namespace numaws;
using namespace std::chrono_literals;

namespace {

RuntimeOptions
oneWorker()
{
    RuntimeOptions o;
    o.numWorkers = 1;
    o.numPlaces = 1;
    return o;
}

/** Spin until @p flag turns true (bounded by the test timeout). */
void
awaitFlag(const std::atomic<bool> &flag)
{
    while (!flag.load(std::memory_order_acquire))
        std::this_thread::yield();
}

/** Spawn/sync in a bounded loop until @p stop turns true: every
 * iteration is a preemption boundary, so a raised yield directive is
 * serviced within one iteration. Returns the iterations taken. */
int
spawnUntil(const std::atomic<bool> &stop, int bound = 20'000'000)
{
    int i = 0;
    for (; i < bound && !stop.load(std::memory_order_acquire); ++i) {
        TaskGroup tg;
        tg.spawn([] {});
        tg.sync();
    }
    return i;
}

} // namespace

// ---------------------------------------------------------------------
// StealCore yield-directive units (the engine-shared flag)
// ---------------------------------------------------------------------

TEST(YieldDirective, RaiseObserveTakeIsOneShot)
{
    StealCore core;
    EXPECT_FALSE(core.yieldRequested());
    EXPECT_FALSE(core.takeYieldRequest()); // nothing raised: no-op
    core.requestYield();
    EXPECT_TRUE(core.yieldRequested());
    core.requestYield(); // re-raise coalesces, it does not queue
    EXPECT_TRUE(core.takeYieldRequest());
    EXPECT_FALSE(core.yieldRequested()); // consumed exactly once
    EXPECT_FALSE(core.takeYieldRequest());
}

TEST(YieldDirective, CopyPreservesTheRaisedState)
{
    // The sim re-seeds its brains by copy-assignment; a raised directive
    // must survive both copy construction and assignment (the wrapper
    // exists precisely because a raw std::atomic would delete them).
    StealCore a;
    a.requestYield();
    StealCore b(a);
    EXPECT_TRUE(b.yieldRequested());
    StealCore c;
    c = a;
    EXPECT_TRUE(c.takeYieldRequest());
    // The copies are independent flags, not shared state.
    EXPECT_TRUE(a.yieldRequested());
    EXPECT_FALSE(c.yieldRequested());
}

TEST(YieldDirective, ServicedYieldsAreCounted)
{
    StealCore core;
    EXPECT_EQ(core.counters().yields, 0u);
    core.noteYieldServiced();
    core.noteYieldServiced();
    EXPECT_EQ(core.counters().yields, 2u);
}

TEST(PreemptVictim, AbstainsWheneverAnyWorkerIsIdle)
{
    // An idle worker means the admission wake already has a taker.
    const int8_t running[] = {2, -1, 2, 1};
    EXPECT_EQ(StealCore::pickPreemptVictim(0, running, 4), -1);
}

TEST(PreemptVictim, PicksTheWorstStrictlyLowerClass)
{
    const int8_t running[] = {1, 2, 1, 2};
    // Latency (0) preempts the first Batch (2) worker: worst class,
    // lowest index tie-break — both engines must agree on the victim.
    EXPECT_EQ(StealCore::pickPreemptVictim(0, running, 4), 1);
    // Normal (1) also targets Batch, never a peer Normal.
    EXPECT_EQ(StealCore::pickPreemptVictim(1, running, 4), 1);
    // Batch (2) has nothing strictly below it to preempt.
    EXPECT_EQ(StealCore::pickPreemptVictim(2, running, 4), -1);
}

TEST(PreemptVictim, NeverSelfPreemptsAnEqualClass)
{
    const int8_t running[] = {0, 0};
    EXPECT_EQ(StealCore::pickPreemptVictim(0, running, 2), -1);
}

// ---------------------------------------------------------------------
// ShedCore aging and unpark-pressure units
// ---------------------------------------------------------------------

TEST(Aging, EffectiveClassIsMonotonicInHeadWaitAndFlooredAtZero)
{
    ServingPolicy p;
    p.agingWaitUs = 100; // one class per 100us of head wait
    ShedCore core(p);
    EXPECT_EQ(core.effectiveClass(2, 0), 2);
    EXPECT_EQ(core.effectiveClass(2, 99'999), 2);
    EXPECT_EQ(core.effectiveClass(2, 100'000), 1);
    EXPECT_EQ(core.effectiveClass(2, 199'999), 1);
    EXPECT_EQ(core.effectiveClass(2, 200'000), 0);
    EXPECT_EQ(core.effectiveClass(2, 1'000'000'000), 0); // floored
    // Monotonic: more waiting never demotes.
    int prev = 2;
    for (int64_t w = 0; w <= 400'000; w += 10'000) {
        const int eff = core.effectiveClass(2, w);
        EXPECT_LE(eff, prev);
        prev = eff;
    }
    // The latency class is already at the top: aging is the identity.
    EXPECT_EQ(core.effectiveClass(0, 1'000'000'000), 0);
}

TEST(Aging, DisabledKnobIsTheNominalIdentity)
{
    ShedCore off{ServingPolicy{}};
    EXPECT_EQ(off.effectiveClass(2, 1'000'000'000), 2);
    EXPECT_EQ(off.effectiveClass(1, 1'000'000'000), 1);
}

TEST(Aging, PickLaneRanksLanesByEffectiveClass)
{
    // One table drives the claim-time ranking both engines call: head
    // waits per lane in ns (-1 == empty lane), the exclusive class
    // bound, and the expected lane / promotion verdict.
    struct Row
    {
        const char *what;
        int agingWaitUs;
        int64_t waits[kNumServingClasses];
        int below;
        int lane;
        bool promoted;
    };
    const Row rows[] = {
        {"aging off: nominal order", 0, {-1, 5, 1'000'000'000}, 3, 1,
         false},
        {"aging off: long wait never promotes", 0,
         {0, 0, 1'000'000'000}, 3, 0, false},
        {"aging on: starved batch outranks normal", 100,
         {-1, 0, 200'000}, 3, 2, true},
        {"aging on: tie goes to the nominal class", 100,
         {-1, 0, 100'000}, 3, 1, false},
        {"aging on: fresh lanes keep nominal order", 100, {0, 0, 0}, 3,
         0, false},
        {"below 1: only lane 0 qualifies", 0, {0, 0, -1}, 1, 0,
         false},
        {"below bound admits only strictly better lanes", 0,
         {-1, 0, 0}, 1, -1, false},
        {"aging lifts a lane past the below bound", 100,
         {-1, -1, 200'000}, 1, 2, true},
        {"all lanes empty", 100, {-1, -1, -1}, 3, -1, false},
        {"below 0 admits nothing", 100, {0, 0, 0}, 0, -1, false},
    };
    for (const Row &r : rows) {
        ServingPolicy p;
        p.agingWaitUs = r.agingWaitUs;
        const ShedCore core(p);
        bool promoted = !r.promoted; // must be overwritten
        EXPECT_EQ(core.pickLane(r.waits, r.below, promoted), r.lane)
            << r.what;
        EXPECT_EQ(promoted, r.promoted) << r.what;
    }
}

TEST(UnparkPressure, FiresAtTheConfiguredFractionOfTheShedTarget)
{
    ServingPolicy p;
    p.shed = ShedPolicy::QueueDelay;
    p.queueDelayTargetUs[0] = 100; // 100us target
    p.queueDelayEwmaShift = 0;     // EWMA == last observation
    p.unparkLeadPct = 50;          // pressure at 50us
    ShedCore core(p);
    EXPECT_FALSE(core.unparkPressure());
    core.observeDelay(0, 40'000);
    EXPECT_FALSE(core.unparkPressure()); // 40us < 50us lead point
    EXPECT_FALSE(core.overloaded());
    core.observeDelay(0, 60'000);
    EXPECT_TRUE(core.unparkPressure()); // past the lead point...
    EXPECT_FALSE(core.overloaded());    // ...but not yet shedding
    core.observeDelay(0, 200'000);
    EXPECT_TRUE(core.unparkPressure());
    EXPECT_TRUE(core.overloaded()); // pressure precedes the crossing
}

TEST(UnparkPressure, OffByDefaultAndOutsideQueueDelay)
{
    ServingPolicy p;
    p.shed = ShedPolicy::QueueDelay;
    p.queueDelayTargetUs[0] = 100;
    ShedCore knob_off(p); // unparkLeadPct defaults to 0
    knob_off.observeDelay(0, 1'000'000);
    EXPECT_FALSE(knob_off.unparkPressure());

    p.shed = ShedPolicy::Reject;
    p.unparkLeadPct = 50;
    ShedCore reject(p); // no delay targets to lead
    reject.observeDelay(0, 1'000'000);
    EXPECT_FALSE(reject.unparkPressure());
}

// ---------------------------------------------------------------------
// Threaded engine: checkpoint/resume across spawn/sync boundaries
// ---------------------------------------------------------------------

TEST(Preempt, LatencyJobRunsNestedInsideASaturatedBatchJob)
{
    RuntimeOptions o = oneWorker();
    o.sched.serving.preempt = true;
    Runtime rt(o);

    std::atomic<bool> batch_started{false};
    std::atomic<bool> latency_ran{false};
    std::atomic<bool> batch_finished{false};
    std::atomic<bool> nested{false};

    JobOptions batch_opts;
    batch_opts.cls = JobClass::Batch;
    JobHandle batch = rt.submit(
        [&] {
            batch_started.store(true, std::memory_order_release);
            // Bounded spawn loop: the preemption boundary fires within
            // one iteration of the directive being raised.
            spawnUntil(latency_ran);
            batch_finished.store(true, std::memory_order_release);
        },
        batch_opts);
    awaitFlag(batch_started);

    // The single worker runs Batch: admitting Latency must raise the
    // yield directive and run it *nested*, before the batch body ends.
    JobOptions lat_opts;
    lat_opts.cls = JobClass::Latency;
    JobHandle latency = rt.submit(
        [&] {
            nested.store(!batch_finished.load(std::memory_order_acquire),
                         std::memory_order_release);
            latency_ran.store(true, std::memory_order_release);
        },
        lat_opts);

    latency.wait();
    batch.wait();
    EXPECT_EQ(latency.outcome(), JobOutcome::Done);
    EXPECT_EQ(batch.outcome(), JobOutcome::Done);
    EXPECT_TRUE(nested.load()); // ran while the batch body was live
    EXPECT_GE(rt.stats().counters.yields, 1u);
}

TEST(Preempt, NestedJobExceptionDoesNotPoisonThePreemptedJob)
{
    RuntimeOptions o = oneWorker();
    o.sched.serving.preempt = true;
    Runtime rt(o);

    std::atomic<bool> batch_started{false};
    std::atomic<bool> latency_ran{false};

    JobOptions batch_opts;
    batch_opts.cls = JobClass::Batch;
    JobHandle batch = rt.submit(
        [&] {
            batch_started.store(true, std::memory_order_release);
            spawnUntil(latency_ran);
        },
        batch_opts);
    awaitFlag(batch_started);

    JobOptions lat_opts;
    lat_opts.cls = JobClass::Latency;
    JobHandle latency = rt.submit(
        [&] {
            latency_ran.store(true, std::memory_order_release);
            throw std::runtime_error("nested failure");
        },
        lat_opts);

    // The nested job resolves Failed inside its own wrapper; the
    // preempted batch body resumes at the boundary and finishes Done.
    EXPECT_THROW(latency.wait(), std::runtime_error);
    EXPECT_EQ(latency.outcome(), JobOutcome::Failed);
    batch.wait();
    EXPECT_EQ(batch.outcome(), JobOutcome::Done);
    EXPECT_GE(rt.stats().counters.yields, 1u);
}

TEST(Preempt, DirectiveExpiresWhenTheJobWasClaimedElsewhere)
{
    // With preemption on but no higher-class job queued by the time the
    // boundary fires, the spawn path must stay a no-op: submit only
    // same-class jobs and assert no yields are ever serviced.
    RuntimeOptions o = oneWorker();
    o.sched.serving.preempt = true;
    Runtime rt(o);
    std::atomic<int> ran{0};
    std::vector<JobHandle> jobs;
    JobOptions opts;
    opts.cls = JobClass::Batch;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(rt.submit(
            [&ran] {
                TaskGroup tg;
                tg.spawn([] {});
                tg.sync();
                ran.fetch_add(1);
            },
            opts));
    for (JobHandle &h : jobs)
        h.wait();
    EXPECT_EQ(ran.load(), 8);
    // Same-class admissions never pick a victim (strictly-lower only).
    EXPECT_EQ(rt.stats().counters.yields, 0u);
}

// ---------------------------------------------------------------------
// Threaded engine: priority aging at the claim path
// ---------------------------------------------------------------------

TEST(Aging, StarvedBatchOutranksAFresherNormalJobAtClaimTime)
{
    RuntimeOptions o = oneWorker();
    o.sched.serving.agingWaitUs = 50'000; // one class per 50ms head wait
    Runtime rt(o);

    std::atomic<bool> blocker_started{false};
    std::atomic<bool> release{false};
    JobHandle blocker = rt.submit([&] {
        blocker_started.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    awaitFlag(blocker_started);

    std::atomic<int> order{0};
    std::atomic<int> batch_order{-1};
    std::atomic<int> normal_order{-1};
    JobOptions batch_opts;
    batch_opts.cls = JobClass::Batch;
    JobHandle batch = rt.submit(
        [&] { batch_order.store(order.fetch_add(1)); }, batch_opts);
    // Let the Batch head age past two promotion steps (2 * 50ms), so
    // its effective class reaches 0; the Normal job submitted below is
    // fresh (effective class 1) when the worker frees up.
    std::this_thread::sleep_for(120ms);
    JobOptions normal_opts;
    normal_opts.cls = JobClass::Normal;
    JobHandle normal = rt.submit(
        [&] { normal_order.store(order.fetch_add(1)); }, normal_opts);

    release.store(true, std::memory_order_release);
    blocker.wait();
    batch.wait();
    normal.wait();
    EXPECT_EQ(batch_order.load(), 0); // aged Batch claimed first
    EXPECT_EQ(normal_order.load(), 1);
    EXPECT_GE(rt.stats().counters.agedClaims, 1u);
}

TEST(Aging, OffByDefaultKeepsStrictNominalOrder)
{
    Runtime rt(oneWorker());
    std::atomic<bool> blocker_started{false};
    std::atomic<bool> release{false};
    JobHandle blocker = rt.submit([&] {
        blocker_started.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    awaitFlag(blocker_started);

    std::atomic<int> order{0};
    std::atomic<int> batch_order{-1};
    std::atomic<int> normal_order{-1};
    JobOptions batch_opts;
    batch_opts.cls = JobClass::Batch;
    JobHandle batch = rt.submit(
        [&] { batch_order.store(order.fetch_add(1)); }, batch_opts);
    std::this_thread::sleep_for(20ms); // head wait is irrelevant: no aging
    JobOptions normal_opts;
    normal_opts.cls = JobClass::Normal;
    JobHandle normal = rt.submit(
        [&] { normal_order.store(order.fetch_add(1)); }, normal_opts);

    release.store(true, std::memory_order_release);
    blocker.wait();
    batch.wait();
    normal.wait();
    EXPECT_EQ(normal_order.load(), 0); // nominal order: Normal first
    EXPECT_EQ(batch_order.load(), 1);
    EXPECT_EQ(rt.stats().counters.agedClaims, 0u);
}

// ---------------------------------------------------------------------
// Shed-aware unpark: no lost wakeups under bursty admission
// ---------------------------------------------------------------------

TEST(UnparkPressure, BurstAdmissionUnderPressureNeverLosesAJob)
{
    // Multiple submitters flood a 2-worker pool with parking enabled
    // and the unpark escalation armed; bounded liveness (every handle
    // resolves) plus a full outcome partition is the lost-wakeup check.
    RuntimeOptions o;
    o.numWorkers = 2;
    o.numPlaces = 1;
    o.sched.serving.shed = ShedPolicy::QueueDelay;
    for (int c = 0; c < kNumServingClasses; ++c)
        o.sched.serving.queueDelayTargetUs[c] = 50;
    o.sched.serving.unparkLeadPct = 50;
    o.sched.serving.preempt = true;
    Runtime rt(o);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 64;
    std::atomic<int> ran{0};
    std::vector<std::vector<JobHandle>> handles(kThreads);
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            handles[t].reserve(kPerThread);
            for (int i = 0; i < kPerThread; ++i) {
                JobOptions opts;
                opts.cls = static_cast<JobClass>(i % kNumJobClasses);
                handles[t].push_back(
                    rt.submit([&ran] { ran.fetch_add(1); }, opts));
            }
        });
    }
    for (std::thread &s : submitters)
        s.join();

    int done = 0;
    int resolved_unrun = 0;
    for (auto &per_thread : handles) {
        for (JobHandle &h : per_thread) {
            h.wait(); // bounded liveness: no handle may hang
            if (h.outcome() == JobOutcome::Done)
                ++done;
            else
                ++resolved_unrun;
        }
    }
    EXPECT_EQ(done, ran.load());
    EXPECT_EQ(done + resolved_unrun, kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// Simulator mirror
// ---------------------------------------------------------------------

namespace {

struct SimSetup
{
    sim::ComputationDag dag;
    std::vector<sim::SimJob> jobs;
};

/** @p n fib(10) jobs at @p rate_per_sec, classes via @p cls_of. */
template <typename ClsOf>
SimSetup
servingSetup(int n, double rate_per_sec, ClsOf cls_of, uint64_t seed = 7)
{
    SimSetup s;
    std::vector<sim::FrameId> roots;
    roots.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        roots.push_back(s.dag.append(workloads::fibDag(10)));
    sim::ArrivalProcess p;
    p.ratePerSec = rate_per_sec;
    p.seed = seed;
    const auto at = sim::arrivalCycles(p, n, 2.2);
    s.jobs.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        s.jobs[static_cast<std::size_t>(i)] = {
            roots[static_cast<std::size_t>(i)],
            at[static_cast<std::size_t>(i)], cls_of(i)};
    }
    return s;
}

} // namespace

TEST(SimPreempt, SaturatedRunsYieldAndStayFullyAccounted)
{
    // Mostly-Batch saturation with a sprinkle of Latency arrivals: the
    // preempt knob must produce actual yields, and every job must still
    // resolve exactly once.
    SimSetup s = servingSetup(120, 2e6,
                              [](int i) { return i % 8 == 0 ? 0 : 2; });
    sim::SimConfig cfg;
    cfg.sched.serving.preempt = true;
    const sim::ServingResult r =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    EXPECT_GT(r.sim.counters.yields, 0u);
    EXPECT_EQ(r.done + r.expired + r.cancelled + r.rejected,
              s.jobs.size());
    EXPECT_EQ(r.done, s.jobs.size()); // nothing sheds without a policy
}

TEST(SimPreempt, KnobsOnRunsAreByteDeterministic)
{
    SimSetup s = servingSetup(100, 2e6,
                              [](int i) { return i % 3; });
    sim::SimConfig cfg;
    cfg.modelParking = true;
    cfg.sched.parkSpinFailures = 4;
    cfg.sched.serving.shed = ShedPolicy::QueueDelay;
    for (int c = 0; c < kNumServingClasses; ++c)
        cfg.sched.serving.queueDelayTargetUs[c] = 10;
    cfg.sched.serving.preempt = true;
    cfg.sched.serving.agingWaitUs = 50;
    cfg.sched.serving.unparkLeadPct = 50;

    const sim::ServingResult a =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    const sim::ServingResult b =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].outcome, b.jobs[i].outcome) << "job " << i;
        // Bitwise-equal doubles: the decision sequence must be
        // identical, not merely close.
        EXPECT_EQ(a.jobs[i].startCycles, b.jobs[i].startCycles);
        EXPECT_EQ(a.jobs[i].finishCycles, b.jobs[i].finishCycles);
    }
    EXPECT_EQ(a.sim.counters.yields, b.sim.counters.yields);
    EXPECT_EQ(a.sim.counters.agedClaims, b.sim.counters.agedClaims);
    EXPECT_EQ(a.sim.elapsedCycles, b.sim.elapsedCycles);
    EXPECT_EQ(a.p99Us, b.p99Us);
    EXPECT_EQ(a.goodputPerSec, b.goodputPerSec);
}

TEST(SimPreempt, AgingPromotesStarvedBatchClaims)
{
    // Heavy Latency flood plus a few Batch jobs: with aging on, starved
    // Batch heads are eventually claimed via promotion.
    SimSetup s = servingSetup(150, 2e6,
                              [](int i) { return i % 10 == 0 ? 2 : 0; });
    sim::SimConfig cfg;
    cfg.sched.serving.agingWaitUs = 5;
    const sim::ServingResult r =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    EXPECT_GT(r.sim.counters.agedClaims, 0u);
    EXPECT_EQ(r.done + r.expired + r.cancelled + r.rejected,
              s.jobs.size());
}

TEST(SimPreempt, UnparkPressureLeadsTheShedCrossing)
{
    SimSetup s = servingSetup(150, 2e6, [](int i) { return i % 3; });
    sim::SimConfig cfg;
    cfg.modelParking = true;
    cfg.sched.parkSpinFailures = 4;
    cfg.sched.serving.shed = ShedPolicy::QueueDelay;
    for (int c = 0; c < kNumServingClasses; ++c)
        cfg.sched.serving.queueDelayTargetUs[c] = 10;
    cfg.sched.serving.unparkLeadPct = 50;
    const sim::ServingResult r =
        sim::simulateServingPacked(s.dag, s.jobs, 4, cfg);
    // This arrival rate drives the EWMA through both thresholds; the
    // 50% lead point must fire no later than the crossing itself.
    ASSERT_GT(r.sim.firstShedCrossCycles, 0u);
    ASSERT_GT(r.sim.firstUnparkPressureCycles, 0u);
    EXPECT_LE(r.sim.firstUnparkPressureCycles,
              r.sim.firstShedCrossCycles);
}
