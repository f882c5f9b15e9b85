/**
 * @file
 * StealCore policy-core tests: the differential engine-parity replay
 * and the EWMA park-tuning units.
 *
 * The parity test is the lock on PR 4's contract: the threaded runtime
 * and the simulator are thin drivers over one shared StealCore, so for
 * the same policy, seed, and topology they must make *identical*
 * decisions. Two drivers — one shaped like Worker::trySteal/mainLoop,
 * one shaped like the simulator's stepStealAttempt/run loop — replay
 * the same recorded world trace through separate cores under a mock
 * EngineView and must emit byte-identical action sequences. If someone
 * reintroduces an engine-side policy branch (the pre-PR 4 disease),
 * the traces diverge here before any bench gate can drift.
 *
 * Runs under ASan/UBSan in CI's sanitizer job.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "sched/policy.h"
#include "sched/steal_core.h"
#include "sim/scheduler.h"
#include "topology/machine.h"
#include "topology/steal_distribution.h"

using namespace numaws;

namespace {

// ---------------------------------------------------------------------
// Mock engine: a deterministic world both drivers replay in lockstep
// ---------------------------------------------------------------------

/**
 * Work-queue state for every worker plus an exact OccupancyBoard (the
 * simulator's discipline: every transition published at its mutation
 * site). All mutations are functions of the core's actions and a
 * private fixed-seed refill RNG, so two replays with equally-seeded
 * cores see identical worlds at every step.
 */
struct MockWorld
{
    const StealDistribution &dist;
    OccupancyBoard board;
    std::vector<int> deq;
    std::vector<int> mail;
    Rng refill{123};

    explicit MockWorld(const StealDistribution &d)
        : dist(d),
          board(d.numWorkers(), d.workerSockets()),
          deq(static_cast<std::size_t>(d.numWorkers()), 0),
          mail(static_cast<std::size_t>(d.numWorkers()), 0)
    {}

    void
    setDeque(int w, int n)
    {
        deq[static_cast<std::size_t>(w)] = n;
        board.publishDeque(w, n > 0);
    }

    void
    setMail(int w, int n)
    {
        mail[static_cast<std::size_t>(w)] = n;
        board.publishMailbox(w, n > 0);
    }

    /** Take one parked frame; false when the mailbox is empty. */
    bool
    takeMailbox(int w)
    {
        if (mail[static_cast<std::size_t>(w)] == 0)
            return false;
        setMail(w, mail[static_cast<std::size_t>(w)] - 1);
        return true;
    }

    /**
     * Steal one frame from @p w's deque; false when it is empty. Both
     * engine shapes share it — the mock replaces the engines' deque
     * mechanics, not the core's decisions.
     */
    bool
    takeDeque(int w)
    {
        const int have = deq[static_cast<std::size_t>(w)];
        if (have == 0)
            return false;
        setDeque(w, have - 1);
        return true;
    }

    /** Periodic refill: pseudo-random but a pure function of the
     * refill RNG, identical across replays. */
    void
    refillSome()
    {
        for (int w = 0; w < dist.numWorkers(); ++w) {
            if (refill.nextBounded(4) == 0)
                setDeque(w, static_cast<int>(refill.nextBounded(6)));
            if (refill.nextBounded(8) == 0)
                setMail(w, static_cast<int>(refill.nextBounded(2)));
        }
    }

    /** Empty every deque and mailbox of @p socket (it went idle). */
    void
    drainSocket(int socket)
    {
        for (int w = 0; w < dist.numWorkers(); ++w) {
            if (dist.socketOfWorker(w) == socket) {
                setDeque(w, 0);
                setMail(w, 0);
            }
        }
    }

    /** Workers [first, last) of @p socket (even-spread packing). */
    std::pair<int, int>
    workersOfSocket(int socket) const
    {
        int first = -1, last = -1;
        for (int w = 0; w < dist.numWorkers(); ++w) {
            if (dist.socketOfWorker(w) == socket) {
                if (first < 0)
                    first = w;
                last = w + 1;
            }
        }
        return {first, last};
    }
};

std::string
serialize(const StealAction &a)
{
    std::ostringstream s;
    if (a.kind == StealAction::Kind::DryPoll)
        return "D";
    s << "P v" << a.victim << " m" << a.checkMailboxFirst << " i"
      << a.informedConsult;
    return s.str();
}

/**
 * One steal-path step, shaped like the named engine's driver. The two
 * shapes make the same core calls in the same order (that is PR 4's
 * point); they differ in how the surrounding mechanics would charge or
 * execute them, which the mock abstracts away. `threaded_shape` keeps
 * the cosmetic differences honest: e.g. the threaded driver passes
 * self=-1 to pickPushReceiver (its pusher is never in the target
 * range) where the sim passes its core id — same decision by contract.
 */
void
replayStep(StealCore &core, MockWorld &world, bool threaded_shape,
           int step, std::string &trace)
{
    if (step % 7 == 0)
        world.refillSome();

    const StealAction a = core.nextAction();
    trace += serialize(a);
    bool got = false;
    if (a.kind == StealAction::Kind::Probe) {
        bool from_deque = false;
        if (a.checkMailboxFirst)
            got = world.takeMailbox(a.victim);
        if (!got)
            got = from_deque = world.takeDeque(a.victim);
        core.onStealResult(a, got);
        trace += got ? "|hit" : "|miss";
        // Surplus-steal wake (threaded: Worker::trySteal; sim:
        // stepStealAttempt): a deque hit names the place to wake.
        // Sleepers rotate with the step.
        if (from_deque) {
            const int place = core.surplusWakePlace(
                world.deq[static_cast<std::size_t>(a.victim)] > 0,
                [step](int p) { return (p + step) % 3 == 0; });
            trace += " wake p" + std::to_string(place);
        }
    }

    // A successful steal on every 3rd step runs a PUSHBACK episode
    // toward the next socket over (pusher outside the target range).
    if (got && step % 3 == 0) {
        const int sockets = world.board.numSockets();
        const int target = (core.socket() + 1) % sockets;
        const auto [first, last] = world.workersOfSocket(target);
        uint32_t push_count = 0;
        while (push_count
               < static_cast<uint32_t>(core.policy().pushThreshold)) {
            const int receiver = core.pickPushReceiver(
                first, last,
                threaded_shape ? -1 : core.self(), target);
            // Mock acceptance rule: capacity-1 mailboxes.
            const bool ok =
                world.mail[static_cast<std::size_t>(receiver)] == 0;
            trace += " push r" + std::to_string(receiver)
                     + (ok ? "+" : "-");
            if (ok) {
                world.setMail(receiver,
                              world.mail[static_cast<std::size_t>(
                                  receiver)]
                                  + 1);
                break;
            }
            ++push_count;
        }
    }

    // Every 5th step spawns a child hinted for the next socket over:
    // the spawn-time delivery decision (threaded: TaskGroup::spawn ->
    // Worker::deliverSpawn; sim: the Spawn step's deliverSpawn). Both
    // shapes deposit when the core names a receiver, which the exact
    // board guarantees has an empty mailbox.
    if (step % 5 == 0) {
        const int sockets = world.board.numSockets();
        const Place hint =
            static_cast<Place>((core.socket() + 1) % sockets);
        if (step % 35 == 0)
            world.drainSocket(hint); // let some spawns find it dry
        if (core.deliversSpawnTo(hint)) {
            const auto [first, last] = world.workersOfSocket(hint);
            // Every third worker sleeps, rotating with the step.
            const int receiver = core.pickSpawnReceiver(
                first, last, hint,
                [step](int w) { return (w + step) % 3 == 0; });
            trace += " spawn r" + std::to_string(receiver);
            if (receiver >= 0)
                world.setMail(receiver,
                              world.mail[static_cast<std::size_t>(
                                  receiver)]
                                  + 1);
        } else {
            trace += " spawn local";
        }
    }

    // Park protocol: fruitless steps feed the streak; a park request
    // resolves immediately against the board (the mock's "wake").
    if (got) {
        core.noteProgress();
    } else {
        core.noteFruitless();
        if (core.takeParkRequest()) {
            const bool found =
                world.board.anyWorkFor(core.socket());
            trace += " park t"
                     + std::to_string(
                         static_cast<int64_t>(core.parkTimeoutUs()))
                     + (found ? "w" : "d");
            core.onParkOutcome(found);
        }
    }
    trace += "\n";
}

SchedPolicy
fullPolicy()
{
    SchedPolicy p;
    p.parkSpinFailures = 4; // park often: exercise the tuner
    return p;
}

std::string
replay(bool threaded_shape, const SchedPolicy &policy, int self,
       uint64_t seed, int steps, StealCoreCounters *counters_out)
{
    const Machine machine = Machine::paperMachineSubset(16);
    StealDistribution dist(machine, 16, policy.biasWeights);
    MockWorld world(dist);
    StealCore core(policy, EngineView{&dist, &world.board}, self,
                   dist.socketOfWorker(self), seed);
    core.setAffinity(1u << dist.socketOfWorker(self));
    std::string trace;
    for (int step = 0; step < steps; ++step)
        replayStep(core, world, threaded_shape, step, trace);
    if (counters_out != nullptr)
        *counters_out = core.counters();
    return trace;
}

// ---------------------------------------------------------------------
// Differential engine parity
// ---------------------------------------------------------------------

TEST(EngineParity, DriversIssueByteIdenticalActionSequences)
{
    const SchedPolicy policy = fullPolicy();
    StealCoreCounters ct{}, cs{};
    const std::string threaded =
        replay(/*threaded_shape=*/true, policy, /*self=*/5,
               /*seed=*/0xfeed, /*steps=*/600, &ct);
    const std::string sim =
        replay(/*threaded_shape=*/false, policy, /*self=*/5,
               /*seed=*/0xfeed, /*steps=*/600, &cs);
    EXPECT_EQ(threaded, sim);
    // The decision counters are part of the contract too.
    EXPECT_EQ(ct.stealAttempts, cs.stealAttempts);
    EXPECT_EQ(ct.dryPolls, cs.dryPolls);
    EXPECT_EQ(ct.levelSkips, cs.levelSkips);
    EXPECT_EQ(ct.escalations, cs.escalations);
    // And the replay genuinely exercised the informed machinery,
    // including spawn-time deliveries that landed.
    EXPECT_GT(ct.stealAttempts, 0u);
    EXPECT_GT(ct.dryPolls + ct.levelSkips, 0u);
    EXPECT_EQ(threaded.find(" spawn local"), std::string::npos);
    int delivered = 0, kept = 0;
    for (std::size_t at = threaded.find(" spawn r"); at != std::string::npos;
         at = threaded.find(" spawn r", at + 1))
        ++(threaded[at + 8] == '-' ? kept : delivered);
    EXPECT_GT(delivered, 0);
    EXPECT_GT(kept, 0);
    // Surplus steals woke the thief's own place and other places, and
    // steals that emptied their victim woke no one.
    const int self_socket = 1; // worker 5 of 16 on four sockets
    int own = 0, other = 0, none = 0;
    for (std::size_t at = threaded.find(" wake p"); at != std::string::npos;
         at = threaded.find(" wake p", at + 1)) {
        const int place = std::stoi(threaded.substr(at + 7));
        ++(place < 0 ? none : (place == self_socket ? own : other));
    }
    EXPECT_GT(own, 0);
    EXPECT_GT(other, 0);
    EXPECT_GT(none, 0);
}

TEST(EngineParity, HoldsAcrossSeedsWorkersAndPaperBaseline)
{
    for (const uint64_t seed : {1ULL, 0x5eedULL, 99991ULL}) {
        for (const int self : {0, 7, 15}) {
            const std::string a =
                replay(true, fullPolicy(), self, seed, 200, nullptr);
            const std::string b =
                replay(false, fullPolicy(), self, seed, 200, nullptr);
            EXPECT_EQ(a, b) << "seed=" << seed << " self=" << self;
            // The paper-literal baseline (flat search, timer parking,
            // random receivers) must agree as well.
            const SchedPolicy paper = SchedPolicy::paperBaseline();
            EXPECT_EQ(replay(true, paper, self, seed, 200, nullptr),
                      replay(false, paper, self, seed, 200, nullptr))
                << "paper seed=" << seed << " self=" << self;
        }
    }
}

TEST(EngineParity, SameSeedSameTraceAcrossRuns)
{
    // Determinism of the core itself: the property that keeps the
    // simulator byte-reproducible per seed while sharing this code.
    const std::string a =
        replay(true, fullPolicy(), 3, 0xabc, 300, nullptr);
    const std::string b =
        replay(true, fullPolicy(), 3, 0xabc, 300, nullptr);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// Shipped defaults vs the paper baseline
// ---------------------------------------------------------------------

TEST(SchedPolicyDefaults, ShippedSearchIsInformedPaperFactoriesAreFlat)
{
    // Both engines ship the informed hierarchical search...
    EXPECT_TRUE(SchedPolicy{}.hierarchicalSteals);
    EXPECT_TRUE(RuntimeOptions{}.sched.hierarchicalSteals);
    EXPECT_TRUE(sim::SimConfig{}.sched.hierarchicalSteals);
    // ...while every paper-literal configuration keeps flat search.
    EXPECT_FALSE(SchedPolicy::paperBaseline().hierarchicalSteals);
    EXPECT_FALSE(sim::SimConfig::numaWs().sched.hierarchicalSteals);
    EXPECT_FALSE(sim::SimConfig::classicWs().sched.hierarchicalSteals);
    EXPECT_FALSE(sim::SimConfig::serial().sched.hierarchicalSteals);
}

TEST(SchedPolicyDefaults, ShippedSpawnsDeliverPaperFactoriesStayLazy)
{
    // Spawn-time delivery of hinted children ships in both engines...
    EXPECT_TRUE(SchedPolicy{}.deliverHintedSpawns);
    EXPECT_TRUE(RuntimeOptions{}.sched.deliverHintedSpawns);
    EXPECT_TRUE(sim::SimConfig{}.sched.deliverHintedSpawns);
    // ...while the paper's Figure 5 checks places only lazily.
    EXPECT_FALSE(SchedPolicy::paperBaseline().deliverHintedSpawns);
    EXPECT_FALSE(sim::SimConfig::numaWs().sched.deliverHintedSpawns);
    EXPECT_FALSE(sim::SimConfig::classicWs().sched.deliverHintedSpawns);
    EXPECT_FALSE(sim::SimConfig::serial().sched.deliverHintedSpawns);
}

// ---------------------------------------------------------------------
// Spawn-time delivery decisions
// ---------------------------------------------------------------------

TEST(StealCoreSpawn, DeliversOnlyConcreteHintsForOtherPlaces)
{
    const Machine machine = Machine::paperMachineSubset(16);
    SchedPolicy shipped;
    StealDistribution dist(machine, 16, shipped.biasWeights);
    OccupancyBoard board(16, dist.workerSockets());
    const int self = 0;
    const int socket = dist.socketOfWorker(self);
    const StealCore core(shipped, EngineView{&dist, &board}, self, socket,
                         1);
    EXPECT_FALSE(core.deliversSpawnTo(kAnyPlace));
    EXPECT_FALSE(core.deliversSpawnTo(static_cast<Place>(socket)));
    EXPECT_TRUE(core.deliversSpawnTo(static_cast<Place>(socket + 1)));

    SchedPolicy off = shipped;
    off.deliverHintedSpawns = false;
    const StealCore lazy(off, EngineView{&dist, &board}, self, socket, 1);
    EXPECT_FALSE(lazy.deliversSpawnTo(static_cast<Place>(socket + 1)));
    SchedPolicy classic = shipped;
    classic.useMailboxes = false;
    const StealCore ws(classic, EngineView{&dist, &board}, self, socket,
                       1);
    EXPECT_FALSE(ws.deliversSpawnTo(static_cast<Place>(socket + 1)));
}

TEST(StealCoreSpawn, DeliversOnlyToAwakeWorkersOfDryPlaces)
{
    const Machine machine = Machine::paperMachineSubset(16);
    SchedPolicy shipped;
    StealDistribution dist(machine, 16, shipped.biasWeights);
    OccupancyBoard board(16, dist.workerSockets());
    StealCore core(shipped, EngineView{&dist, &board}, 0,
                   dist.socketOfWorker(0), 1);
    const int target = dist.socketOfWorker(15);
    int first = 16, last = 0;
    for (int w = 0; w < 16; ++w)
        if (dist.socketOfWorker(w) == target) {
            first = std::min(first, w);
            last = std::max(last, w + 1);
        }
    ASSERT_LT(first, last);
    const auto awake = [](int) { return false; };
    // A dry place: any of its workers may receive the child.
    for (int i = 0; i < 16; ++i) {
        const int r = core.pickSpawnReceiver(first, last, target, awake);
        EXPECT_GE(r, first);
        EXPECT_LT(r, last);
    }
    // A sleeping receiver keeps the spawn local (no second pick).
    EXPECT_EQ(core.pickSpawnReceiver(first, last, target,
                                     [](int) { return true; }),
              -1);
    // One advertised deque or mailbox on the place keeps the spawn
    // work-first: no receiver, and no blind probe instead.
    board.publishDeque(first, true);
    EXPECT_EQ(core.pickSpawnReceiver(first, last, target, awake), -1);
    board.publishDeque(first, false);
    board.publishMailbox(last - 1, true);
    EXPECT_EQ(core.pickSpawnReceiver(first, last, target, awake), -1);
    // A place with no workers never receives.
    EXPECT_EQ(core.pickSpawnReceiver(first, first, target, awake), -1);
}

// ---------------------------------------------------------------------
// EWMA park tuning
// ---------------------------------------------------------------------

TEST(ParkTuner, NeutralPriorMatchesConfiguredConstants)
{
    // At the neutral prior the tuned knobs equal the configured
    // constants, so a fresh worker runs the SchedPolicy values and
    // diverges only with evidence.
    ParkTuner t(64);
    EXPECT_DOUBLE_EQ(t.dryRate(), 0.5);
    EXPECT_EQ(t.spinBudget(), 64);
    EXPECT_DOUBLE_EQ(t.timeoutScale(), 1.0);
}

TEST(ParkTuner, ProductiveParksRaiseSpinAndShortenTimeouts)
{
    ParkTuner t(64);
    for (int i = 0; i < 64; ++i)
        t.observe(/*found_work=*/true);
    EXPECT_LT(t.dryRate(), 0.01);
    EXPECT_EQ(t.spinBudget(), 2 * 64); // clamped at 2x the base
    EXPECT_DOUBLE_EQ(t.timeoutScale(), 0.5); // floor
}

TEST(ParkTuner, DryParksCutSpinAndStretchTimeouts)
{
    ParkTuner t(64);
    for (int i = 0; i < 64; ++i)
        t.observe(/*found_work=*/false);
    EXPECT_GT(t.dryRate(), 0.99);
    EXPECT_EQ(t.spinBudget(), 64 / 4); // floor: base/4
    EXPECT_DOUBLE_EQ(t.timeoutScale(), 4.0); // ceiling
}

TEST(ParkTuner, BudgetNeverLeavesItsClamps)
{
    ParkTuner t(2);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        t.observe(rng.flip());
        EXPECT_GE(t.spinBudget(), 1);
        EXPECT_LE(t.spinBudget(), 4);
        EXPECT_GE(t.timeoutScale(), 0.5);
        EXPECT_LE(t.timeoutScale(), 4.0);
    }
}

TEST(StealCorePark, EwmaTuningMovesTheCoreTimeout)
{
    SchedPolicy p;
    ASSERT_TRUE(p.boardParking()); // PR 4 default
    const Machine machine = Machine::paperMachineSubset(8);
    StealDistribution dist(machine, 8, p.biasWeights);
    OccupancyBoard board(8, dist.workerSockets());
    StealCore core(p, EngineView{&dist, &board}, 0, 0, 1);
    EXPECT_DOUBLE_EQ(core.parkTimeoutUs(), p.parkFallbackUs);
    for (int i = 0; i < 32; ++i)
        core.onParkOutcome(/*found_work=*/false);
    EXPECT_DOUBLE_EQ(core.parkTimeoutUs(), 4.0 * p.parkFallbackUs);
    for (int i = 0; i < 64; ++i)
        core.onParkOutcome(/*found_work=*/true);
    EXPECT_DOUBLE_EQ(core.parkTimeoutUs(), 0.5 * p.parkFallbackUs);
}

TEST(StealCorePark, SpinBudgetGovernsParkRequests)
{
    SchedPolicy p;
    p.parkSpinFailures = 3;
    const Machine machine = Machine::paperMachineSubset(8);
    StealDistribution dist(machine, 8, p.biasWeights);
    OccupancyBoard board(8, dist.workerSockets());
    StealCore core(p, EngineView{&dist, &board}, 0, 0, 1);
    core.noteFruitless();
    core.noteFruitless();
    EXPECT_FALSE(core.takeParkRequest());
    core.noteFruitless();
    EXPECT_TRUE(core.takeParkRequest());
    EXPECT_FALSE(core.takeParkRequest()); // consumed
    // Progress resets the streak.
    core.noteFruitless();
    core.noteFruitless();
    core.noteProgress();
    core.noteFruitless();
    core.noteFruitless();
    EXPECT_FALSE(core.takeParkRequest());
}

TEST(StealCorePark, TimerPolicyUsesTheTimerPeriod)
{
    SchedPolicy p = SchedPolicy::paperBaseline();
    ASSERT_FALSE(p.boardParking());
    const Machine machine = Machine::paperMachineSubset(8);
    StealDistribution dist(machine, 8, p.biasWeights);
    OccupancyBoard board(8, dist.workerSockets());
    StealCore core(p, EngineView{&dist, &board}, 0, 0, 1);
    EXPECT_DOUBLE_EQ(core.parkTimeoutUs(), p.parkTimerUs);
}

// ---------------------------------------------------------------------
// Publish-edge wake directives (the third engine touchpoint)
// ---------------------------------------------------------------------

TEST(StealCoreWake, DirectivesFollowTheParkPolicy)
{
    const Machine machine = Machine::paperMachineSubset(8);
    SchedPolicy board_park; // PR 4 default: board parking
    StealDistribution dist(machine, 8, board_park.biasWeights);
    OccupancyBoard board(8, dist.workerSockets());
    StealCore b(board_park, EngineView{&dist, &board}, 0, 0, 1);
    EXPECT_EQ(b.onPublishEdge(true), WakeDirective::TargetedSocket);
    EXPECT_EQ(b.onPublishEdge(false), WakeDirective::None);

    StealCore t(SchedPolicy::paperBaseline(), EngineView{&dist, &board},
                0, 0, 1);
    EXPECT_EQ(t.onPublishEdge(true), WakeDirective::Global);
    EXPECT_EQ(t.onPublishEdge(false), WakeDirective::Global);
}

TEST(StealCoreWake, SurplusWakeSearchesPlacesOutwardFromTheThief)
{
    // Paper machine: sockets 0-1, 0-2, 1-3 and 2-3 are one hop apart,
    // 0-3 and 1-2 two. The thief sits on socket 1.
    const Machine machine = Machine::paperMachineSubset(32);
    const SchedPolicy policy;
    StealDistribution dist(machine, 32, policy.biasWeights);
    OccupancyBoard board(32, dist.workerSockets());
    const int self = 8;
    ASSERT_EQ(dist.socketOfWorker(self), 1);
    StealCore core(policy, EngineView{&dist, &board}, self, 1, 1);
    const auto sleeping = [](std::vector<int> places) {
        return [places](int p) {
            return std::find(places.begin(), places.end(), p)
                   != places.end();
        };
    };
    EXPECT_EQ(core.surplusWakePlace(true, sleeping({0, 1, 2, 3})), 1);
    EXPECT_EQ(core.surplusWakePlace(true, sleeping({0, 2, 3})), 0);
    EXPECT_EQ(core.surplusWakePlace(true, sleeping({2, 3})), 3);
    EXPECT_EQ(core.surplusWakePlace(true, sleeping({2})), 2);
    EXPECT_EQ(core.surplusWakePlace(true, sleeping({})), -1);
    // A steal that emptied its victim leaves nothing to wake for.
    EXPECT_EQ(core.surplusWakePlace(false, sleeping({0, 1, 2, 3})), -1);
    // Timer parking already notifies on every publish.
    StealCore timer(SchedPolicy::paperBaseline(),
                    EngineView{&dist, &board}, self, 1, 1);
    EXPECT_EQ(timer.surplusWakePlace(true, sleeping({0, 1, 2, 3})), -1);
}

} // namespace
