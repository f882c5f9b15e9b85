/**
 * @file
 * Tests for the machine topology and the locality-biased steal
 * distribution, including the theory-critical property that every victim
 * keeps probability >= 1/(cP) (Section IV's Lemma 1 precondition).
 */
#include <gtest/gtest.h>

#include "support/stats.h"
#include "topology/machine.h"
#include "topology/steal_distribution.h"

namespace numaws {
namespace {

TEST(Machine, PaperMachineMatchesFigure1)
{
    const Machine m = Machine::paperMachine();
    EXPECT_EQ(m.numSockets(), 4);
    EXPECT_EQ(m.coresPerSocket(), 8);
    EXPECT_EQ(m.numCores(), 32);
    EXPECT_DOUBLE_EQ(m.ghz(), 2.2);
    // QPI square: 0-1, 0-2, 1-3, 2-3 adjacent; 0-3, 1-2 two hops.
    EXPECT_EQ(m.hops(0, 0), 0);
    EXPECT_EQ(m.hops(0, 1), 1);
    EXPECT_EQ(m.hops(0, 2), 1);
    EXPECT_EQ(m.hops(0, 3), 2);
    EXPECT_EQ(m.hops(1, 2), 2);
    EXPECT_EQ(m.hops(2, 3), 1);
    EXPECT_EQ(m.maxHops(), 2);
}

TEST(Machine, DistanceMatrixIsSymmetric)
{
    const Machine m = Machine::paperMachine();
    for (int i = 0; i < m.numSockets(); ++i)
        for (int j = 0; j < m.numSockets(); ++j)
            EXPECT_EQ(m.distance(i, j), m.distance(j, i));
}

TEST(Machine, SocketOfCorePacksSocketMajor)
{
    const Machine m = Machine::paperMachine();
    EXPECT_EQ(m.socketOfCore(0), 0);
    EXPECT_EQ(m.socketOfCore(7), 0);
    EXPECT_EQ(m.socketOfCore(8), 1);
    EXPECT_EQ(m.socketOfCore(31), 3);
    const auto [b, e] = m.coreRangeOfSocket(2);
    EXPECT_EQ(b, 16);
    EXPECT_EQ(e, 24);
}

TEST(Machine, SubsetUsesFewestSockets)
{
    EXPECT_EQ(Machine::paperMachineSubset(1).numSockets(), 1);
    EXPECT_EQ(Machine::paperMachineSubset(8).numSockets(), 1);
    EXPECT_EQ(Machine::paperMachineSubset(9).numSockets(), 2);
    EXPECT_EQ(Machine::paperMachineSubset(16).numSockets(), 2);
    EXPECT_EQ(Machine::paperMachineSubset(24).numSockets(), 3);
    EXPECT_EQ(Machine::paperMachineSubset(32).numSockets(), 4);
}

TEST(Machine, CyclesToSecondsUsesFrequency)
{
    const Machine m = Machine::paperMachine();
    EXPECT_DOUBLE_EQ(m.cyclesToSeconds(2.2e9), 1.0);
}

TEST(Machine, DescribeMentionsTopology)
{
    const std::string d = Machine::paperMachine().describe();
    EXPECT_NE(d.find("4-socket"), std::string::npos);
    EXPECT_NE(d.find("SLIT"), std::string::npos);
}

TEST(StealDistribution, RowsSumToOne)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    for (int t = 0; t < 32; ++t) {
        double sum = 0.0;
        for (int v = 0; v < 32; ++v)
            sum += d.probability(t, v);
        EXPECT_NEAR(sum, 1.0, 1e-9);
        EXPECT_DOUBLE_EQ(d.probability(t, t), 0.0);
    }
}

TEST(StealDistribution, BiasOrdersByHopCount)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    // Thief on socket 0: local victims > one-hop victims > two-hop.
    const double local = d.probability(0, 1);   // worker 1, socket 0
    const double one_hop = d.probability(0, 8); // worker 8, socket 1
    const double two_hop = d.probability(0, 24); // worker 24, socket 3
    EXPECT_GT(local, one_hop);
    EXPECT_GT(one_hop, two_hop);
    EXPECT_GT(two_hop, 0.0);
}

TEST(StealDistribution, UniformWeightsRecoverClassic)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights::uniform());
    for (int v = 1; v < 32; ++v)
        EXPECT_NEAR(d.probability(0, v), 1.0 / 31.0, 1e-12);
}

TEST(StealDistribution, MinProbabilityStaysConstantFactorOfUniform)
{
    // The proof needs every victim hit with probability >= 1/(cP); with
    // the default 8:2:1 weights, c is a small constant.
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    const double uniform = 1.0 / 31.0;
    EXPECT_GT(d.minProbability(), uniform / 8.0);
}

TEST(StealDistribution, SamplingMatchesProbabilities)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 16, BiasWeights{});
    Rng rng(123);
    CategoryCounter counts(16);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        counts.add(static_cast<std::size_t>(d.sample(3, rng)));
    EXPECT_EQ(counts.count(3), 0); // never self
    for (int v = 0; v < 16; ++v) {
        if (v == 3)
            continue;
        EXPECT_NEAR(counts.fraction(static_cast<std::size_t>(v)),
                    d.probability(3, v), 0.01)
            << "victim " << v;
    }
}

TEST(StealDistribution, EvenSpreadAssignsWorkersToSockets)
{
    const Machine m = Machine::paperMachine();
    // 12 workers on the 4-socket machine: ceil(12/4)=3 per socket.
    const StealDistribution d(m, 12, BiasWeights{});
    EXPECT_EQ(d.socketOfWorker(0), 0);
    EXPECT_EQ(d.socketOfWorker(2), 0);
    EXPECT_EQ(d.socketOfWorker(3), 1);
    EXPECT_EQ(d.socketOfWorker(11), 3);
}

TEST(StealDistribution, TwoWorkersAlwaysPickEachOther)
{
    const Machine m = Machine::singleSocket(2);
    const StealDistribution d(m, 2, BiasWeights{});
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(d.sample(0, rng), 1);
        EXPECT_EQ(d.sample(1, rng), 0);
    }
}

// ---------------------------------------------------------------------
// Hierarchical victim search
// ---------------------------------------------------------------------

TEST(StealHierarchy, LevelOfMatchesTopology)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    // Thief 0 on socket 0: worker 1 is its pair buddy, 2..7 share the
    // socket, sockets 1 and 2 are one hop, socket 3 is two hops.
    EXPECT_EQ(d.levelOf(0, 1), kLevelCore);
    EXPECT_EQ(d.levelOf(0, 2), kLevelPlace);
    EXPECT_EQ(d.levelOf(0, 7), kLevelPlace);
    EXPECT_EQ(d.levelOf(0, 8), kLevelSocket);  // socket 1, one hop
    EXPECT_EQ(d.levelOf(0, 16), kLevelSocket); // socket 2, one hop
    EXPECT_EQ(d.levelOf(0, 24), kLevelRemote); // socket 3, two hops
    // Levels are symmetric for pair buddies and socket mates.
    EXPECT_EQ(d.levelOf(1, 0), kLevelCore);
    EXPECT_EQ(d.levelOf(9, 8), kLevelCore);
    // Thief 8 on socket 1: sockets 0 and 3 adjacent, socket 2 two hops.
    EXPECT_EQ(d.levelOf(8, 0), kLevelSocket);
    EXPECT_EQ(d.levelOf(8, 16), kLevelRemote);
}

TEST(StealHierarchy, PrefixCountsAreMonotoneAndComplete)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    for (int t = 0; t < 32; ++t) {
        int prev = 0;
        for (int level = 0; level < kNumStealLevels; ++level) {
            const int n = d.victimsWithinLevel(t, level);
            EXPECT_GE(n, prev);
            prev = n;
        }
        // The outermost prefix always covers every other worker, which
        // is what lets a starving thief reach any victim.
        EXPECT_EQ(d.victimsWithinLevel(t, kLevelRemote), 31);
    }
    // Thief 0 concretely: 1 pair buddy, 6 socket mates, 16 one-hop
    // workers, 8 two-hop workers.
    EXPECT_EQ(d.victimsWithinLevel(0, kLevelCore), 1);
    EXPECT_EQ(d.victimsWithinLevel(0, kLevelPlace), 7);
    EXPECT_EQ(d.victimsWithinLevel(0, kLevelSocket), 23);
    EXPECT_EQ(d.victimsWithinLevel(0, kLevelRemote), 31);
}

TEST(StealHierarchy, SampleAtLevelStaysInsideTheRadius)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const int v_core = d.sampleAtLevel(0, kLevelCore, rng);
        EXPECT_EQ(v_core, 1); // the only pair buddy
        const int v_place = d.sampleAtLevel(0, kLevelPlace, rng);
        EXPECT_GE(v_place, 1);
        EXPECT_LE(v_place, 7);
        const int v_socket = d.sampleAtLevel(0, kLevelSocket, rng);
        EXPECT_LE(d.levelOf(0, v_socket), kLevelSocket);
        const int v_any = d.sampleAtLevel(0, kLevelRemote, rng);
        EXPECT_NE(v_any, 0); // never the thief
    }
}

TEST(StealHierarchy, EmptyInnerLevelsEscalateInternally)
{
    // One worker per socket: no Core or Place victims exist, so a
    // Core-level sample must silently widen instead of spinning.
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 4, BiasWeights{});
    EXPECT_EQ(d.victimsWithinLevel(0, kLevelCore), 0);
    EXPECT_EQ(d.victimsWithinLevel(0, kLevelPlace), 0);
    EXPECT_EQ(d.victimsWithinLevel(0, kLevelSocket), 2);
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        const int v = d.sampleAtLevel(0, kLevelCore, rng);
        // Workers 1 and 2 sit on the one-hop sockets of the QPI square.
        EXPECT_TRUE(v == 1 || v == 2) << "victim " << v;
    }
}

TEST(StealHierarchy, SamplingAtOutermostLevelIsUniform)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 16, BiasWeights{});
    Rng rng(123);
    CategoryCounter counts(16);
    const int n = 150000;
    for (int i = 0; i < n; ++i)
        counts.add(static_cast<std::size_t>(
            d.sampleAtLevel(3, kLevelRemote, rng)));
    EXPECT_EQ(counts.count(3), 0);
    for (int v = 0; v < 16; ++v) {
        if (v == 3)
            continue;
        EXPECT_NEAR(counts.fraction(static_cast<std::size_t>(v)),
                    1.0 / 15.0, 0.01)
            << "victim " << v;
    }
}

TEST(StealEscalation, WidensAfterConsecutiveFailuresOnly)
{
    StealEscalation e(2);
    EXPECT_EQ(e.level(), kLevelCore);
    e.onFailedSteal();
    EXPECT_EQ(e.level(), kLevelCore); // one failure is not enough
    e.onFailedSteal();
    EXPECT_EQ(e.level(), kLevelPlace);
    e.onFailedSteal();
    e.onFailedSteal();
    EXPECT_EQ(e.level(), kLevelSocket);
    e.onFailedSteal();
    e.onFailedSteal();
    EXPECT_EQ(e.level(), kLevelRemote);
    EXPECT_TRUE(e.atOutermostLevel());
    // Saturates at the outermost level: a starving worker keeps probing
    // the whole machine instead of idling.
    e.onFailedSteal();
    e.onFailedSteal();
    EXPECT_EQ(e.level(), kLevelRemote);
}

TEST(StealEscalation, SuccessNarrowsOneLevel)
{
    StealEscalation e(1);
    e.onFailedSteal();
    e.onFailedSteal();
    e.onFailedSteal();
    EXPECT_EQ(e.level(), kLevelRemote);
    e.onSuccessfulSteal();
    EXPECT_EQ(e.level(), kLevelSocket); // one step, not a full reset
    e.onSuccessfulSteal();
    e.onSuccessfulSteal();
    e.onSuccessfulSteal();
    EXPECT_EQ(e.level(), kLevelCore); // floors at the innermost level
}

TEST(StealEscalation, SuccessResetsTheFailureStreak)
{
    StealEscalation e(2);
    e.onFailedSteal();
    e.onSuccessfulSteal();
    e.onFailedSteal();
    // Two non-consecutive failures must not widen the search.
    EXPECT_EQ(e.level(), kLevelCore);
}

// ---------------------------------------------------------------------
// Informed victim selection (OccupancyBoard-weighted sampling)
// ---------------------------------------------------------------------

/** Board for @p d's worker layout with no bits set. */
OccupancyBoard
boardFor(const StealDistribution &d)
{
    return OccupancyBoard(d.numWorkers(), d.workerSockets());
}

TEST(VictimWeighting, OccupiedVictimOutranksAnyDryOne)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    OccupancyBoard board = boardFor(d);
    board.publishDeque(24, true); // two-hop victim, the worst distance
    // Thief 0: occupied two-hop victim must outweigh a dry pair buddy.
    const double occupied_far = d.victimWeight(0, 24, board, 0);
    const double dry_near = d.victimWeight(0, 1, board, 0);
    EXPECT_GT(occupied_far, dry_near);
}

TEST(VictimWeighting, AffinityBoostsOnlyLiveVictims)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    OccupancyBoard board = boardFor(d);
    board.publishDeque(8, true); // socket 1
    const uint32_t affinity = 1u << 1; // thief's data homes on socket 1
    // Live + affine beats live alone...
    const double live_affine = d.victimWeight(0, 8, board, affinity);
    const double live_plain = d.victimWeight(0, 8, board, 0);
    EXPECT_GT(live_affine, live_plain);
    // ...but a dry victim gains nothing from affinity: the inward bias
    // that caused the PR 1 heat regression must not come back.
    const double dry_affine =
        d.victimWeight(0, 9, board, affinity | (1u << 0));
    const double dry_plain = d.victimWeight(0, 9, board, 0);
    EXPECT_DOUBLE_EQ(dry_affine, dry_plain);
}

TEST(VictimWeighting, AffinityTiesBreakByDistance)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    OccupancyBoard board = boardFor(d);
    board.publishDeque(8, true);  // socket 1: one hop from thief 0
    board.publishDeque(24, true); // socket 3: two hops from thief 0
    const uint32_t affinity = (1u << 1) | (1u << 3); // both affine
    const double one_hop = d.victimWeight(0, 8, board, affinity);
    const double two_hop = d.victimWeight(0, 24, board, affinity);
    EXPECT_GT(one_hop, two_hop);
}

TEST(VictimWeighting, CrossSocketMailboxIsNotLive)
{
    // A parked frame is earmarked for its own socket's place: mailbox
    // occupancy makes a victim live for same-socket thieves only.
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    OccupancyBoard board = boardFor(d);
    board.publishMailbox(8, true); // socket 1
    EXPECT_TRUE(d.victimLive(9, 8, board));  // same socket: live
    EXPECT_FALSE(d.victimLive(0, 8, board)); // cross socket: churn
    EXPECT_EQ(d.victimWeight(0, 8, board, 0),
              d.victimWeight(0, 9, board, 0));
}

TEST(VictimWeighting, EveryVictimKeepsPositiveWeight)
{
    // The Section IV lower bound needs every victim reachable with
    // probability >= 1/(cP); weights must never hit zero.
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    OccupancyBoard board = boardFor(d);
    board.publishDeque(5, true);
    for (int v = 0; v < 32; ++v) {
        if (v == 0)
            continue;
        EXPECT_GT(d.victimWeight(0, v, board, 0xf), 0.0) << "victim " << v;
    }
}

TEST(VictimSampling, AllDryBoardFallsBackToUniformWithinLevel)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    const OccupancyBoard board = boardFor(d); // nothing published
    Rng rng(42);
    // Thief 0 at the Place level: victims 1..7, all dry and equidistant
    // -> uniform, and never the thief.
    CategoryCounter counts(32);
    const int n = 70000;
    for (int i = 0; i < n; ++i)
        counts.add(static_cast<std::size_t>(
            d.sampleVictim(0, kLevelPlace, &board, 0, rng)));
    EXPECT_EQ(counts.count(0), 0);
    for (int v = 1; v <= 7; ++v)
        EXPECT_NEAR(counts.fraction(static_cast<std::size_t>(v)),
                    1.0 / 7.0, 0.02)
            << "victim " << v;
    for (int v = 8; v < 32; ++v)
        EXPECT_EQ(counts.count(static_cast<std::size_t>(v)), 0u);
}

TEST(VictimSampling, ConcentratesOnTheOccupiedVictim)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    OccupancyBoard board = boardFor(d);
    board.publishDeque(6, true);
    Rng rng(7);
    CategoryCounter counts(32);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        counts.add(static_cast<std::size_t>(
            d.sampleVictim(0, kLevelPlace, &board, 0, rng)));
    // Occupied victim 6 carries 16/(16 + 6) of the level weight.
    EXPECT_GT(counts.fraction(6), 0.6);
    EXPECT_EQ(counts.count(0), 0);
}

TEST(VictimSampling, SingleSocketDegenerateStaysValid)
{
    const Machine m = Machine::singleSocket(4);
    const StealDistribution d(m, 4, BiasWeights{});
    OccupancyBoard board = boardFor(d);
    EXPECT_EQ(board.numSockets(), 1);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const int v = d.sampleVictim(1, kLevelCore, &board, 1u, rng);
        EXPECT_NE(v, 1);
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 4);
    }
    board.publishDeque(3, true);
    EXPECT_EQ(d.firstLiveLevel(1, kLevelCore, board),
              d.levelOf(1, 3));
}

TEST(FirstLiveLevel, SkipsDryLevelsToThePublishedWork)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    OccupancyBoard board = boardFor(d);
    board.publishDeque(24, true); // only socket 3 (remote) has work
    EXPECT_EQ(d.firstLiveLevel(0, kLevelCore, board), kLevelRemote);
    // Work within the current radius keeps the level unchanged.
    board.publishDeque(1, true);
    EXPECT_EQ(d.firstLiveLevel(0, kLevelCore, board), kLevelCore);
    // An already-wide radius never narrows back.
    EXPECT_EQ(d.firstLiveLevel(0, kLevelSocket, board), kLevelSocket);
}

TEST(FirstLiveLevel, AllDryBoardGoesOutermost)
{
    const Machine m = Machine::paperMachine();
    const StealDistribution d(m, 32, BiasWeights{});
    const OccupancyBoard board = boardFor(d);
    // Every level provably dry: one machine-wide (insurance) probe
    // replaces a ladder of cheap local ones.
    EXPECT_EQ(d.firstLiveLevel(0, kLevelCore, board), kLevelRemote);
    EXPECT_EQ(d.firstLiveLevel(0, kLevelRemote, board), kLevelRemote);
}

} // namespace
} // namespace numaws
