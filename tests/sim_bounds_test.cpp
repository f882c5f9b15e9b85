/**
 * @file
 * Empirical checks of the Section IV guarantees on the simulated
 * scheduler: TP <= T1/P + c*Tinf, steals bounded by O(P * Tinf), and the
 * pushback amortization (pushes bounded per successful steal). These are
 * property-style sweeps over randomized fork-join dags and core counts.
 */
#include <gtest/gtest.h>

#include "sim/scheduler.h"
#include "support/rng.h"

namespace numaws::sim {
namespace {

/** Random fork-join dag: irregular spawn trees with mixed leaf sizes. */
ComputationDag
randomDag(uint64_t seed, int max_depth, double min_leaf, double max_leaf)
{
    Rng rng(seed);
    DagBuilder b;
    b.beginRoot();
    auto rec = [&](auto &&self, int depth) -> void {
        if (depth == 0 || rng.nextBounded(8) == 0) {
            b.strand(min_leaf + rng.nextDouble() * (max_leaf - min_leaf),
                     {});
            return;
        }
        const int kids = 1 + static_cast<int>(rng.nextBounded(3));
        for (int k = 0; k < kids; ++k) {
            b.spawn(kAnyPlace);
            self(self, depth - 1);
            b.end();
        }
        b.strand(min_leaf, {});
        b.sync();
        if (rng.nextBounded(2) == 0) {
            b.spawn(kAnyPlace);
            self(self, depth - 1);
            b.end();
            b.sync();
        }
    };
    rec(rec, max_depth);
    b.end();
    return b.finish();
}

/** A scheduler configuration the Section IV sweep covers. Every one
 * caps PUSHBACK at the paper's constant pushing threshold, so the
 * bounds' proof applies to each. */
struct SchedCase
{
    const char *name;
    SimConfig (*config)();
};

const SchedCase kScheds[] = {
    {"classic", &SimConfig::classicWs},
    {"numaws", &SimConfig::numaWs},
    // The configuration that ships: informed hierarchical search on
    // the Board parking/PUSHBACK defaults.
    {"shipped", [] { return SimConfig{}; }},
};

class SchedulerBounds
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, int, SchedCase>>
{
};

TEST_P(SchedulerBounds, ExecutionTimeWithinGreedyBound)
{
    const auto [seed, cores, sched] = GetParam();
    const ComputationDag dag = randomDag(seed, 7, 200.0, 2000.0);
    const SimConfig cfg = sched.config();
    const Machine m = Machine::paperMachine();

    // Nominal work/span with the engine's spawn/sync costs included.
    const WorkSpan ws =
        dag.workSpan(cfg.spawnCost, cfg.syncTrivialCost);
    const SimResult r = simulate(dag, m, cores, cfg);

    // TP <= T1/P + c * Tinf for a concrete constant c. The constant
    // absorbs steal/promotion/push costs along the critical path; 40x
    // the per-steal cost against the span is generous yet far below a
    // bound-free schedule (which would be ~T1).
    const double c = 40.0;
    EXPECT_LE(r.elapsedCycles, ws.work / cores + c * ws.span)
        << "P=" << cores << " seed=" << seed << " sched=" << sched.name;
    // And never faster than the trivial lower bounds.
    EXPECT_GE(r.elapsedCycles * 1.0000001, ws.work / cores);
    EXPECT_GE(r.elapsedCycles * 1.0000001, ws.span);
}

TEST_P(SchedulerBounds, StealsBoundedByPTimesSpan)
{
    const auto [seed, cores, sched] = GetParam();
    const ComputationDag dag = randomDag(seed, 7, 200.0, 2000.0);
    const SimConfig cfg = sched.config();
    const WorkSpan ws = dag.workSpan(cfg.spawnCost, cfg.syncTrivialCost);
    const SimResult r = simulate(dag, Machine::paperMachine(), cores, cfg);

    // Successful steals are O(P * Tinf); with unit-ish strand granularity
    // the span in "nodes" is ~span/minLeaf. Use a loose constant.
    const double span_nodes = ws.span / 200.0;
    EXPECT_LE(static_cast<double>(r.counters.steals),
              8.0 * cores * span_nodes + 64.0)
        << "P=" << cores << " seed=" << seed << " sched=" << sched.name;
}

TEST_P(SchedulerBounds, PushesAmortizeAgainstSteals)
{
    const auto [seed, cores, sched] = GetParam();
    SimConfig cfg = sched.config();
    if (!cfg.sched.useMailboxes)
        GTEST_SKIP() << "pushback exists only under NUMA-WS";
    // Hinted dag: alternate subtree hints across places.
    Rng rng(seed);
    DagBuilder b;
    b.beginRoot();
    auto rec = [&](auto &&self, int depth, Place p) -> void {
        if (depth == 0) {
            b.strand(300.0 + rng.nextDouble() * 700.0, {});
            return;
        }
        for (int k = 0; k < 2; ++k) {
            b.spawn(depth == 6 ? static_cast<Place>(k * 2) : kAnyPlace);
            self(self, depth - 1, p);
            b.end();
        }
        b.sync();
    };
    rec(rec, 6, kAnyPlace);
    b.end();
    const ComputationDag dag = b.finish();

    cfg.seed = seed;
    const SimResult r = simulate(dag, Machine::paperMachine(), cores, cfg);

    // Section IV: at most two push-triggering events per successful
    // steal, each bounded by the pushing threshold.
    const double limit =
        2.0 * static_cast<double>(cfg.sched.pushThreshold)
            * static_cast<double>(r.counters.steals
                                  + r.counters.mailboxSteals)
        + 2.0 * cfg.sched.pushThreshold; // slack for the root frame
    EXPECT_LE(static_cast<double>(r.counters.pushAttempts), limit)
        << "P=" << cores << " seed=" << seed << " sched=" << sched.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerBounds,
    ::testing::Combine(::testing::Values(1ULL, 2ULL, 3ULL, 4ULL),
                       ::testing::Values(2, 4, 8, 16, 32),
                       ::testing::ValuesIn(kScheds)),
    [](const auto &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) + "_P"
               + std::to_string(std::get<1>(info.param)) + "_"
               + std::get<2>(info.param).name;
    });

/** Hinted random dag, the shape PushesAmortizeAgainstSteals uses. */
ComputationDag
hintedDag(uint64_t seed)
{
    Rng rng(seed);
    DagBuilder b;
    b.beginRoot();
    auto rec = [&](auto &&self, int depth) -> void {
        if (depth == 0) {
            b.strand(300.0 + rng.nextDouble() * 700.0, {});
            return;
        }
        for (int k = 0; k < 2; ++k) {
            b.spawn(depth == 6 ? static_cast<Place>(k * 2) : kAnyPlace);
            self(self, depth - 1);
            b.end();
        }
        b.sync();
    };
    rec(rec, 6);
    b.end();
    return b.finish();
}

/** Spawns in @p dag whose child carries a concrete place hint. */
uint64_t
hintedSpawns(const ComputationDag &dag)
{
    uint64_t n = 0;
    for (std::size_t f = 0; f < dag.numFrames(); ++f)
        if (dag.frame(static_cast<FrameId>(f)).parent != kNoFrame
            && isConcretePlace(dag.frame(static_cast<FrameId>(f)).place))
            ++n;
    return n;
}

/**
 * Section IV's top-heavy-deques argument on a place-hinted dag, where
 * PUSHBACK actually fires: (a) every frame's PUSHBACK attempts stay
 * bounded by the pushing threshold, so pushing amortizes against
 * acquisitions, and (b) the greedy execution-time bound survives frames
 * waiting in single-entry mailboxes instead of on the deques. Checked
 * on the paper scheduler and on the shipped one, whose spawn-time
 * deliveries put hinted children in mailboxes without a steal (their
 * own counter, so (a) still bounds PUSHBACK alone).
 */
TEST(SchedulerBounds, HintedDagKeepsSectionFourBounds)
{
    struct Case
    {
        SchedCase sched;
        bool delivers; ///< the shipped policy delivers hinted spawns
    };
    for (const auto &[sched, delivers] :
         {Case{kScheds[1], false}, Case{kScheds[2], true}}) {
        for (const uint64_t seed : {1ULL, 5ULL}) {
            const ComputationDag dag = hintedDag(seed);
            const Machine m = Machine::paperMachine();
            const WorkSpan ws = dag.workSpan(8.0, 2.0);
            SimConfig cfg = sched.config();
            cfg.seed = seed;
            const SimResult r = simulate(dag, m, 16, cfg);

            // (a) Push attempts amortize: each push-triggering event
            // (steal, mailbox delivery, resume) pays at most
            // pushThreshold attempts, and the number of such events per
            // successful acquisition is a constant.
            const double acquisitions = static_cast<double>(
                r.counters.steals + r.counters.mailboxSteals
                + r.counters.mailboxPops + r.counters.resumes);
            const double limit =
                2.0 * cfg.sched.pushThreshold * acquisitions
                + 2.0 * cfg.sched.pushThreshold;
            EXPECT_LE(static_cast<double>(r.counters.pushAttempts), limit)
                << "seed=" << seed << " sched=" << sched.name;

            // (b) The greedy bound survives frames bypassing the deque.
            EXPECT_LE(r.elapsedCycles, ws.work / 16 + 40.0 * ws.span)
                << "seed=" << seed << " sched=" << sched.name;

            // Sanity: the mailboxes are live (deliveries counted via
            // pops + steals).
            EXPECT_GT(r.counters.mailboxPops + r.counters.mailboxSteals,
                      0u)
                << "seed=" << seed << " sched=" << sched.name;

            // Spawn-time delivery runs only where the policy ships it,
            // at most once per hinted spawn.
            if (delivers)
                EXPECT_GT(r.counters.spawnDeliveries, 0u)
                    << "seed=" << seed << " sched=" << sched.name;
            else
                EXPECT_EQ(r.counters.spawnDeliveries, 0u)
                    << "seed=" << seed << " sched=" << sched.name;
            EXPECT_LE(r.counters.spawnDeliveries, hintedSpawns(dag))
                << "seed=" << seed << " sched=" << sched.name;
        }
    }
}

TEST(SchedulerBounds, WorkFirstOverheadOnWorkTermIsSmall)
{
    // The work-first principle: T1/TS stays close to one even for a
    // fine-grained dag (spawn overhead is the only work-path cost).
    const ComputationDag dag = randomDag(7, 8, 500.0, 1500.0);
    const Machine m = Machine::paperMachine();
    const double ts =
        simulate(dag, m, 1, SimConfig::serial()).elapsedCycles;
    const double t1 =
        simulate(dag, m, 1, SimConfig::numaWs()).elapsedCycles;
    EXPECT_LT(t1 / ts, 1.05);
}

} // namespace
} // namespace numaws::sim
