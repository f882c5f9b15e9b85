/**
 * @file
 * Unit tests for the support utilities: RNG quality basics, statistics
 * accumulators, the table printer, the CLI parser, and single-writer
 * counters.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "support/cache_aligned.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/single_writer.h"
#include "support/spin_lock.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/timing.h"

namespace numaws {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, FlipIsRoughlyFair)
{
    Rng rng(5);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        heads += rng.flip() ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.5, 0.02);
}

TEST(RunningStat, MeanAndStddev)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(CategoryCounter, FractionsSumToOne)
{
    CategoryCounter c(4);
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        c.add(rng.nextBounded(4));
    double sum = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i)
        sum += c.fraction(i);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_EQ(c.total(), 1000);
}

TEST(Table, RendersAlignedCells)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "2.5"});
    const std::string s = t.str();
    EXPECT_NE(s.find("| name"), std::string::npos);
    EXPECT_NE(s.find("| longer-name"), std::string::npos);
    EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(Table::fmtRatio(1.07), "1.07x");
    EXPECT_EQ(Table::fmtSeconds(123.456), "123.5");
    EXPECT_EQ(Table::fmtSeconds(1.234), "1.23");
    EXPECT_EQ(Table::fmtSeconds(0.1234), "0.123");
    EXPECT_EQ(Table::fmtSecondsWithRatio(2.0, 1.5), "2.00 (1.50x)");
}

TEST(Cli, ParsesTypedValues)
{
    const char *argv[] = {"prog", "--n=100", "--ratio=2.5",
                          "--name=hello", "--flag", "--list=1,2,3"};
    Cli cli(6, argv);
    EXPECT_EQ(cli.getInt("n", 0), 100);
    EXPECT_DOUBLE_EQ(cli.getDouble("ratio", 0.0), 2.5);
    EXPECT_EQ(cli.getString("name", ""), "hello");
    EXPECT_TRUE(cli.getBool("flag", false));
    EXPECT_EQ(cli.getIntList("list", {}),
              (std::vector<int64_t>{1, 2, 3}));
}

TEST(Cli, DefaultsApplyWhenAbsent)
{
    const char *argv[] = {"prog"};
    Cli cli(1, argv);
    EXPECT_EQ(cli.getInt("n", 7), 7);
    EXPECT_FALSE(cli.has("n"));
    EXPECT_EQ(cli.getIntList("cores", {1, 2}),
              (std::vector<int64_t>{1, 2}));
}

TEST(Cli, QueriesRegisterKeysAndUnknownKeysSurface)
{
    const char *argv[] = {"prog", "--n=1", "--dead-flag", "--typo=3"};
    Cli cli(4, argv);
    // Nothing queried yet: every provided key is unknown.
    EXPECT_EQ(cli.unknownKeys(),
              (std::vector<std::string>{"dead-flag", "n", "typo"}));
    // A query registers its key whether or not it was provided.
    EXPECT_EQ(cli.getInt("n", 0), 1);
    EXPECT_EQ(cli.getInt("absent", 9), 9);
    EXPECT_EQ(cli.unknownKeys(),
              (std::vector<std::string>{"dead-flag", "typo"}));
    // has() and declareKey() register too (conditional-path keys).
    EXPECT_TRUE(cli.has("dead-flag"));
    cli.declareKey("typo");
    EXPECT_TRUE(cli.unknownKeys().empty());
    // Destructor runs checkUnknownKeys(): clean here by construction.
}

TEST(CliDeathTest, UnknownKeyIsFatalAtExit)
{
    // The header's promise: a dead --flag in a CI invocation must fail
    // loudly. The fatal fires in checkUnknownKeys (destructor-time for
    // real binaries).
    const auto die = [] {
        const char *argv[] = {"prog", "--no-such-knob=1"};
        Cli cli(2, argv);
        (void)cli.getInt("n", 0);
        cli.checkUnknownKeys();
    };
    EXPECT_DEATH(die(), "unknown key");
}

TEST(SpinLock, MutualExclusionUnderContention)
{
    SpinLock lock;
    int64_t counter = 0;
    const int threads = 4;
    const int iters = 20000;
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&] {
            for (int i = 0; i < iters; ++i) {
                std::lock_guard<SpinLock> g(lock);
                ++counter;
            }
        });
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(counter, static_cast<int64_t>(threads) * iters);
}

TEST(CachePadded, OccupiesDistinctLines)
{
    CachePadded<int> a(1), b(2);
    EXPECT_GE(sizeof(a), kCacheLineBytes);
    EXPECT_EQ(*a, 1);
    EXPECT_EQ(*b, 2);
}

TEST(TimeSplit, BucketsAccumulateAndMerge)
{
    TimeSplit a, b;
    a.add(TimeSplit::Work, 100);
    a.add(TimeSplit::Idle, 50);
    b.add(TimeSplit::Work, 25);
    a.merge(b);
    EXPECT_EQ(a.ns(TimeSplit::Work), 125);
    EXPECT_EQ(a.ns(TimeSplit::Idle), 50);
    EXPECT_EQ(a.ns(TimeSplit::Scheduling), 0);
}

// A worker's live counters: one thread writes, another reads and merges
// into a plain aggregate meanwhile (Runtime::stats() on a busy runtime).
TEST(SingleWriterCounter, ReaderSeesMonotoneValuesWhileOwnerWrites)
{
    constexpr int64_t kBumps = 100000;
    SingleWriterCounter<uint64_t> count;
    LiveTimeSplit live;
    std::atomic<bool> done{false};
    std::thread owner([&] {
        for (int64_t i = 0; i < kBumps; ++i) {
            ++count;
            live.add(TimeSplit::Work, 2);
        }
        done.store(true, std::memory_order_release);
    });
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
        const uint64_t now = count;
        EXPECT_GE(now, last);
        last = now;
        TimeSplit snapshot;
        snapshot.merge(live);
        EXPECT_EQ(snapshot.ns(TimeSplit::Work) % 2, 0);
    }
    owner.join();
    EXPECT_EQ(count.load(), static_cast<uint64_t>(kBumps));
    TimeSplit total;
    total.merge(live);
    EXPECT_EQ(total.ns(TimeSplit::Work), 2 * kBumps);
    // Copies carry the value (StealCore stays copy-assignable).
    SingleWriterCounter<uint64_t> copy = count;
    copy += 5;
    EXPECT_EQ(copy.load(), count.load() + 5);
}

} // namespace
} // namespace numaws
