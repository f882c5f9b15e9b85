/**
 * @file
 * Direct tests of the simulated memory system: locality cost ordering,
 * LLC reuse across strands, the streaming discount, and the region-home
 * interaction that produces work inflation.
 */
#include <gtest/gtest.h>

#include "mem/page_map.h"
#include "sim/memory.h"
#include "sim/scheduler.h"

namespace numaws::sim {
namespace {

/** Dag with one region and one strand touching [0, bytes). */
ComputationDag
touchDag(uint64_t bytes, RegionPolicy policy, int home, int touches = 1)
{
    DagBuilder b;
    const RegionId r = b.region("r", bytes, policy, home);
    b.beginRoot();
    for (int t = 0; t < touches; ++t)
        b.strand(0.0, {{r, 0, bytes}});
    b.end();
    return b.finish();
}

double
costOn(const ComputationDag &dag, int socket)
{
    const Machine m = Machine::paperMachine();
    SimMemory mem(m, dag);
    MemCounters counters;
    const Frame &root = dag.frame(dag.root());
    const Item &item = dag.item(root.itemBegin);
    return mem.cost(socket, root, item, counters);
}

TEST(SimMemory, LocalCheaperThanRemote)
{
    const auto dag = touchDag(1 << 20, RegionPolicy::Single, 0);
    const double local = costOn(dag, 0);
    const double one_hop = costOn(dag, 1);
    const double two_hop = costOn(dag, 3);
    EXPECT_LT(local, one_hop);
    EXPECT_LT(one_hop, two_hop);
}

TEST(SimMemory, SecondTouchHitsLlc)
{
    const auto dag = touchDag(1 << 20, RegionPolicy::Single, 2, 2);
    const Machine m = Machine::paperMachine();
    SimMemory mem(m, dag);
    MemCounters counters;
    const Frame &root = dag.frame(dag.root());
    const Item &first = dag.item(root.itemBegin);
    const Item &second = dag.item(root.itemBegin + 1);
    const double cold =
        mem.cost(0, root, first, counters);
    const double warm =
        mem.cost(0, root, second, counters);
    // Remote region, but the second touch is served from the local LLC.
    EXPECT_LT(warm, cold * 0.5);
    EXPECT_GT(counters.llcHitLines, 0u);
    EXPECT_GT(counters.remoteDramLines, 0u);
}

TEST(SimMemory, WorkingSetBeyondLlcKeepsMissing)
{
    // 64 MB through a 16 MB LLC: the second pass misses again.
    const auto dag = touchDag(64ULL << 20, RegionPolicy::Single, 0, 2);
    const Machine m = Machine::paperMachine();
    SimMemory mem(m, dag);
    MemCounters counters;
    const Frame &root = dag.frame(dag.root());
    const Item &first = dag.item(root.itemBegin);
    const Item &second = dag.item(root.itemBegin + 1);
    const double cold =
        mem.cost(0, root, first, counters);
    const double warm =
        mem.cost(0, root, second, counters);
    EXPECT_NEAR(warm, cold, cold * 0.05);
}

TEST(SimMemory, StreamingDiscountRewardsContiguity)
{
    // Same bytes, one contiguous access vs many 64-byte accesses.
    DagBuilder b;
    const RegionId r = b.region("r", 1 << 16, RegionPolicy::Single, 0);
    b.beginRoot();
    b.strand(0.0, {{r, 0, 1 << 16}}); // contiguous
    std::vector<MemAccess> scattered;
    for (uint64_t off = 0; off < (1 << 16); off += 4096)
        scattered.push_back({r, off, 64});
    b.strand(0.0, scattered); // one line per granule: no streaming
    b.end();
    const auto dag = b.finish();

    const Machine m = Machine::paperMachine();
    const Frame &root = dag.frame(dag.root());
    const Item &contig = dag.item(root.itemBegin);
    const Item &sparse = dag.item(root.itemBegin + 1);

    SimMemory mem1(m, dag);
    MemCounters c1;
    const double contig_cost =
        mem1.cost(0, root, contig, c1);
    SimMemory mem2(m, dag);
    MemCounters c2;
    const double sparse_cost =
        mem2.cost(0, root, sparse, c2);

    // Contiguous touches 64x the lines (1024 vs 16) but streams most of
    // them: cost must stay well under half the unstreamed linear scaling.
    EXPECT_GT(contig_cost, sparse_cost);
    EXPECT_LT(contig_cost, sparse_cost * 32.0);
}

TEST(SimMemory, InterleavedSpreadsHomes)
{
    const auto dag =
        touchDag(16 * kPageBytes, RegionPolicy::Interleaved, 0);
    const Machine m = Machine::paperMachine();
    SimMemory mem(m, dag);
    MemCounters counters;
    const Frame &root = dag.frame(dag.root());
    const Item &item = dag.item(root.itemBegin);
    mem.cost(0, root, item, counters);
    // A quarter of the pages are local, the rest remote.
    EXPECT_GT(counters.remoteDramLines, 0u);
    EXPECT_GT(counters.localDramLines, 0u);
    EXPECT_NEAR(static_cast<double>(counters.localDramLines)
                    / static_cast<double>(counters.totalLines()),
                0.25, 0.05);
}

TEST(SimMemory, CountersClassifyEveryLineExactlyOnce)
{
    const auto dag = touchDag(1 << 20, RegionPolicy::Partitioned, 0);
    const Machine m = Machine::paperMachine();
    SimMemory mem(m, dag);
    MemCounters counters;
    const Frame &root = dag.frame(dag.root());
    const Item &item = dag.item(root.itemBegin);
    mem.cost(1, root, item, counters);
    EXPECT_EQ(counters.totalLines(), (1u << 20) / 64);
}

TEST(SimMemory, AppendedCopiesChargeTheirOwnRegions)
{
    // Two copies share one strand and access; each must touch its own
    // region, so the second copy misses the LLC like the first.
    const ComputationDag one = touchDag(1 << 16, RegionPolicy::Single, 2);
    ComputationDag merged;
    const FrameId first = merged.append(one);
    const FrameId second = merged.append(one);
    const Frame &f1 = merged.frame(first);
    const Frame &f2 = merged.frame(second);
    ASSERT_EQ(f1.itemBegin, f2.itemBegin);
    const Item &strand = merged.item(f1.itemBegin);

    const Machine m = Machine::paperMachine();
    SimMemory mem(m, merged);
    MemCounters counters;
    const double cold = mem.cost(0, f1, strand, counters);
    EXPECT_EQ(mem.cost(0, f2, strand, counters), cold);
    EXPECT_EQ(counters.llcHitLines, 0u);
    // Warm now: each copy hits its own lines.
    EXPECT_LT(mem.cost(0, f2, strand, counters), cold);
    EXPECT_LT(mem.cost(0, f1, strand, counters), cold);
}

TEST(SimMemory, StridedAccessChargesLikeItsRows)
{
    // 40 rows of 3000 bytes, 7000 apart: the stride is no granule
    // multiple and rows straddle 4 KiB granule boundaries.
    constexpr uint32_t kRows = 40;
    constexpr uint64_t kOffset = 1234, kBytes = 3000, kStride = 7000;
    const Machine m = Machine::paperMachine();
    for (const RegionPolicy policy :
         {RegionPolicy::Single, RegionPolicy::Interleaved,
          RegionPolicy::Partitioned, RegionPolicy::Custom}) {
        SCOPED_TRACE(static_cast<int>(policy));
        DagBuilder b;
        const RegionId r =
            policy == RegionPolicy::Custom
                ? b.regionCustom("r", 1 << 20,
                                 [](uint64_t off) {
                                     return static_cast<int>(
                                         off / 10000 % 4);
                                 })
                : b.region("r", 1 << 20, policy, 2);
        std::vector<MemAccess> rows;
        for (uint32_t i = 0; i < kRows; ++i)
            rows.push_back({r, kOffset + i * kStride, kBytes});
        b.beginRoot();
        b.strand(0.0, {{r, kOffset, kBytes, kRows, kStride}});
        b.strand(0.0, rows);
        b.end();
        const ComputationDag dag = b.finish();
        const Frame &root = dag.frame(dag.root());
        const Item &strided = dag.item(root.itemBegin);
        const Item &per_row = dag.item(root.itemBegin + 1);
        ASSERT_EQ(strided.accessEnd - strided.accessBegin, 1u);
        ASSERT_EQ(per_row.accessEnd - per_row.accessBegin, kRows);

        for (int socket = 0; socket < m.numSockets(); ++socket) {
            // Twice each, so the second pass prices LLC hits too.
            SimMemory mem_strided(m, dag);
            SimMemory mem_rows(m, dag);
            MemCounters c_strided, c_rows;
            for (int pass = 0; pass < 2; ++pass) {
                const double a =
                    mem_strided.cost(socket, root, strided, c_strided);
                const double b_cost =
                    mem_rows.cost(socket, root, per_row, c_rows);
                EXPECT_EQ(a, b_cost); // bitwise: same sums, same order
            }
            EXPECT_EQ(c_strided.llcHitLines, c_rows.llcHitLines);
            EXPECT_EQ(c_strided.localDramLines, c_rows.localDramLines);
            EXPECT_EQ(c_strided.remoteDramLines, c_rows.remoteDramLines);
            EXPECT_GT(c_strided.llcHitLines, 0u);
        }
    }
}

} // namespace
} // namespace numaws::sim
