/**
 * @file
 * Memory substrate tests: page map interval semantics, the NUMA arena's
 * placement policies and big-block mapping, the zero guarantee of
 * PartedVec shards, LLC hit/miss behaviour, and latency ordering (local
 * LLC < local DRAM < remote DRAM, growing with hops).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>

#include "mem/latency_model.h"
#include "mem/llc_model.h"
#include "mem/numa_arena.h"
#include "mem/page_map.h"
#include "mem/parted_vec.h"
#include "runtime/api.h"

namespace numaws {
namespace {

TEST(PageMap, UnknownAddressDefaultsToSocketZero)
{
    PageMap pm(4);
    EXPECT_EQ(pm.homeOf(0x123456), 0);
}

TEST(PageMap, SingleRangeResolves)
{
    PageMap pm(4);
    pm.registerRange(0x10000, 0x4000, PagePolicy::Single, 2);
    EXPECT_EQ(pm.homeOf(0x10000), 2);
    EXPECT_EQ(pm.homeOf(0x13fff), 2);
    EXPECT_EQ(pm.homeOf(0x14000), 0); // past the end
    EXPECT_EQ(pm.homeOf(0x0ffff), 0); // before the start
}

TEST(PageMap, InterleavedRoundRobinsPages)
{
    PageMap pm(4);
    pm.registerRange(0x100000, 8 * kPageBytes, PagePolicy::Interleaved);
    for (uint64_t page = 0; page < 8; ++page)
        EXPECT_EQ(pm.homeOf(0x100000 + page * kPageBytes + 17),
                  static_cast<int>(page % 4));
}

TEST(PageMap, ReRegistrationSplitsExisting)
{
    PageMap pm(4);
    pm.registerRange(0x10000, 0x8000, PagePolicy::Single, 1);
    // Re-home the middle.
    pm.registerRange(0x12000, 0x2000, PagePolicy::Single, 3);
    EXPECT_EQ(pm.homeOf(0x10000), 1);
    EXPECT_EQ(pm.homeOf(0x12000), 3);
    EXPECT_EQ(pm.homeOf(0x13fff), 3);
    EXPECT_EQ(pm.homeOf(0x14000), 1);
    EXPECT_EQ(pm.homeOf(0x17fff), 1);
}

TEST(NumaArena, AllocOnSocketHomesWholeBlock)
{
    PageMap pm(4);
    NumaArena arena(pm);
    void *p = arena.allocOnSocket(10 * kPageBytes, 3);
    ASSERT_NE(p, nullptr);
    const auto base = reinterpret_cast<uint64_t>(p);
    for (uint64_t off = 0; off < 10 * kPageBytes; off += kPageBytes)
        EXPECT_EQ(pm.homeOf(base + off), 3);
    arena.free(p);
    EXPECT_EQ(pm.homeOf(base), 0);
}

TEST(NumaArena, PartitionedSplitsAcrossSockets)
{
    PageMap pm(4);
    NumaArena arena(pm);
    const std::size_t bytes = 16 * kPageBytes;
    void *p = arena.allocPartitioned(bytes, 4);
    const auto base = reinterpret_cast<uint64_t>(p);
    EXPECT_EQ(pm.homeOf(base), 0);
    EXPECT_EQ(pm.homeOf(base + 5 * kPageBytes), 1);
    EXPECT_EQ(pm.homeOf(base + 9 * kPageBytes), 2);
    EXPECT_EQ(pm.homeOf(base + 15 * kPageBytes), 3);
    arena.free(p);
}

TEST(NumaArena, InterleavedAlternatesPages)
{
    PageMap pm(2);
    NumaArena arena(pm);
    void *p = arena.allocInterleaved(4 * kPageBytes);
    const auto base = reinterpret_cast<uint64_t>(p);
    EXPECT_EQ(pm.homeOf(base), 0);
    EXPECT_EQ(pm.homeOf(base + kPageBytes), 1);
    EXPECT_EQ(pm.homeOf(base + 2 * kPageBytes), 0);
    arena.free(p);
}

TEST(NumaArena, CarveSlabIsPageAlignedAndUsable)
{
    // The static carve-out bypasses registration (runtime-internal
    // metadata): page-aligned, writable end to end, released without
    // an arena.
    void *slab = NumaArena::carveSlab(3 * kPageBytes + 7);
    ASSERT_NE(slab, nullptr);
    EXPECT_EQ(reinterpret_cast<uint64_t>(slab) % kPageBytes, 0u);
    std::memset(slab, 0xab, 4 * kPageBytes); // rounded up to pages
    NumaArena::releaseSlab(slab);
}

TEST(NumaArena, CarveSlabOnSocketRegistersHomes)
{
    PageMap pm(4);
    NumaArena arena(pm);
    void *slab = arena.carveSlabOnSocket(2 * kPageBytes, 2);
    const auto base = reinterpret_cast<uint64_t>(slab);
    EXPECT_EQ(pm.homeOf(base), 2);
    EXPECT_EQ(pm.homeOf(base + kPageBytes), 2);
    arena.free(slab);
    EXPECT_EQ(pm.homeOf(base), 0);
}

TEST(NumaArena, BigBlocksAreMappedRegisteredAndReleased)
{
    PageMap pm(4);
    NumaArena arena(pm);
    const std::size_t bytes = NumaArena::kMapThresholdBytes + 100;
    ASSERT_TRUE(NumaArena::mapsFresh(bytes));
    ASSERT_FALSE(NumaArena::mapsFresh(NumaArena::kMapThresholdBytes
                                      - kPageBytes));
    const std::size_t before = pm.rangeCount();

    void *p = arena.allocOnSocket(bytes, 2);
    ASSERT_NE(p, nullptr);
    const auto base = reinterpret_cast<uint64_t>(p);
    EXPECT_EQ(base % kPageBytes, 0u);
    EXPECT_EQ(pm.registeredHomeOf(base), 2);
    EXPECT_EQ(pm.registeredHomeOf(base + bytes - 1), 2);
    // Fresh from the kernel: zero, first to last byte.
    const auto *c = static_cast<const unsigned char *>(p);
    EXPECT_EQ(c[0], 0);
    EXPECT_EQ(c[bytes / 2], 0);
    EXPECT_EQ(c[bytes - 1], 0);
    std::memset(p, 0xab, bytes);
    arena.free(p);
    EXPECT_EQ(pm.rangeCount(), before);

    void *q = arena.allocPartitioned(4 * bytes, 4);
    ASSERT_NE(q, nullptr);
    const auto qbase = reinterpret_cast<uint64_t>(q);
    EXPECT_EQ(qbase % kPageBytes, 0u);
    EXPECT_EQ(pm.rangeCount(), before + 4);
    EXPECT_EQ(pm.registeredHomeOf(qbase), 0);
    EXPECT_EQ(pm.registeredHomeOf(qbase + 4 * bytes - 1), 3);
    arena.free(q);
    EXPECT_EQ(pm.rangeCount(), before);
}

TEST(PageMap, RegisteredHomeOfDistinguishesUnknownAddresses)
{
    PageMap pm(4);
    pm.registerRange(0x10000, 0x4000, PagePolicy::Single, 2);
    EXPECT_EQ(pm.registeredHomeOf(0x10000), 2);
    EXPECT_EQ(pm.registeredHomeOf(0x13fff), 2);
    // homeOf would say socket 0 for all of these; placement must not.
    EXPECT_EQ(pm.registeredHomeOf(0x14000), -1);
    EXPECT_EQ(pm.registeredHomeOf(0x0ffff), -1);
    EXPECT_EQ(pm.registeredHomeOf(0x123456), -1);
}

RuntimeOptions
partedOptions(int places, DataHeapPolicy heap = DataHeapPolicy::Pooled)
{
    RuntimeOptions o;
    o.numWorkers = places;
    o.numPlaces = places;
    o.dataHeap = heap;
    return o;
}

TEST(PartedVec, ShardMathWithGranule)
{
    Runtime rt(partedOptions(4));
    // 100 elements in granules of 8: 13 granules, ceil(13/4) = 4 per
    // shard -> stride 32 elements; the last shard takes the tail.
    PartedVec<double> v(rt, 100, 8);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_EQ(v.numShards(), 4);
    EXPECT_EQ(v.shardStride(), 32u);
    EXPECT_EQ(v.shardSize(0), 32u);
    EXPECT_EQ(v.shardSize(2), 32u);
    EXPECT_EQ(v.shardSize(3), 4u);
    EXPECT_EQ(v.shardFor(0), 0);
    EXPECT_EQ(v.shardFor(31), 0);
    EXPECT_EQ(v.shardFor(32), 1);
    EXPECT_EQ(v.shardBegin(1), 32u);
    EXPECT_EQ(v.homeOf(99), 3);
}

TEST(PartedVec, ShardsRegisterAndUnregisterTheirHomes)
{
    Runtime rt(partedOptions(2));
    const std::size_t before = rt.dataPageMap().rangeCount();
    {
        PartedVec<int> v(rt, 1000);
        EXPECT_EQ(rt.dataPageMap().rangeCount(), before + 2);
        for (int s = 0; s < v.numShards(); ++s) {
            EXPECT_EQ(rt.dataPageMap().registeredHomeOf(
                          reinterpret_cast<uint64_t>(v.shardData(s))),
                      s);
        }
    }
    // Destruction returns the shards and their registrations.
    EXPECT_EQ(rt.dataPageMap().rangeCount(), before);
}

TEST(PartedVec, ElementAccessIsCoherentAcrossViews)
{
    Runtime rt(partedOptions(3));
    PartedVec<int> v(rt, 50, 4);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<int>(i);
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_EQ(*v.ptr(i), static_cast<int>(i));
        const int s = v.shardFor(i);
        EXPECT_EQ(v.shardData(s)[i - v.shardBegin(s)],
                  static_cast<int>(i));
    }
    // Value-construction zeroed every element before we wrote.
    PartedVec<int> z(rt, 50, 4);
    for (std::size_t i = 0; i < z.size(); ++i)
        EXPECT_EQ(z[i], 0);
}

/** Elements in one shard of exactly kMapThresholdBytes: the shard
 * (header included) takes the arena's mapped path. */
constexpr std::size_t kBigShard =
    NumaArena::kMapThresholdBytes / sizeof(double);

bool
allZero(const PartedVec<double> &v)
{
    for (int s = 0; s < v.numShards(); ++s) {
        const double *d = v.shardData(s);
        for (std::size_t i = 0; i < v.shardSize(s); ++i)
            if (d[i] != 0.0 || std::signbit(d[i]))
                return false;
    }
    return true;
}

TEST(PartedVec, BigShardsReadZero)
{
    Runtime rt(partedOptions(2));
    PartedVec<double> v(rt, 2 * kBigShard);
    ASSERT_EQ(v.shardSize(0), kBigShard);
    ASSERT_TRUE(NumaArena::mapsFresh(NumaHeap::kHeaderBytes
                                     + kBigShard * sizeof(double)));
    EXPECT_TRUE(allZero(v));
}

TEST(PartedVec, CarveFailureFallbackShardReadsZero)
{
    Runtime rt(partedOptions(2));
    // Leave dirty free memory in the host heap where the fallback shard
    // will land, so a shard that skipped its clear could not read zero by
    // luck. The first free lifts glibc's mmap threshold above this size;
    // the dirty block is twice the shard, so the shard's aligned request
    // fits in the freed chunk.
    const std::size_t bytes = 2 * kBigShard * sizeof(double);
    numa::deallocate(numa::allocatePlain(bytes));
    void *dirty = numa::allocatePlain(bytes);
    std::memset(dirty, 0xff, bytes);
    numa::deallocate(dirty);
    NumaArena::failNextCarvesForTesting(1);
    PartedVec<double> v(rt, 2 * kBigShard);
    NumaArena::failNextCarvesForTesting(0);
    // Shard 0's carve failed: it is a plain block, shard 1 is mapped.
    EXPECT_EQ(NumaHeap::headerOf(v.shardData(0))->sizeClass,
              NumaHeap::kClassPlain);
    EXPECT_EQ(NumaHeap::headerOf(v.shardData(1))->sizeClass,
              NumaHeap::kClassArena);
    EXPECT_TRUE(allZero(v));
}

#if defined(NUMAWS_ASAN)
TEST(PartedVecDeathTest, WritePastBigShardReports)
{
    // Mapped blocks have no allocator redzones; the poisoned slack past
    // the requested end stands in for them.
    EXPECT_DEATH(
        {
            Runtime rt(partedOptions(2));
            PartedVec<double> v(rt, 2 * kBigShard);
            volatile double *d = v.shardData(0);
            d[v.shardSize(0)] = 1.0;
        },
        "AddressSanitizer");
}
#endif

TEST(PartedVec, ForEachShardVisitsEveryElementOnce)
{
    Runtime rt(partedOptions(2));
    PartedVec<int> v(rt, 301, 10);
    std::atomic<int> shards_seen{0};
    rt.run([&] {
        v.forEachShard([&](int, int *data, std::size_t count) {
            for (std::size_t i = 0; i < count; ++i)
                data[i] += 1;
            shards_seen.fetch_add(1);
        });
    });
    EXPECT_EQ(shards_seen.load(), v.numShards());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(v[i], 1);
}

TEST(PartedVec, HeapPolicyShardsAreUnregistered)
{
    Runtime rt(partedOptions(2, DataHeapPolicy::Heap));
    const std::size_t before = rt.dataPageMap().rangeCount();
    PartedVec<int> v(rt, 100);
    EXPECT_EQ(rt.dataPageMap().rangeCount(), before);
    EXPECT_EQ(rt.dataPageMap().registeredHomeOf(
                  reinterpret_cast<uint64_t>(v.shardData(0))),
              -1);
    // Sharding math is policy-independent (the ablation contract).
    EXPECT_EQ(v.numShards(), 2);
    v[99] = 7;
    EXPECT_EQ(*v.ptr(99), 7);
}

TEST(LlcModel, MissThenHit)
{
    LlcModel llc(1 << 20, 4096, 8);
    EXPECT_FALSE(llc.access(0x1000));
    EXPECT_TRUE(llc.access(0x1000));
    EXPECT_TRUE(llc.access(0x1fff)); // same granule
    EXPECT_FALSE(llc.access(0x2000)); // next granule
    EXPECT_EQ(llc.hits(), 2u);
    EXPECT_EQ(llc.misses(), 2u);
}

TEST(LlcModel, CapacityEviction)
{
    // 64 KB cache of 4 KB granules = 16 entries; stream 64 distinct
    // granules twice: the second pass must still miss (LRU evicted them).
    LlcModel llc(64 << 10, 4096, 8);
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t g = 0; g < 64; ++g)
            llc.access(g * 4096);
    EXPECT_EQ(llc.hits(), 0u);
    EXPECT_EQ(llc.misses(), 128u);
}

TEST(LlcModel, WorkingSetWithinCapacityHits)
{
    LlcModel llc(1 << 20, 4096, 8); // 256 entries
    for (int pass = 0; pass < 3; ++pass)
        for (uint64_t g = 0; g < 64; ++g)
            llc.access(g * 4096);
    // First pass misses, later passes hit.
    EXPECT_EQ(llc.misses(), 64u);
    EXPECT_EQ(llc.hits(), 128u);
}

TEST(LlcModel, ClearDropsContents)
{
    LlcModel llc(1 << 20);
    llc.access(0);
    llc.clear();
    EXPECT_FALSE(llc.contains(0));
    EXPECT_EQ(llc.hits(), 0u);
}

TEST(LatencyModel, OrderingMatchesPaperProse)
{
    const LatencyModel lat;
    // "tens of cycles (local LLC), over a hundred (local DRAM), a few
    // hundreds (remote DRAM)".
    EXPECT_LT(lat.lineCost(true, 0), 100.0);
    EXPECT_GT(lat.lineCost(false, 0), 100.0);
    EXPECT_GT(lat.lineCost(false, 1), lat.lineCost(false, 0));
    EXPECT_GT(lat.lineCost(false, 2), lat.lineCost(false, 1));
}

TEST(LatencyModel, ClassifiesAccessLevels)
{
    const LatencyModel lat;
    EXPECT_EQ(lat.classify(true, 2), AccessLevel::LocalLlc);
    EXPECT_EQ(lat.classify(false, 0), AccessLevel::LocalDram);
    EXPECT_EQ(lat.classify(false, 1), AccessLevel::RemoteDram);
}

} // namespace
} // namespace numaws
