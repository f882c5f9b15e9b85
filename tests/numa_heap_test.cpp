/**
 * @file
 * NUMA data-plane heap tests: size-class selection, local recycling,
 * PageMap registration of carved slabs, the cross-thread remote-free
 * stack under stress (the ASan job runs this), the arena big-object
 * fallback and its zeroed plain-heap degradation, routing through
 * numa::allocate/deallocate on a live runtime, teardown with blocks
 * parked on remote stacks, the DataHeapPolicy::Heap bypass, and the
 * double-free panic.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "mem/numa_heap.h"
#include "mem/page_map.h"
#include "runtime/api.h"

namespace numaws {
namespace {

RuntimeOptions
dataOptions(int workers, DataHeapPolicy heap = DataHeapPolicy::Pooled)
{
    RuntimeOptions o;
    o.numWorkers = workers;
    o.dataHeap = heap;
    return o;
}

int64_t
outstandingBlocks(Runtime &rt)
{
    int64_t n = 0;
    for (int w = 0; w < rt.numWorkers(); ++w)
        n += rt.worker(w).dataHeap().outstanding();
    return n;
}

TEST(NumaHeapUnit, ClassSelectionBoundaries)
{
    EXPECT_EQ(NumaHeap::classForBytes(1), 0);
    EXPECT_EQ(NumaHeap::classForBytes(64), 0);
    EXPECT_EQ(NumaHeap::classForBytes(65), 1);
    EXPECT_EQ(NumaHeap::classForBytes(128), 1);
    EXPECT_EQ(NumaHeap::classForBytes(129), 2);
    EXPECT_EQ(NumaHeap::classForBytes(32768), 9);
    // Past the largest class: the caller falls through to the arena.
    EXPECT_EQ(NumaHeap::classForBytes(32769), -1);
}

TEST(NumaHeapUnit, DisabledHeapAllocatesNothing)
{
    NumaHeap heap(0, 0, /*arena=*/nullptr);
    EXPECT_FALSE(heap.enabled());
    EXPECT_EQ(heap.allocate(64), nullptr);
    EXPECT_EQ(heap.slabBytes(), 0u);
}

TEST(NumaHeapUnit, LocalFreeListRecyclesLifo)
{
    PageMap pm(2);
    NumaArena arena(pm);
    NumaHeap heap(0, 0, &arena);
    void *a = heap.allocate(200);
    void *b = heap.allocate(200);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(a, b);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % NumaHeap::kDataAlign, 0u);
    heap.freeLocal(NumaHeap::headerOf(a));
    heap.freeLocal(NumaHeap::headerOf(b));
    // LIFO: the most recently freed block comes back first.
    EXPECT_EQ(heap.allocate(200), b);
    EXPECT_EQ(heap.allocate(200), a);
    EXPECT_EQ(heap.blocksRecycled(), 2u);
    heap.freeLocal(NumaHeap::headerOf(a));
    heap.freeLocal(NumaHeap::headerOf(b));
    EXPECT_EQ(heap.outstanding(), 0);
}

TEST(NumaHeapUnit, SlabsAreRegisteredOnTheOwnersSocket)
{
    PageMap pm(4);
    NumaArena arena(pm);
    NumaHeap heap(/*owner_worker=*/0, /*socket=*/2, &arena);
    void *p = heap.allocate(1024);
    ASSERT_NE(p, nullptr);
    // The block sits inside a slab carveSlabOnSocket registered, so
    // placement decisions can see its home.
    EXPECT_EQ(pm.registeredHomeOf(reinterpret_cast<uint64_t>(p)), 2);
    EXPECT_EQ(heap.slabBytes(), NumaHeap::kSlabBytes);
    EXPECT_EQ(heap.slabsCarved(), 1u);
    heap.freeLocal(NumaHeap::headerOf(p));
}

/** Remote threads free while the owner allocates: the MPSC stack under
 * real contention, every block accounted for. The sanitizer job runs
 * this against races. */
TEST(NumaHeapUnit, RemoteFreeStressManyThreads)
{
    PageMap pm(2);
    NumaArena arena(pm);
    NumaHeap heap(0, 0, &arena);
    constexpr int kThreads = 4;
    constexpr int kRounds = 200;
    constexpr int kBatch = 64;

    for (int round = 0; round < kRounds; ++round) {
        std::array<void *, kThreads * kBatch> blocks{};
        for (auto &b : blocks)
            b = heap.allocate(48 + (round % 3) * 100);
        std::vector<std::thread> remotes;
        for (int t = 0; t < kThreads; ++t) {
            remotes.emplace_back([&heap, &blocks, t] {
                for (int i = 0; i < kBatch; ++i)
                    heap.freeRemote(NumaHeap::headerOf(
                        blocks[static_cast<std::size_t>(t) * kBatch
                               + i]));
            });
        }
        for (int i = 0; i < kBatch; ++i) {
            void *p = heap.allocate(64);
            heap.freeLocal(NumaHeap::headerOf(p));
        }
        heap.drainRemote();
        for (auto &th : remotes)
            th.join();
    }
    heap.drainRemote();
    EXPECT_EQ(heap.outstanding(), 0);
    EXPECT_EQ(heap.remoteFrees(),
              static_cast<uint64_t>(kThreads) * kBatch * kRounds);
}

TEST(NumaHeapRuntime, WorkerAllocationsPoolAndRecycle)
{
    Runtime rt(dataOptions(1));
    constexpr int kAllocs = 1000;
    auto burst = [&] {
        rt.run([&] {
            for (int i = 0; i < kAllocs; ++i) {
                void *p = numa::allocate(256);
                static_cast<char *>(p)[0] = 1;
                numa::deallocate(p);
            }
        });
    };
    burst(); // cold: carve and fill the free list
    rt.resetStats();
    burst(); // steady state
    const WorkerCounters c = rt.stats().counters;
    EXPECT_EQ(c.dataBytesPooled, 256u * kAllocs);
    EXPECT_GT(c.dataSlabBytes, 0u);
    EXPECT_EQ(c.dataRemoteFrees, 0u);
    EXPECT_EQ(outstandingBlocks(rt), 0);
}

TEST(NumaHeapRuntime, NonOwnerDeallocateTakesTheRemotePath)
{
    Runtime rt(dataOptions(1));
    void *p = nullptr;
    rt.run([&] { p = numa::allocate(512); });
    ASSERT_NE(p, nullptr);
    // This thread is not the owning worker: the free must cross the
    // remote stack, not touch the owner's free list.
    numa::deallocate(p);
    EXPECT_GE(rt.stats().counters.dataRemoteFrees, 1u);
    EXPECT_EQ(outstandingBlocks(rt), 0);
}

TEST(NumaHeapRuntime, BigObjectsFallThroughToTheRegisteredArena)
{
    Runtime rt(dataOptions(1));
    const std::size_t before = rt.dataPageMap().rangeCount();
    void *p = nullptr;
    rt.run([&] { p = numa::allocate(NumaHeap::kMaxPooledBytes + 1); });
    ASSERT_NE(p, nullptr);
    // Registered (placement can see it), not pooled (too big).
    EXPECT_GE(rt.dataPageMap().registeredHomeOf(
                  reinterpret_cast<uint64_t>(p)),
              0);
    EXPECT_GT(rt.dataPageMap().rangeCount(), before);
    EXPECT_EQ(rt.stats().counters.dataBytesPooled, 0u);
    numa::deallocate(p);
    EXPECT_EQ(rt.dataPageMap().rangeCount(), before);
}

TEST(NumaHeapRuntime, BigAllocateOnFallsBackToAZeroedPlainBlock)
{
    Runtime rt(dataOptions(1));
    const std::size_t bytes = NumaArena::kMapThresholdBytes;
    void *mapped = numa::allocateOn(rt.arena(), bytes, 0);
    ASSERT_NE(mapped, nullptr);
    EXPECT_EQ(NumaHeap::headerOf(mapped)->sizeClass, NumaHeap::kClassArena);
    EXPECT_EQ(reinterpret_cast<uint64_t>(NumaHeap::headerOf(mapped))
                  % kPageBytes,
              0u);
    numa::deallocate(mapped);

    // A failed carve degrades to a plain block instead of aborting, and
    // the block still reads zero.
    const std::size_t before = rt.dataPageMap().rangeCount();
    NumaArena::failNextCarvesForTesting(1);
    void *p = numa::allocateOn(rt.arena(), bytes, 0);
    NumaArena::failNextCarvesForTesting(0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(NumaHeap::headerOf(p)->sizeClass, NumaHeap::kClassPlain);
    EXPECT_EQ(rt.dataPageMap().rangeCount(), before);
    const auto *c = static_cast<const unsigned char *>(p);
    EXPECT_EQ(std::count(c, c + bytes, 0), static_cast<std::ptrdiff_t>(bytes));
    numa::deallocate(p);
}

TEST(NumaHeapRuntime, NonWorkerThreadsUseTheAmbientArena)
{
    Runtime rt(dataOptions(1));
    // No worker binding on this thread: the ambient (runtime-owned)
    // arena serves the request, registered in the PageMap.
    void *p = numa::allocate(256);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(rt.dataPageMap().registeredHomeOf(
                  reinterpret_cast<uint64_t>(p)),
              0);
    numa::deallocate(p);
}

TEST(NumaHeapRuntime, ExplicitPlaceAllocatesOnThatSocket)
{
    RuntimeOptions o = dataOptions(2);
    o.numPlaces = 2;
    Runtime rt(o);
    void *p = numa::allocate(4096, /*place=*/1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(rt.dataPageMap().registeredHomeOf(
                  reinterpret_cast<uint64_t>(p)),
              1);
    numa::deallocate(p);
}

TEST(NumaHeapRuntime, HeapPolicyBypassesPoolAndRegistry)
{
    Runtime rt(dataOptions(1, DataHeapPolicy::Heap));
    void *p = nullptr;
    rt.run([&] { p = numa::allocate(256); });
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(rt.dataPageMap().registeredHomeOf(
                  reinterpret_cast<uint64_t>(p)),
              -1);
    numa::deallocate(p);
    const WorkerCounters c = rt.stats().counters;
    EXPECT_EQ(c.dataBytesPooled, 0u);
    EXPECT_EQ(c.dataSlabBytes, 0u);
}

TEST(NumaHeapRuntime, NoRuntimeFallsBackToThePlainHeap)
{
    // No Runtime alive at all: the plain path still works, so
    // data-plane containers are usable in tools and tests.
    void *p = numa::allocate(300);
    ASSERT_NE(p, nullptr);
    static_cast<char *>(p)[0] = 1;
    numa::deallocate(p);
}

/** Teardown with blocks still parked on remote stacks must leak
 * nothing: the heap destructor reclaims slabs wholesale (ASan job). */
TEST(NumaHeapRuntime, TeardownWithParkedRemoteFrees)
{
    for (int round = 0; round < 3; ++round) {
        Runtime rt(dataOptions(2));
        std::vector<void *> blocks(64);
        rt.run([&] {
            for (auto &b : blocks)
                b = numa::allocate(128);
        });
        // Freed from the main thread: all land on remote stacks, and
        // nothing forces the owners to drain before ~Runtime.
        for (void *b : blocks)
            numa::deallocate(b);
        EXPECT_EQ(outstandingBlocks(rt), 0);
    }
}

TEST(NumaHeapRuntime, NumaAllocatorPlacesVectorStorage)
{
    RuntimeOptions o = dataOptions(2);
    o.numPlaces = 2;
    Runtime rt(o);
    std::vector<int, NumaAllocator<int>> v{NumaAllocator<int>(1)};
    v.reserve(1024);
    for (int i = 0; i < 1024; ++i)
        v.push_back(i);
    EXPECT_EQ(rt.dataPageMap().registeredHomeOf(
                  reinterpret_cast<uint64_t>(v.data())),
              1);
    EXPECT_EQ(v[1023], 1023);
    // Copies propagate the place (stateful allocator contract).
    std::vector<int, NumaAllocator<int>> w = v;
    EXPECT_EQ(w.get_allocator().place(), 1);
    EXPECT_EQ(rt.dataPageMap().registeredHomeOf(
                  reinterpret_cast<uint64_t>(w.data())),
              1);
}

TEST(NumaHeapDeathTest, DoubleFreePanics)
{
    PageMap pm(2);
    NumaArena arena(pm);
    NumaHeap heap(0, 0, &arena);
    void *p = heap.allocate(64);
    heap.freeLocal(NumaHeap::headerOf(p));
    EXPECT_DEATH(heap.freeLocal(NumaHeap::headerOf(p)),
                 "assertion failed");
    void *q = heap.allocate(64); // p again, legitimately recycled
    heap.freeLocal(NumaHeap::headerOf(q));
    EXPECT_DEATH(heap.freeRemote(NumaHeap::headerOf(q)),
                 "assertion failed");
}

} // namespace
} // namespace numaws
