/**
 * @file
 * THE-protocol deque tests: sequential LIFO/FIFO semantics, the
 * one-element owner/thief conflict, and a multithreaded stress test
 * checking that every pushed item is extracted exactly once.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "deque/ws_deque.h"

namespace numaws {
namespace {

struct Node
{
    int value;
};

TEST(WsDeque, OwnerLifoOrder)
{
    WsDeque<Node> d(16);
    Node a{1}, b{2}, c{3};
    d.pushTail(&a);
    d.pushTail(&b);
    d.pushTail(&c);
    EXPECT_EQ(d.popTail(), &c);
    EXPECT_EQ(d.popTail(), &b);
    EXPECT_EQ(d.popTail(), &a);
    EXPECT_EQ(d.popTail(), nullptr);
}

TEST(WsDeque, ThiefFifoOrder)
{
    WsDeque<Node> d(16);
    Node a{1}, b{2}, c{3};
    d.pushTail(&a);
    d.pushTail(&b);
    d.pushTail(&c);
    EXPECT_EQ(d.stealHead(), &a);
    EXPECT_EQ(d.stealHead(), &b);
    EXPECT_EQ(d.stealHead(), &c);
    EXPECT_EQ(d.stealHead(), nullptr);
}

TEST(WsDeque, OwnerAndThiefMeetInTheMiddle)
{
    WsDeque<Node> d(16);
    Node n[4] = {{0}, {1}, {2}, {3}};
    for (auto &x : n)
        d.pushTail(&x);
    EXPECT_EQ(d.stealHead(), &n[0]);
    EXPECT_EQ(d.popTail(), &n[3]);
    EXPECT_EQ(d.stealHead(), &n[1]);
    EXPECT_EQ(d.popTail(), &n[2]);
    EXPECT_TRUE(d.empty());
}

TEST(WsDeque, EmptyChecks)
{
    WsDeque<Node> d(8);
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.size(), 0);
    Node a{1};
    d.pushTail(&a);
    EXPECT_FALSE(d.empty());
    EXPECT_EQ(d.size(), 1);
    d.popTail();
    EXPECT_TRUE(d.empty());
}

TEST(WsDeque, WrapsAroundRingBuffer)
{
    // Head and tail both advance one slot a round, so from round 2 on
    // the live slots straddle the index wrap.
    WsDeque<Node> d(4);
    Node n[3] = {{0}, {1}, {2}};
    for (int round = 0; round < 10; ++round) {
        for (auto &x : n)
            d.pushTail(&x);
        EXPECT_EQ(d.stealHead(), &n[0]);
        EXPECT_EQ(d.popTail(), &n[2]);
        EXPECT_EQ(d.popTail(), &n[1]);
        EXPECT_EQ(d.popTail(), nullptr);
    }
}

/** Resident set size of this process in KiB, or -1 without procfs. */
long
residentKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return -1;
    long kb = -1;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

TEST(WsDeque, StorageIsNotTouchedAtConstruction)
{
    // A worker's deque is sized for the deepest spawn chain, far beyond
    // what a run touches; constructing one must not fault in its pages.
    constexpr std::size_t kCapacity = std::size_t{1} << 20; // 8 MiB
    const long before = residentKb();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/status";
    WsDeque<Node> d(kCapacity);
    EXPECT_LT(residentKb() - before, 1024);

    // Untouched slots are never read: the ring still works as a deque.
    // (Index wrap on unfilled storage is WrapsAroundRingBuffer's job.)
    Node n[3] = {{0}, {1}, {2}};
    for (auto &x : n)
        d.pushTail(&x);
    EXPECT_EQ(d.stealHead(), &n[0]);
    EXPECT_EQ(d.popTail(), &n[2]);
    EXPECT_EQ(d.popTail(), &n[1]);
    EXPECT_EQ(d.popTail(), nullptr);
    EXPECT_EQ(d.stealHead(), nullptr);
}

TEST(WsDequeStealHalf, TakesHalfFromTheHeadOldestFirst)
{
    WsDeque<Node> d(16);
    Node n[8] = {{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}};
    for (auto &x : n)
        d.pushTail(&x);
    Node *batch[8] = {};
    // Half of 8 is 4, oldest first.
    EXPECT_EQ(d.stealHalf(batch, 8), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(batch[i], &n[i]);
    EXPECT_EQ(d.size(), 4);
    // Remaining half again: ceil(4/2) == 2.
    EXPECT_EQ(d.stealHalf(batch, 8), 2u);
    EXPECT_EQ(batch[0], &n[4]);
    EXPECT_EQ(batch[1], &n[5]);
    // Owner still finds the youngest items at the tail.
    EXPECT_EQ(d.popTail(), &n[7]);
    EXPECT_EQ(d.popTail(), &n[6]);
    EXPECT_EQ(d.popTail(), nullptr);
}

TEST(WsDequeStealHalf, RespectsTheCapAndTheSingleItem)
{
    WsDeque<Node> d(16);
    Node n[6] = {{0}, {1}, {2}, {3}, {4}, {5}};
    for (auto &x : n)
        d.pushTail(&x);
    Node *batch[8] = {};
    // Cap below half: only max_n items move.
    EXPECT_EQ(d.stealHalf(batch, 2), 2u);
    EXPECT_EQ(batch[0], &n[0]);
    EXPECT_EQ(batch[1], &n[1]);
    // A single remaining item is still stolen (ceil(1/2) == 1).
    while (d.size() > 1)
        d.popTail();
    EXPECT_EQ(d.stealHalf(batch, 8), 1u);
    EXPECT_EQ(d.stealHalf(batch, 8), 0u); // empty deque yields nothing
    EXPECT_EQ(d.stealHalf(batch, 0), 0u); // zero capacity is a no-op
}

/** Batch thieves race the owner; nothing may be lost or duplicated. */
TEST(WsDequeStress, StealHalfNoLossNoDuplication)
{
    constexpr int kItems = 100000;
    constexpr int kThieves = 2;
    WsDeque<Node> d(1 << 17);
    std::vector<Node> nodes(kItems);
    for (int i = 0; i < kItems; ++i)
        nodes[i].value = i;

    std::vector<std::atomic<int>> extracted(kItems);
    for (auto &e : extracted)
        e.store(0);
    std::atomic<bool> done{false};
    std::atomic<int64_t> total{0};

    std::vector<std::thread> thieves;
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&] {
            Node *batch[8];
            int64_t mine = 0;
            auto drain = [&](std::size_t got) {
                for (std::size_t i = 0; i < got; ++i) {
                    extracted[batch[i]->value].fetch_add(1);
                    ++mine;
                }
            };
            while (!done.load(std::memory_order_acquire)) {
                drain(d.stealHalf(batch, 8));
                std::this_thread::yield();
            }
            while (std::size_t got = d.stealHalf(batch, 8))
                drain(got);
            total.fetch_add(mine);
        });
    }

    int64_t owner_got = 0;
    for (int i = 0; i < kItems; ++i) {
        d.pushTail(&nodes[i]);
        // Pop in bursts so the owner regularly contends at the tail
        // while batches are claimed at the head.
        if (i % 5 == 0) {
            if (Node *n = d.popTail()) {
                extracted[n->value].fetch_add(1);
                ++owner_got;
            }
        }
    }
    while (Node *n = d.popTail()) {
        extracted[n->value].fetch_add(1);
        ++owner_got;
    }
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();
    total.fetch_add(owner_got);

    EXPECT_EQ(total.load(), kItems);
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(extracted[i].load(), 1) << "item " << i;
}

/** Owner pushes/pops while thieves steal; every node must be extracted
 * exactly once across all parties. */
TEST(WsDequeStress, NoLossNoDuplication)
{
    constexpr int kItems = 200000;
    constexpr int kThieves = 3;
    // Capacity covers the worst case (owner pushes all items before any
    // extraction); overflow is a panic by design, not a resize.
    WsDeque<Node> d(1 << 18);
    std::vector<Node> nodes(kItems);
    for (int i = 0; i < kItems; ++i)
        nodes[i].value = i;

    std::vector<std::atomic<int>> extracted(kItems);
    for (auto &e : extracted)
        e.store(0);
    std::atomic<bool> done{false};
    std::atomic<int64_t> total{0};

    std::vector<std::thread> thieves;
    for (int t = 0; t < kThieves; ++t) {
        thieves.emplace_back([&] {
            int64_t mine = 0;
            while (!done.load(std::memory_order_acquire)) {
                if (Node *n = d.stealHead()) {
                    extracted[n->value].fetch_add(1);
                    ++mine;
                }
            }
            // Final drain.
            while (Node *n = d.stealHead()) {
                extracted[n->value].fetch_add(1);
                ++mine;
            }
            total.fetch_add(mine);
        });
    }

    int64_t owner_got = 0;
    for (int i = 0; i < kItems; ++i) {
        d.pushTail(&nodes[i]);
        // Pop occasionally so the owner contends at the tail.
        if (i % 3 == 0) {
            if (Node *n = d.popTail()) {
                extracted[n->value].fetch_add(1);
                ++owner_got;
            }
        }
    }
    while (Node *n = d.popTail()) {
        extracted[n->value].fetch_add(1);
        ++owner_got;
    }
    done.store(true, std::memory_order_release);
    for (auto &t : thieves)
        t.join();
    total.fetch_add(owner_got);

    EXPECT_EQ(total.load(), kItems);
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(extracted[i].load(), 1) << "item " << i;
}

} // namespace
} // namespace numaws
