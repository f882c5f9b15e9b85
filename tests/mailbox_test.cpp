/**
 * @file
 * Mailbox tests. The single-entry capacity is load-bearing in the
 * Section IV analysis, so it is pinned down here, including under
 * concurrent contention.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "deque/mailbox.h"

namespace numaws {
namespace {

struct Frame
{
    int id;
};

TEST(Mailbox, PutTakeRoundTrip)
{
    Mailbox<Frame> m;
    Frame f{7};
    EXPECT_FALSE(m.full());
    EXPECT_TRUE(m.tryPut(&f));
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.peek(), &f);
    EXPECT_EQ(m.tryTake(), &f);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.tryTake(), nullptr);
}

TEST(Mailbox, SecondPutFailsWhileFull)
{
    Mailbox<Frame> m;
    Frame a{1}, b{2};
    EXPECT_TRUE(m.tryPut(&a));
    // Capacity one: the pusher must retry elsewhere (PUSHBACK semantics).
    EXPECT_FALSE(m.tryPut(&b));
    EXPECT_EQ(m.tryTake(), &a);
    EXPECT_TRUE(m.tryPut(&b));
    EXPECT_EQ(m.tryTake(), &b);
}

TEST(Mailbox, PeekDoesNotRemove)
{
    Mailbox<Frame> m;
    Frame f{3};
    m.tryPut(&f);
    EXPECT_EQ(m.peek(), &f);
    EXPECT_EQ(m.peek(), &f);
    EXPECT_EQ(m.tryTake(), &f);
    EXPECT_EQ(m.peek(), nullptr);
}

TEST(MailboxBoard, PublishesOccupancyTransitions)
{
    OccupancyBoard board(2, {0, 0});
    Mailbox<Frame> m;
    m.attachBoard(&board, 1);
    Frame a{1}, b{2};
    EXPECT_FALSE(board.mailboxOccupied(1));
    EXPECT_TRUE(m.tryPut(&a));
    EXPECT_TRUE(board.mailboxOccupied(1));
    // A rejected deposit leaves the parked frame's bit up...
    EXPECT_FALSE(m.tryPut(&b));
    EXPECT_TRUE(board.mailboxOccupied(1));
    // ...and it clears when the frame leaves.
    EXPECT_EQ(m.tryTake(), &a);
    EXPECT_FALSE(board.mailboxOccupied(1));
    EXPECT_FALSE(board.mailboxOccupied(0)); // neighbor untouched
}

/** Many producers race to deposit; consumers race to take. Every frame is
 * taken exactly once and the slot never "holds" a duplicate frame. */
TEST(MailboxStress, ExactlyOnceDelivery)
{
    constexpr int kProducers = 3;
    constexpr int kFramesPer = 8000;
    Mailbox<Frame> m;
    std::vector<Frame> frames(kProducers * kFramesPer);
    for (int i = 0; i < static_cast<int>(frames.size()); ++i)
        frames[i].id = i;

    std::vector<std::atomic<int>> taken(frames.size());
    for (auto &t : taken)
        t.store(0);
    std::atomic<bool> done{false};

    std::thread consumer([&] {
        while (!done.load(std::memory_order_acquire)) {
            if (Frame *f = m.tryTake())
                taken[f->id].fetch_add(1);
            else
                std::this_thread::yield();
        }
        while (Frame *f = m.tryTake())
            taken[f->id].fetch_add(1);
    });

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kFramesPer; ++i) {
                Frame *f = &frames[p * kFramesPer + i];
                // Yield while the slot is full: a busy-spin here livelocks
                // single-core hosts (the consumer never gets scheduled).
                while (!m.tryPut(f))
                    std::this_thread::yield();
            }
        });
    }
    for (auto &t : producers)
        t.join();
    done.store(true, std::memory_order_release);
    consumer.join();

    for (std::size_t i = 0; i < frames.size(); ++i)
        ASSERT_EQ(taken[i].load(), 1) << "frame " << i;
}

} // namespace
} // namespace numaws
