// Sharded-mailbox unit tests: FIFO per (src, tag), tag separation, slot
// reclamation (the seed's queue-map leak, fixed), table growth, abort and
// parking behavior — plus machine-level regression tests that pin the
// bounded-slot guarantee and the charges of a BigInt exchange.

#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/machine.hpp"

namespace ftmul {
namespace {

PayloadBuf make_payload(std::initializer_list<std::uint64_t> words) {
    return PayloadBuf::adopt(std::vector<std::uint64_t>(words));
}

TEST(Mailbox, FifoPerSourceAndTag) {
    Mailbox mb(4);
    mb.push(1, 7, make_payload({10}));
    mb.push(1, 7, make_payload({20}));
    mb.push(2, 7, make_payload({30}));
    EXPECT_EQ(mb.pop(1, 7)[0], 10u);
    EXPECT_EQ(mb.pop(2, 7)[0], 30u);
    EXPECT_EQ(mb.pop(1, 7)[0], 20u);
}

TEST(Mailbox, TagsMatchIndependently) {
    Mailbox mb(2);
    mb.push(0, 1, make_payload({111}));
    mb.push(0, 2, make_payload({222}));
    // Pop in reverse tag order: matching must be by tag, not arrival.
    EXPECT_EQ(mb.pop(0, 2)[0], 222u);
    EXPECT_EQ(mb.pop(0, 1)[0], 111u);
}

TEST(Mailbox, DrainedSlotsAreReclaimed) {
    // The seed's std::map mailbox never erased a (src, tag) queue: the map
    // grew by one node per distinct tag for the life of the run. The
    // sharded table must reclaim drained slots, keeping live_slots bounded
    // by the number of *in-flight* pairs, not the number ever used.
    Mailbox mb(2);
    for (int tag = 0; tag < 1000; ++tag) {
        mb.push(1, tag, make_payload({static_cast<std::uint64_t>(tag)}));
        EXPECT_EQ(mb.pop(1, tag)[0], static_cast<std::uint64_t>(tag));
        ASSERT_EQ(mb.live_slots(), 0u) << "slot leaked at tag " << tag;
    }
}

TEST(Mailbox, LiveSlotsTrackInFlightPairsThroughErasure) {
    // A slot lives while its (src, tag) queue holds a message and goes the
    // moment the queue drains. Draining tags in an order unrelated to
    // insertion erases slots from the middle of probe chains; the
    // backward-shift deletion must keep every other tag reachable.
    Mailbox mb(3);
    constexpr int kTags = 200;  // grows the table well past its initial 8
    // Scattered distinct tags, so probe chains form as for random keys.
    const auto tag_of = [](int i) { return i * 40503 % 65521; };
    for (int i = 0; i < kTags; ++i) {
        for (std::uint64_t k = 0; k < 2; ++k) {
            mb.push(2, tag_of(i),
                    make_payload({static_cast<std::uint64_t>(i) * 10 + k}));
        }
    }
    mb.push(0, tag_of(0), make_payload({99}));
    EXPECT_EQ(mb.live_slots(), static_cast<std::size_t>(kTags) + 1);
    // First message of every tag, in a stride-3 order: no queue drains.
    for (int j = 0; j < kTags; ++j) {
        const int i = j * 3 % kTags;
        EXPECT_EQ(mb.pop(2, tag_of(i))[0],
                  static_cast<std::uint64_t>(i) * 10);
    }
    EXPECT_EQ(mb.live_slots(), static_cast<std::size_t>(kTags) + 1);
    // Second message, stride-7 order: each pop drains and erases one slot.
    for (int j = 0; j < kTags; ++j) {
        const int i = j * 7 % kTags;
        EXPECT_EQ(mb.pop(2, tag_of(i))[0],
                  static_cast<std::uint64_t>(i) * 10 + 1);
        EXPECT_EQ(mb.live_slots(), static_cast<std::size_t>(kTags - j));
    }
    // The same tag from another source is a separate slot.
    EXPECT_EQ(mb.pop(0, tag_of(0))[0], 99u);
    EXPECT_EQ(mb.live_slots(), 0u);
}

TEST(Mailbox, TableGrowsUnderManyConcurrentTags) {
    // More in-flight tags than the initial table size forces growth and
    // rehash; everything must still match and then reclaim down to zero.
    Mailbox mb(2);
    constexpr int kTags = 64;
    for (int tag = 0; tag < kTags; ++tag) {
        mb.push(0, tag, make_payload({static_cast<std::uint64_t>(tag * 3)}));
    }
    EXPECT_EQ(mb.live_slots(), static_cast<std::size_t>(kTags));
    for (int tag = kTags - 1; tag >= 0; --tag) {
        EXPECT_EQ(mb.pop(0, tag)[0], static_cast<std::uint64_t>(tag * 3));
    }
    EXPECT_EQ(mb.live_slots(), 0u);
}

TEST(Mailbox, PushBatchPreservesPerTagFifo) {
    Mailbox mb(2);
    std::vector<TaggedPayload> batch;
    batch.push_back({5, make_payload({1})});
    batch.push_back({6, make_payload({2})});
    batch.push_back({5, make_payload({3})});
    mb.push_batch(1, std::move(batch));
    EXPECT_EQ(mb.pop(1, 5)[0], 1u);
    EXPECT_EQ(mb.pop(1, 5)[0], 3u);
    EXPECT_EQ(mb.pop(1, 6)[0], 2u);
    EXPECT_EQ(mb.live_slots(), 0u);
}

TEST(Mailbox, BlockingPopOutsideAFiberThrows) {
    // Only a rank fiber can park; a plain thread that would block forever
    // gets an error instead of a hang.
    Mailbox mb(2);
    EXPECT_THROW(mb.pop(0, 9), std::logic_error);
    mb.push(0, 9, make_payload({4}));
    EXPECT_EQ(mb.pop(0, 9)[0], 4u);  // a filled queue pops anywhere
}

TEST(Mailbox, AbortWakesParkedPop) {
    // A lone fiber parks on a queue nobody fills. The executor calls the
    // deadlock handler only once every fiber of the run is parked, so the
    // abort there provably lands on a registered waiter and must wake it
    // with RunAborted.
    Mailbox mb(2);
    bool parked = false;
    std::atomic<int> aborted{0};
    executor::run(
        1, 0,
        [&](std::size_t) {
            try {
                (void)mb.pop(1, 3);
            } catch (const RunAborted&) {
                aborted.fetch_add(1);
            }
        },
        [&] {
            parked = true;
            mb.abort();
        });
    EXPECT_TRUE(parked);
    EXPECT_EQ(aborted.load(), 1);
    // Aborted mailboxes stay aborted: a later pop fails immediately.
    EXPECT_THROW(mb.pop(1, 3), RunAborted);
}

// ---------------------------------------------------------------------------
// Machine-level regression: bounded slots and pinned exchange charges.
// ---------------------------------------------------------------------------

TEST(MachineMailbox, PooledMailboxSlotsStayBounded) {
    Machine m(2);
    m.run([&](Rank& r) {
        const int peer = 1 - r.id();
        for (int round = 0; round < 200; ++round) {
            // A fresh tag every round: the seed mailbox would hold 200 dead
            // queues per source by the end.
            r.send(peer, round, {static_cast<std::uint64_t>(round)});
            auto got = r.recv(peer, round);
            ASSERT_EQ(got.size(), 1u);
            ASSERT_EQ(got[0], static_cast<std::uint64_t>(round));
        }
    });
    EXPECT_EQ(m.mailbox_live_slots(0), 0u);
    EXPECT_EQ(m.mailbox_live_slots(1), 0u);
}

TEST(MachineMailbox, ExchangeChargesArePinned) {
    // Wall-clock belongs to the data plane, the cost model does not: a
    // pairwise exchange of five 12-limb BigInts charges one 71-word frame
    // (count word + 5 x (sign, length, 12 limbs)) per rank, whatever the
    // transport does underneath. The pooled plane and the removed seed
    // plane both charged exactly these values.
    Machine m(4);
    m.run([&](Rank& r) {
        const int peer = r.id() ^ 1;
        std::vector<BigInt> vals;
        for (int i = 0; i < 5; ++i) {
            vals.push_back(BigInt{(r.id() + 1) * 1000 + i} << 700);
        }
        r.send_bigints(peer, 3, vals);
        auto got = r.recv_bigints(peer, 3);
        EXPECT_EQ(got.size(), vals.size());
    });
    const RunStats& s = m.stats();
    EXPECT_EQ(s.aggregate.msgs, 4u);
    EXPECT_EQ(s.aggregate.words, 4u * 71u);
    EXPECT_EQ(s.aggregate.latency, 0u);
    EXPECT_EQ(s.critical.msgs, 1u);
    EXPECT_EQ(s.critical.words, 71u);
    EXPECT_EQ(s.critical.latency, 0u);
}

}  // namespace
}  // namespace ftmul
