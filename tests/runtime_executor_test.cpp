// Tests of the fiber executor behind Machine::run (src/runtime/executor.*):
// per-rank limb-op tallies survive switches between ranks that share a
// carrier, concurrent Machines share the carriers, and a 729-rank world
// runs to completion. Built and run under ThreadSanitizer and ASan+UBSan in
// CI, which check the fiber-switch annotations.

#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "runtime/machine.hpp"

namespace ftmul {
namespace {

TEST(Executor, RanksSharingACarrierChargeOnlyTheirOwnLimbOps) {
    // Three ranks per carrier, each multiplying operands of its own size,
    // then parking mid-phase on a receive, then multiply-adding: while a
    // rank is parked, others on its carrier run their own arithmetic. Each
    // rank's "work" ledger must hold exactly its own arithmetic's ops, as
    // measured by running the same arithmetic on this thread.
    const int p = static_cast<int>(3 * executor::max_carriers() + 1);
    Rng rng{404};
    std::vector<BigInt> a, b, c, d;
    std::vector<std::uint64_t> want;
    for (int r = 0; r < p; ++r) {
        a.push_back(random_bits(rng, 640 + 192 * static_cast<std::size_t>(r)));
        b.push_back(random_bits(rng, 512 + 64 * static_cast<std::size_t>(r)));
        c.push_back(random_bits(rng, 4096 - 32 * static_cast<std::size_t>(r)));
        d.push_back(random_bits(rng, 300 + 100 * static_cast<std::size_t>(r)));
        OpsCounter::reset();
        BigInt x = a.back() * b.back();
        x += c.back() * d.back();
        want.push_back(OpsCounter::get());
    }

    Machine m(p);
    m.enable_event_log();
    OpsCounter::reset();
    OpsCounter::add(12345);  // the caller's own tally must survive the run
    std::vector<BigInt> got(static_cast<std::size_t>(p));
    m.run([&](Rank& r) {
        const auto i = static_cast<std::size_t>(r.id());
        r.phase("work");
        BigInt x = a[i] * b[i];
        // Rank r waits for r + 1, so ranks 0 .. p-2 park mid-phase and
        // resume after their successors' arithmetic.
        if (r.id() + 1 < p) (void)r.recv(r.id() + 1, 1);
        x += c[i] * d[i];
        if (r.id() > 0) r.send(r.id() - 1, 1, {1});
        got[i] = std::move(x);
    });
    EXPECT_EQ(OpsCounter::get(), 12345u);
    OpsCounter::reset();

    for (int r = 0; r < p; ++r) {
        const auto i = static_cast<std::size_t>(r);
        EXPECT_EQ(got[i], a[i] * b[i] + c[i] * d[i]) << "rank " << r;
        std::uint64_t charged = 0;
        int closes = 0;
        for (const Event& e : m.event_log()->for_rank(r)) {
            if (e.kind == EventKind::PhaseEnd && e.phase == "work") {
                charged += e.counters.flops;
                ++closes;
            }
        }
        EXPECT_EQ(closes, 1) << "rank " << r;
        EXPECT_EQ(charged, want[i]) << "rank " << r;
    }
}

TEST(Executor, FourThreadsRunMachinesConcurrently) {
    // Concurrent Machines share the carriers. Each thread runs rings of
    // varying size with arithmetic between the hops, and thread 3 also
    // deadlocks every fifth run on purpose; every run must report its own
    // charges, and every deadlock must be detected in its own run only.
    constexpr int kThreads = 4;
    constexpr int kRuns = 25;
    std::atomic<int> bad{0};
    std::atomic<int> deadlocks{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int run = 0; run < kRuns; ++run) {
                const int p = 2 + (t + run) % 9;
                Machine m(p);
                if (t == 3 && run % 5 == 0) {
                    try {
                        m.run([&](Rank& r) {
                            if (r.id() == 0) (void)r.recv(p - 1, 9);
                        });
                        bad.fetch_add(1);
                    } catch (const DeadlockError&) {
                        deadlocks.fetch_add(1);
                    }
                    continue;
                }
                std::vector<std::uint64_t> seen(static_cast<std::size_t>(p));
                m.run([&](Rank& r) {
                    r.phase("ring");
                    BigInt v{r.id() + 1 + t};
                    for (int i = 0; i < 6; ++i) v *= v;
                    const int next = (r.id() + 1) % p;
                    const int prev = (r.id() + p - 1) % p;
                    r.send(next, 4,
                           {static_cast<std::uint64_t>(r.id()),
                            static_cast<std::uint64_t>(v.limb_count())});
                    const auto got = r.recv(prev, 4);
                    seen[static_cast<std::size_t>(r.id())] = got.at(0);
                });
                for (int r = 0; r < p; ++r) {
                    if (seen[static_cast<std::size_t>(r)] !=
                        static_cast<std::uint64_t>((r + p - 1) % p)) {
                        bad.fetch_add(1);
                    }
                }
                if (m.stats().aggregate.msgs != static_cast<std::uint64_t>(p) ||
                    m.stats().aggregate.words !=
                        2 * static_cast<std::uint64_t>(p)) {
                    bad.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(deadlocks.load(), kRuns / 5);
    EXPECT_LE(executor::carriers(), executor::max_carriers());
}

TEST(Executor, RingOf729RanksCompletes) {
    // 729 = 3^6 ranks, far more than carriers: each is a parked fiber
    // until its predecessor's message lands.
    constexpr int kP = 729;
    Machine m(kP);
    std::atomic<int> ok{0};
    m.run([&](Rank& r) {
        r.phase("ring");
        r.send((r.id() + 1) % kP, 3, {static_cast<std::uint64_t>(r.id())});
        const auto got = r.recv((r.id() + kP - 1) % kP, 3);
        if (got.at(0) == static_cast<std::uint64_t>((r.id() + kP - 1) % kP)) {
            ok.fetch_add(1);
        }
    });
    EXPECT_EQ(ok.load(), kP);
    EXPECT_EQ(m.stats().aggregate.msgs, static_cast<std::uint64_t>(kP));
    EXPECT_EQ(m.stats().per_phase.at("ring").msgs, 1u);
}

TEST(Executor, CurrentIsSetOnlyInsideRankFibers) {
    EXPECT_EQ(executor::current(), nullptr);
    Machine m(2);
    std::atomic<int> in_fiber{0};
    m.run([&](Rank&) {
        if (executor::current() != nullptr) in_fiber.fetch_add(1);
    });
    EXPECT_EQ(in_fiber.load(), 2);
}

}  // namespace
}  // namespace ftmul
