// Concurrency stress for MultiplyService, built to run under
// ThreadSanitizer: many client threads hammer submit() while the main
// thread shuts the service down mid-stream. The invariants under test are
// exactness properties, not rates — every submission either returns a
// future that resolves exactly once or throws a typed ServiceRejected, and
// the service's own counters conserve requests to the last one.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "bigint/random.hpp"
#include "service/service.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

struct ClientTally {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t expired = 0;
    std::uint64_t drained = 0;  ///< future delivered ServiceRejected
    std::uint64_t shed = 0;     ///< submit() threw
    std::uint64_t wrong = 0;
};

TEST(ServiceStress, ManyClientsOneServiceConservesEveryRequest) {
    constexpr int kClients = 8;
    constexpr int kPerClient = 40;

    ServiceConfig cfg;
    cfg.executors = 3;
    cfg.queue_capacity = 32;
    MultiplyService service(cfg);

    std::vector<ClientTally> tallies(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            Rng rng{0x5153u + static_cast<std::uint64_t>(c)};
            ClientTally& tally = tallies[static_cast<std::size_t>(c)];
            for (int i = 0; i < kPerClient; ++i) {
                MultiplyRequest req;
                // Mostly small (batchable) requests with an occasional
                // machine plan so both dispatch paths race the shutdown.
                const std::size_t bits = (i % 8 == 0) ? 5000 : 384;
                req.a = random_bits(rng, bits);
                req.b = random_bits(rng, bits);
                req.reliability_class = (i % 8 == 0)
                                            ? ReliabilityClass::Verified
                                            : ReliabilityClass::Fast;
                const BigInt expect =
                    toom_multiply(req.a, req.b, ToomPlan::make(3));
                ++tally.submitted;
                try {
                    auto fut = service.submit(std::move(req));
                    try {
                        const MultiplyOutcome out = fut.get();
                        switch (out.status) {
                            case OutcomeStatus::Completed:
                                ++tally.completed;
                                if (out.product != expect) ++tally.wrong;
                                break;
                            case OutcomeStatus::Failed:
                                ++tally.failed;
                                break;
                            case OutcomeStatus::Expired:
                                ++tally.expired;
                                break;
                        }
                    } catch (const ServiceRejected&) {
                        ++tally.drained;  // admitted, then shed by shutdown
                    }
                } catch (const ServiceRejected&) {
                    ++tally.shed;
                }
            }
        });
    }

    // Shut down mid-stream, draining what was admitted: the race between
    // submit() and close() is the point of the test.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    service.shutdown(/*drain=*/true);
    for (std::thread& t : clients) t.join();

    ClientTally total;
    for (const ClientTally& t : tallies) {
        total.submitted += t.submitted;
        total.completed += t.completed;
        total.failed += t.failed;
        total.expired += t.expired;
        total.drained += t.drained;
        total.shed += t.shed;
        total.wrong += t.wrong;
    }
    EXPECT_EQ(total.wrong, 0u);
    EXPECT_EQ(total.submitted,
              static_cast<std::uint64_t>(kClients) * kPerClient);
    // Every submission resolved exactly one way.
    EXPECT_EQ(total.submitted, total.completed + total.failed +
                                   total.expired + total.drained +
                                   total.shed);

    // The service's ledger matches the clients' — request conservation
    // holds across the shutdown race, with no lost or double-counted
    // request on either side of the API.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, total.submitted);
    EXPECT_EQ(stats.completed, total.completed);
    EXPECT_EQ(stats.failed, total.failed);
    EXPECT_EQ(stats.expired, total.expired);
    // Drain-mode shutdown runs the backlog; "drained" (admitted-then-shed)
    // only appears if a post-join submit slipped in, and then both sides
    // must agree.
    EXPECT_EQ(stats.drained, total.drained);
    EXPECT_EQ(stats.shed_total(), total.shed);
    EXPECT_EQ(stats.submitted, stats.admitted + stats.shed_total());
    EXPECT_EQ(stats.admitted, stats.completed + stats.failed +
                                  stats.expired + stats.drained);
}

TEST(ServiceStress, BurstsAndTricklesLoseNoWake) {
    // A push signals only an idle executor with no wake pending, and a pop
    // that leaves jobs behind hands the wake on. Bursts leave jobs behind
    // while executors sleep; single trickled requests each need a fresh
    // wake. Every future must be ready within a bound, so a lost wake
    // fails the test instead of hanging it.
    ServiceConfig cfg;
    cfg.executors = 3;
    cfg.max_batch = 4;
    MultiplyService service(cfg);

    Rng rng{0x3a7e};
    std::uint64_t submitted = 0;
    auto request = [&](std::size_t i) {
        // Every fifth request plans on the machine (not batchable), the
        // rest sequential (batchable).
        const bool machine = i % 5 == 0;
        MultiplyRequest req;
        req.a = random_bits(rng, machine ? 5000 : 384);
        req.b = random_bits(rng, machine ? 5000 : 384);
        return req;
    };
    auto settle = [&](MultiplyRequest req) {
        const BigInt expect = toom_multiply(req.a, req.b, ToomPlan::make(3));
        auto fut = service.submit(std::move(req));
        ++submitted;
        return std::make_pair(std::move(fut), expect);
    };
    const auto bound = std::chrono::seconds(60);
    for (int round = 0; round < 6; ++round) {
        std::vector<std::pair<std::future<MultiplyOutcome>, BigInt>> burst;
        for (std::size_t i = 0; i < 12; ++i) burst.push_back(settle(request(i)));
        for (auto& [fut, expect] : burst) {
            ASSERT_EQ(fut.wait_for(bound), std::future_status::ready)
                << "burst of round " << round;
            EXPECT_EQ(fut.get().product, expect);
        }
        for (std::size_t i = 0; i < 5; ++i) {
            // Let the executors go idle before each trickled request.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            auto [fut, expect] = settle(request(i + static_cast<std::size_t>(round)));
            ASSERT_EQ(fut.wait_for(bound), std::future_status::ready)
                << "trickle " << i << " of round " << round;
            EXPECT_EQ(fut.get().product, expect);
        }
    }
    service.shutdown(/*drain=*/true);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, submitted);
    EXPECT_EQ(stats.completed, submitted);
    EXPECT_GT(stats.completed_by_engine.at("sequential"), 0u);
    EXPECT_GT(stats.completed_by_engine.at("parallel"), 0u);
}

TEST(ServiceStress, ConcurrentShutdownsAreIdempotent) {
    ServiceConfig cfg;
    cfg.executors = 2;
    MultiplyService service(cfg);

    Rng rng{77};
    std::vector<std::future<MultiplyOutcome>> futures;
    for (int i = 0; i < 8; ++i) {
        MultiplyRequest req;
        req.a = random_bits(rng, 300);
        req.b = random_bits(rng, 300);
        futures.push_back(service.submit(std::move(req)));
    }
    std::vector<std::thread> closers;
    for (int i = 0; i < 4; ++i) {
        closers.emplace_back([&] { service.shutdown(/*drain=*/true); });
    }
    for (std::thread& t : closers) t.join();
    for (auto& f : futures) {
        const MultiplyOutcome out = f.get();
        EXPECT_EQ(out.status, OutcomeStatus::Completed) << out.error;
    }
    EXPECT_EQ(service.stats().completed, 8u);
}

}  // namespace
}  // namespace ftmul
