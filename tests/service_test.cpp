#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "runtime/metrics.hpp"
#include "service/report.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

BigInt ref_product(const BigInt& a, const BigInt& b) {
    return toom_multiply(a, b, ToomPlan::make(3));
}

MultiplyRequest make_request(Rng& rng, std::size_t bits,
                             ReliabilityClass cls) {
    MultiplyRequest req;
    req.a = random_bits(rng, bits);
    req.b = random_bits(rng, bits);
    req.reliability_class = cls;
    return req;
}

TEST(ReliabilityClassNames, RoundTrip) {
    for (ReliabilityClass cls :
         {ReliabilityClass::Fast, ReliabilityClass::FastRedundant,
          ReliabilityClass::Verified}) {
        EXPECT_EQ(reliability_class_from_string(to_string(cls)), cls);
    }
    EXPECT_THROW(reliability_class_from_string("bogus"),
                 std::invalid_argument);
    EXPECT_STREQ(to_string(RejectReason::QueueFull), "queue_full");
    EXPECT_STREQ(to_string(RejectReason::DeadlineImpossible),
                 "deadline_impossible");
    EXPECT_STREQ(to_string(RejectReason::ShuttingDown), "shutting_down");
    EXPECT_STREQ(to_string(OutcomeStatus::Completed), "completed");
}

TEST(Planner, TinyOperandsAlwaysSequentialAndBatchable) {
    for (ReliabilityClass cls :
         {ReliabilityClass::Fast, ReliabilityClass::FastRedundant,
          ReliabilityClass::Verified}) {
        const MultiplyPlan p = plan_multiply(512, 2048, cls);
        EXPECT_EQ(p.engine, "sequential");
        EXPECT_FALSE(p.machine);
        EXPECT_TRUE(p.batchable);
        EXPECT_EQ(p.world, 1);
        EXPECT_GT(p.charge.flops, 0u);
        EXPECT_GT(p.modeled_us, 0u);
    }
}

TEST(Planner, ClassSelectsEngineFamilyAboveTheCutoff) {
    const std::size_t bits = 8192;
    const MultiplyPlan fast =
        plan_multiply(bits, bits, ReliabilityClass::Fast);
    EXPECT_EQ(fast.engine, "parallel");
    EXPECT_TRUE(fast.machine);
    EXPECT_FALSE(fast.batchable);

    const MultiplyPlan redundant =
        plan_multiply(bits, bits, ReliabilityClass::FastRedundant);
    EXPECT_EQ(redundant.engine, "replication");
    EXPECT_EQ(redundant.resilient.engine, FtEngine::Replication);

    const MultiplyPlan verified =
        plan_multiply(bits, bits, ReliabilityClass::Verified);
    EXPECT_TRUE(verified.engine == "ft_poly" ||
                verified.engine == "ft_linear" ||
                verified.engine == "ft_mixed")
        << verified.engine;
    EXPECT_TRUE(verified.machine);
    // Redundancy costs: every machine plan occupies more than one rank,
    // and the redundant plans price above the plain parallel one.
    EXPECT_GT(fast.world, 1);
    EXPECT_GT(redundant.world, fast.world);
    EXPECT_GE(verified.modeled_us, fast.modeled_us);
}

TEST(Planner, PureAndMonotoneInOperandSize) {
    for (ReliabilityClass cls :
         {ReliabilityClass::Fast, ReliabilityClass::FastRedundant,
          ReliabilityClass::Verified}) {
        const MultiplyPlan once = plan_multiply(10000, 9000, cls);
        const MultiplyPlan again = plan_multiply(10000, 9000, cls);
        EXPECT_EQ(once.engine, again.engine);
        EXPECT_EQ(once.world, again.world);
        EXPECT_EQ(once.charge.flops, again.charge.flops);
        EXPECT_EQ(once.charge.words, again.charge.words);
        EXPECT_EQ(once.modeled_us, again.modeled_us);

        // Bigger operands never price below smaller ones under one policy.
        const MultiplyPlan small = plan_multiply(5000, 5000, cls);
        const MultiplyPlan large = plan_multiply(40000, 40000, cls);
        EXPECT_GE(large.charge.flops, small.charge.flops);
        EXPECT_GE(large.modeled_us, small.modeled_us);
    }
}

QueuedJob make_job(std::uint64_t id, int priority, bool batchable) {
    QueuedJob job;
    job.id = id;
    job.request.priority = priority;
    job.plan.batchable = batchable;
    return job;
}

std::vector<std::uint64_t> ids_of(const std::vector<QueuedJob>& batch) {
    std::vector<std::uint64_t> ids;
    for (const QueuedJob& job : batch) ids.push_back(job.id);
    return ids;
}

using Ids = std::vector<std::uint64_t>;

TEST(AdmissionQueue, PopsByPriorityThenFifoWithinALevel) {
    AdmissionQueue q(16);
    const int priorities[] = {0, 5, 0, 5, 1, 0, -2, 1};
    for (std::uint64_t id = 0; id < 8; ++id) {
        ASSERT_FALSE(q.try_push(make_job(id, priorities[id], false)));
    }
    // Non-batchable jobs dispatch one per round, so the rounds spell out
    // the queue's order.
    std::vector<QueuedJob> batch;
    Ids order;
    for (int round = 0; round < 8; ++round) {
        ASSERT_TRUE(q.pop_batch(batch, 8));
        ASSERT_EQ(batch.size(), 1u);
        order.push_back(batch.front().id);
    }
    EXPECT_EQ(order, (Ids{1, 3, 4, 7, 0, 2, 5, 6}));
}

TEST(AdmissionQueue, BatchGathersBatchableJobsAndLeavesTheRestInPlace) {
    AdmissionQueue q(16);
    ASSERT_FALSE(q.try_push(make_job(0, 0, true)));
    ASSERT_FALSE(q.try_push(make_job(1, 0, false)));
    ASSERT_FALSE(q.try_push(make_job(2, 0, true)));
    ASSERT_FALSE(q.try_push(make_job(3, 0, false)));
    ASSERT_FALSE(q.try_push(make_job(4, 0, true)));
    ASSERT_FALSE(q.try_push(make_job(5, 0, true)));

    std::vector<QueuedJob> batch;
    // Capped at max_batch, skipping job 1 on the way.
    ASSERT_TRUE(q.pop_batch(batch, 3));
    EXPECT_EQ(ids_of(batch), (Ids{0, 2, 4}));
    // The skipped job is still at the head: it dispatches alone.
    ASSERT_TRUE(q.pop_batch(batch, 3));
    EXPECT_EQ(ids_of(batch), (Ids{1}));
    ASSERT_TRUE(q.pop_batch(batch, 3));
    EXPECT_EQ(ids_of(batch), (Ids{3}));
    ASSERT_TRUE(q.pop_batch(batch, 3));
    EXPECT_EQ(ids_of(batch), (Ids{5}));
    EXPECT_EQ(q.counts().admitted, 6u);
    EXPECT_EQ(q.counts().peak_depth, 6u);
}

TEST(AdmissionQueue, RefusesAtCapacityAndAfterCloseThenDrainsToFalse) {
    AdmissionQueue q(2);
    ASSERT_FALSE(q.try_push(make_job(0, 0, true)));
    ASSERT_FALSE(q.try_push(make_job(1, 0, true)));

    // A refused job is left untouched: its promise still belongs to the
    // caller.
    QueuedJob refused = make_job(2, 0, true);
    std::future<MultiplyOutcome> fut = refused.promise.get_future();
    EXPECT_EQ(q.try_push(std::move(refused)), RejectReason::QueueFull);
    refused.promise.set_value(MultiplyOutcome{});
    EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);

    std::vector<QueuedJob> batch;
    ASSERT_TRUE(q.pop_batch(batch, 1));
    EXPECT_EQ(ids_of(batch), (Ids{0}));
    ASSERT_FALSE(q.try_push(make_job(3, 0, true)));  // room again

    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_EQ(q.try_push(make_job(4, 0, true)), RejectReason::ShuttingDown);
    // A closed queue still hands out what it holds, then reports false
    // instead of blocking.
    ASSERT_TRUE(q.pop_batch(batch, 8));
    EXPECT_EQ(ids_of(batch), (Ids{1, 3}));
    EXPECT_FALSE(q.pop_batch(batch, 8));
    EXPECT_TRUE(batch.empty());
    EXPECT_FALSE(q.pop_batch(batch, 8));

    const AdmissionQueue::Counts c = q.counts();
    EXPECT_EQ(c.admitted, 3u);
    EXPECT_EQ(c.rejected_full, 1u);
    EXPECT_EQ(c.rejected_closed, 1u);
    EXPECT_EQ(c.peak_depth, 2u);
}

TEST(AdmissionQueue, JobsLeftBehindWakeAnotherIdleExecutor) {
    // Two jobs pushed back to back while both executors sleep: the first
    // push signals, the second finds that wake pending and does not. Each
    // executor then holds its job until both are out, so the second job
    // must reach the second executor through the first one's pop.
    AdmissionQueue q(8);
    std::atomic<int> popped{0};
    std::atomic<bool> timed_out{false};
    std::vector<std::thread> executors;
    for (int i = 0; i < 2; ++i) {
        executors.emplace_back([&] {
            std::vector<QueuedJob> batch;
            while (q.pop_batch(batch, 1)) {
                popped.fetch_add(1);
                const auto until = std::chrono::steady_clock::now() +
                                   std::chrono::seconds(30);
                while (popped.load() < 2) {
                    if (std::chrono::steady_clock::now() > until) {
                        timed_out = true;
                        break;
                    }
                    std::this_thread::yield();
                }
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_FALSE(q.try_push(make_job(0, 0, false)));
    ASSERT_FALSE(q.try_push(make_job(1, 0, false)));
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(40);
    while (popped.load() < 2 && std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
    }
    q.close();
    for (std::thread& t : executors) t.join();
    EXPECT_EQ(popped.load(), 2);
    EXPECT_FALSE(timed_out.load());
}

TEST(Service, CompletesEveryClassWithCorrectProducts) {
    Rng rng{301};
    ServiceConfig cfg;
    cfg.executors = 2;
    MultiplyService service(cfg);

    struct Case {
        MultiplyRequest req;
        BigInt expect;
    };
    std::vector<Case> cases;
    std::vector<std::future<MultiplyOutcome>> futures;
    const std::vector<std::pair<std::size_t, ReliabilityClass>> mix = {
        {512, ReliabilityClass::Fast},
        {6000, ReliabilityClass::Fast},
        {6000, ReliabilityClass::FastRedundant},
        {6000, ReliabilityClass::Verified},
        {1024, ReliabilityClass::Verified},
    };
    for (const auto& [bits, cls] : mix) {
        Case c;
        c.req = make_request(rng, bits, cls);
        c.expect = ref_product(c.req.a, c.req.b);
        futures.push_back(service.submit(MultiplyRequest(c.req)));
        cases.push_back(std::move(c));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const MultiplyOutcome out = futures[i].get();
        EXPECT_EQ(out.status, OutcomeStatus::Completed) << out.error;
        EXPECT_EQ(out.product, cases[i].expect);
        EXPECT_FALSE(out.engine.empty());
        EXPECT_GE(out.ladder_attempts, 1);
    }
    service.shutdown(/*drain=*/true);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, mix.size());
    EXPECT_EQ(stats.admitted, mix.size());
    EXPECT_EQ(stats.completed, mix.size());
    EXPECT_EQ(stats.shed_total(), 0u);
    EXPECT_EQ(stats.submitted, stats.admitted + stats.shed_total());
    EXPECT_EQ(stats.admitted, stats.completed + stats.failed +
                                  stats.expired + stats.drained);
    // Engine attribution adds up.
    std::uint64_t by_engine = 0;
    for (const auto& [engine, n] : stats.completed_by_engine) by_engine += n;
    EXPECT_EQ(by_engine, stats.completed);
}

TEST(Service, ImpossibleDeadlineIsShedTypedAtSubmit) {
    Rng rng{302};
    MultiplyService service;
    MultiplyRequest req =
        make_request(rng, 20000, ReliabilityClass::Verified);
    // One nanosecond of budget is below any machine plan's cost-model
    // floor; the request must never reach the queue.
    req.deadline = ServiceClock::now() + std::chrono::nanoseconds(1);
    try {
        service.submit(std::move(req));
        FAIL() << "expected ServiceRejected";
    } catch (const ServiceRejected& rej) {
        EXPECT_EQ(rej.reason(), RejectReason::DeadlineImpossible);
        EXPECT_NE(std::string(rej.what()).find("deadline_impossible"),
                  std::string::npos);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.admitted, 0u);
    EXPECT_EQ(stats.shed_deadline_impossible, 1u);
}

TEST(Service, BoundedQueueShedsQueueFullAndShutdownResolvesBacklog) {
    Rng rng{303};
    ServiceConfig cfg;
    cfg.executors = 0;  // inert: nothing drains the queue
    cfg.queue_capacity = 2;
    MultiplyService service(cfg);

    auto f1 = service.submit(make_request(rng, 256, ReliabilityClass::Fast));
    auto f2 = service.submit(make_request(rng, 256, ReliabilityClass::Fast));
    try {
        service.submit(make_request(rng, 256, ReliabilityClass::Fast));
        FAIL() << "expected ServiceRejected";
    } catch (const ServiceRejected& rej) {
        EXPECT_EQ(rej.reason(), RejectReason::QueueFull);
    }

    // Shedding shutdown still resolves every admitted future — with the
    // typed ShuttingDown rejection, never a broken promise.
    service.shutdown(/*drain=*/false);
    for (auto* f : {&f1, &f2}) {
        try {
            f->get();
            FAIL() << "expected ServiceRejected through the future";
        } catch (const ServiceRejected& rej) {
            EXPECT_EQ(rej.reason(), RejectReason::ShuttingDown);
        }
    }
    EXPECT_FALSE(service.accepting());
    EXPECT_THROW(
        service.submit(make_request(rng, 256, ReliabilityClass::Fast)),
        ServiceRejected);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.drained, 2u);
    EXPECT_EQ(stats.shed_queue_full, 1u);
    EXPECT_EQ(stats.shed_shutting_down, 1u);
    EXPECT_EQ(stats.queue_depth_peak, 2u);
}

TEST(Service, DeadlineExpiryAtDequeueYieldsExpiredOutcome) {
    Rng rng{304};
    ServiceConfig cfg;
    cfg.executors = 0;  // executes inline at drain time — after the wait
    MultiplyService service(cfg);

    MultiplyRequest req = make_request(rng, 512, ReliabilityClass::Fast);
    req.deadline = ServiceClock::now() + std::chrono::milliseconds(20);
    auto fut = service.submit(std::move(req));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    service.shutdown(/*drain=*/true);

    const MultiplyOutcome out = fut.get();
    EXPECT_EQ(out.status, OutcomeStatus::Expired);
    EXPECT_NE(out.error.find("dequeue"), std::string::npos);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.completed, 0u);
}

TEST(Service, HigherPriorityDequeuesFirst) {
    Rng rng{305};
    ServiceConfig cfg;
    cfg.executors = 0;
    cfg.max_batch = 1;  // one request per dispatch round
    MultiplyService service(cfg);

    MultiplyRequest low = make_request(rng, 256, ReliabilityClass::Fast);
    low.priority = 0;
    MultiplyRequest high = make_request(rng, 256, ReliabilityClass::Fast);
    high.priority = 5;
    const BigInt low_ref = ref_product(low.a, low.b);
    const BigInt high_ref = ref_product(high.a, high.b);

    auto f_low = service.submit(std::move(low));
    auto f_high = service.submit(std::move(high));
    service.shutdown(/*drain=*/true);

    // Both run at drain, in the queue's order; the outcomes cannot show
    // that order, so this checks the products and that both were queued
    // together. AdmissionQueue.PopsByPriorityThenFifoWithinALevel checks
    // the order itself.
    const MultiplyOutcome out_high = f_high.get();
    const MultiplyOutcome out_low = f_low.get();
    EXPECT_EQ(out_high.product, high_ref);
    EXPECT_EQ(out_low.product, low_ref);
    EXPECT_EQ(service.stats().queue_depth_peak, 2u);
}

TEST(Service, BatchesCompatibleSmallRequests) {
    Rng rng{306};
    ServiceConfig cfg;
    cfg.executors = 1;
    cfg.max_batch = 8;
    MultiplyService service(cfg);

    // Small (sequential-plan) requests submitted in a burst: with one
    // executor they pile up and dispatch in batches.
    std::vector<std::future<MultiplyOutcome>> futures;
    std::vector<BigInt> expect;
    for (int i = 0; i < 24; ++i) {
        MultiplyRequest req = make_request(rng, 512, ReliabilityClass::Fast);
        expect.push_back(ref_product(req.a, req.b));
        futures.push_back(service.submit(std::move(req)));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const MultiplyOutcome out = futures[i].get();
        EXPECT_EQ(out.status, OutcomeStatus::Completed) << out.error;
        EXPECT_EQ(out.product, expect[i]);
        EXPECT_EQ(out.engine, "sequential");
    }
    service.shutdown(/*drain=*/true);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 24u);
    EXPECT_EQ(stats.batched_requests, 24u);
    EXPECT_LE(stats.max_batch_observed, 8u);
    EXPECT_LE(stats.batches, 24u);
    // Dispatch rounds account for every request exactly once.
    EXPECT_GE(stats.batches, (24u + 7u) / 8u);
}

TEST(Service, SequentialChargeExcludesPlanConstruction) {
    // A sequential request is charged the multiply alone, as the ladder's
    // sequential rung is: building the Toom plan is not its arithmetic.
    Rng rng{308};
    MultiplyRequest req = make_request(rng, 1024, ReliabilityClass::Fast);
    const ToomPlan& plan = ToomPlan::make(3);
    OpsCounter::reset();
    const BigInt expect = toom_multiply(req.a, req.b, plan);
    const std::uint64_t bare = OpsCounter::get();

    MultiplyService service;
    const MultiplyOutcome out = service.submit(std::move(req)).get();
    service.shutdown(/*drain=*/true);
    ASSERT_EQ(out.status, OutcomeStatus::Completed) << out.error;
    EXPECT_EQ(out.engine, "sequential");
    EXPECT_EQ(out.product, expect);
    EXPECT_EQ(out.stats.critical.flops, bare);
    EXPECT_EQ(out.stats.aggregate.flops, bare);
}

TEST(Service, LatencyHistogramSamplesOnlyWhileLive) {
    // A request reads the clock for its end-to-end sample only while the
    // histogram is live; the depth gauge is published under the queue
    // lock and reads 0 once the queue is drained.
    MetricsRegistry& reg = MetricsRegistry::global();
    const bool was_enabled = reg.enabled();
    const Histogram e2e =
        reg.histogram("ftmul_service_e2e_us", {}, duration_buckets_us());
    const Gauge depth = reg.gauge("ftmul_service_queue_depth");
    Rng rng{309};
    auto serve = [&](int requests) {
        ServiceConfig cfg;
        cfg.executors = 1;
        MultiplyService service(cfg);
        std::vector<std::future<MultiplyOutcome>> futures;
        for (int i = 0; i < requests; ++i) {
            futures.push_back(service.submit(
                make_request(rng, 256, ReliabilityClass::Fast)));
        }
        for (auto& f : futures) {
            EXPECT_EQ(f.get().status, OutcomeStatus::Completed);
        }
    };
    reg.set_enabled(false);
    const std::uint64_t before = e2e.count();
    serve(3);
    EXPECT_EQ(e2e.count(), before);
    reg.set_enabled(true);
    serve(5);
    EXPECT_EQ(e2e.count(), before + 5);
    EXPECT_EQ(depth.value(), 0);
    reg.set_enabled(was_enabled);
}

TEST(Service, ChaosUnderLoadNeverDeliversAWrongProduct) {
    Rng rng{307};
    ServiceConfig cfg;
    cfg.executors = 3;
    cfg.chaos.enabled = true;
    cfg.chaos.seed = 1234;
    cfg.chaos.hard_rate = 0.35;
    cfg.chaos.msg_corrupt_rate = 0.02;
    cfg.chaos.msg_drop_rate = 0.02;
    cfg.chaos.msg_dup_rate = 0.02;
    cfg.chaos.msg_reorder_rate = 0.02;
    MultiplyService service(cfg);

    std::vector<std::future<MultiplyOutcome>> futures;
    std::vector<BigInt> expect;
    const std::vector<ReliabilityClass> classes = {
        ReliabilityClass::Verified, ReliabilityClass::FastRedundant,
        ReliabilityClass::Fast};
    for (int i = 0; i < 30; ++i) {
        MultiplyRequest req =
            make_request(rng, 5000 + 100 * (i % 7), classes[i % 3]);
        expect.push_back(ref_product(req.a, req.b));
        futures.push_back(service.submit(std::move(req)));
    }
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const MultiplyOutcome out = futures[i].get();
        if (out.status == OutcomeStatus::Completed) {
            ++completed;
            EXPECT_EQ(out.product, expect[i])
                << "WRONG PRODUCT under chaos, engine " << out.engine;
        }
    }
    service.shutdown(/*drain=*/true);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, completed);
    // At this hard rate the ladder must have escalated somewhere, and
    // still recovered everything: no deadline was set, so nothing expires
    // and nothing may fail outright.
    EXPECT_GT(stats.ladder_escalations, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.completed, 30u);
}

TEST(ServiceReport, PlannedSectionIsAPureFunctionOfTheWorkload) {
    std::vector<MultiplyPlan> planned;
    for (std::size_t bits : {512, 6000, 9000}) {
        for (ReliabilityClass cls :
             {ReliabilityClass::Fast, ReliabilityClass::Verified}) {
            planned.push_back(plan_multiply(bits, bits, cls));
        }
    }
    ServiceRunInfo info;
    info.seed = 9;
    info.requests_generated = planned.size();

    // Two runs with wildly different runtime tallies: the planned section
    // must not move a byte.
    ServiceStats quiet;
    ServiceStats busy;
    busy.submitted = 100;
    busy.admitted = 80;
    busy.completed = 70;
    busy.expired = 10;
    busy.shed_queue_full = 20;
    busy.completed_by_engine["sequential"] = 70;

    ServiceRunInfo info_b = info;
    info_b.clients = 8;
    info_b.e2e_latency_us = {5, 10, 20, 40};
    const Json a = build_service_report(planned, quiet, info);
    const Json b = build_service_report(planned, busy, info_b);
    EXPECT_EQ(a.at("planned").dump(2), b.at("planned").dump(2));
    EXPECT_EQ(a.at("schema").as_string(), "ftmul.service_report");
    EXPECT_EQ(a.at("version").as_int(), 1);

    // Observed tallies do land in the document.
    EXPECT_EQ(b.at("observed").at("submitted").as_uint(), 100u);
    EXPECT_EQ(b.at("observed").at("shed").at("queue_full").as_uint(), 20u);
    const Json& lat = b.at("observed").at("e2e_latency_us");
    EXPECT_EQ(lat.at("count").as_uint(), 4u);
    EXPECT_EQ(lat.at("p50").as_uint(), 10u);
    EXPECT_EQ(lat.at("max").as_uint(), 40u);
}

}  // namespace
}  // namespace ftmul
