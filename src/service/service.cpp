#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "bigint/ops_counter.hpp"
#include "core/parallel.hpp"
#include "toom/sequential.hpp"

namespace ftmul {

namespace {

/// Fold one attempt's stats into a request total (rungs run in sequence,
/// so critical paths and aggregates add) — the resilient ladder's own
/// accumulation rule, applied to the service's plain-parallel retry.
void fold(RunStats& into, const RunStats& s) {
    if (s.world > into.world) into.world = s.world;
    into.critical += s.critical;
    into.aggregate += s.aggregate;
    for (const auto& [name, c] : s.per_phase) into.per_phase[name] += c;
    for (const auto& [name, c] : s.per_phase_agg) {
        into.per_phase_agg[name] += c;
    }
    if (s.peak_memory_words > into.peak_memory_words) {
        into.peak_memory_words = s.peak_memory_words;
    }
}

std::uint64_t us_since(ServiceClock::time_point start) {
    const auto d = std::chrono::duration_cast<std::chrono::microseconds>(
        ServiceClock::now() - start);
    return d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count());
}

}  // namespace

MultiplyService::MultiplyService(ServiceConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity),
      injector_(config_.chaos.seed),
      toom3_(ToomPlan::make(3)),
      shards_(static_cast<std::size_t>(
                  config_.executors < 0 ? 0 : config_.executors) +
              1) {
    auto& reg = MetricsRegistry::global();
    const char* outcome_help = "service requests by final outcome";
    metric_completed_ = reg.counter("ftmul_service_requests_total",
                                    {{"outcome", "completed"}}, outcome_help);
    metric_failed_ = reg.counter("ftmul_service_requests_total",
                                 {{"outcome", "failed"}}, outcome_help);
    metric_expired_ = reg.counter("ftmul_service_requests_total",
                                  {{"outcome", "expired"}}, outcome_help);
    const char* shed_help = "requests shed with a typed ServiceRejected";
    metric_shed_queue_full_ = reg.counter(
        "ftmul_service_shed_total", {{"reason", "queue_full"}}, shed_help);
    metric_shed_deadline_ =
        reg.counter("ftmul_service_shed_total",
                    {{"reason", "deadline_impossible"}}, shed_help);
    metric_shed_shutdown_ = reg.counter(
        "ftmul_service_shed_total", {{"reason", "shutting_down"}}, shed_help);
    metric_e2e_us_ =
        reg.histogram("ftmul_service_e2e_us", {}, duration_buckets_us(),
                      "end-to-end latency, admission to resolution");
    executors_.reserve(shards_.size() - 1);
    for (std::size_t i = 0; i + 1 < shards_.size(); ++i) {
        executors_.emplace_back([this, i] { executor_loop(shards_[i]); });
    }
}

MultiplyService::~MultiplyService() { shutdown(config_.drain_on_shutdown); }

std::future<MultiplyOutcome> MultiplyService::submit(MultiplyRequest request) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    MultiplyPlan plan =
        plan_multiply(request.a.bit_length(), request.b.bit_length(),
                      request.reliability_class, config_.policy);

    // Admission-time deadline check: a budget below the plan's cost-model
    // floor cannot be met even by the idealized machine — shed now instead
    // of queueing work that is guaranteed to expire.
    if (request.deadline != ServiceClock::time_point::max()) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::microseconds>(
                request.deadline - ServiceClock::now())
                .count();
        if (remaining < static_cast<long long>(plan.modeled_us)) {
            shed_deadline_impossible_.fetch_add(1, std::memory_order_relaxed);
            metric_shed_deadline_.inc();
            throw ServiceRejected(
                RejectReason::DeadlineImpossible,
                "budget " + std::to_string(remaining < 0 ? 0 : remaining) +
                    "us below the " + plan.engine + " plan's " +
                    std::to_string(plan.modeled_us) + "us cost-model floor");
        }
    }

    QueuedJob job;
    job.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    job.request = std::move(request);
    job.plan = std::move(plan);
    if (metric_e2e_us_.live()) job.enqueued_at = ServiceClock::now();
    std::future<MultiplyOutcome> fut = job.promise.get_future();

    // The queue counts admissions and both of its refusals.
    if (auto why = queue_.try_push(std::move(job))) {
        if (*why == RejectReason::QueueFull) {
            metric_shed_queue_full_.inc();
            throw ServiceRejected(
                RejectReason::QueueFull,
                "admission queue at capacity (" +
                    std::to_string(config_.queue_capacity) + ")");
        }
        metric_shed_shutdown_.inc();
        throw ServiceRejected(RejectReason::ShuttingDown,
                              "service no longer accepts submissions");
    }
    return fut;
}

void MultiplyService::shutdown(bool drain) {
    std::call_once(shutdown_once_, [&] {
        StatsShard& own = shards_.back();
        queue_.close();
        if (!drain) {
            // Shed the backlog first so executors stop as soon as their
            // current batch finishes; anything an executor popped
            // concurrently was admitted and still runs to resolution.
            std::vector<QueuedJob> backlog = queue_.drain();
            for (QueuedJob& job : backlog) shed_drained(job, own);
        }
        for (std::thread& t : executors_) t.join();
        executors_.clear();
        // With zero executors (or a drain raced by close) jobs may remain:
        // resolve every last promise on this thread — no admitted request
        // is ever lost.
        std::vector<QueuedJob> rest = queue_.drain();
        for (QueuedJob& job : rest) {
            if (drain) {
                execute(job, own);
            } else {
                shed_drained(job, own);
            }
        }
    });
}

ServiceStats MultiplyService::stats() const {
    // Downstream first: an outcome in a shard was popped, and so admitted,
    // before the queue lock below is taken.
    ServiceStats out;
    for (const StatsShard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        const ServiceStats& s = shard.stats;
        out.completed += s.completed;
        out.failed += s.failed;
        out.expired += s.expired;
        out.drained += s.drained;
        out.batches += s.batches;
        out.batched_requests += s.batched_requests;
        out.max_batch_observed =
            std::max(out.max_batch_observed, s.max_batch_observed);
        out.ladder_escalations += s.ladder_escalations;
        for (const auto& [engine, n] : s.completed_by_engine) {
            out.completed_by_engine[engine] += n;
        }
    }
    const AdmissionQueue::Counts q = queue_.counts();
    out.admitted = q.admitted;
    out.shed_queue_full = q.rejected_full;
    out.shed_shutting_down = q.rejected_closed;
    out.queue_depth_peak = q.peak_depth;
    out.submitted = submitted_.load(std::memory_order_relaxed);
    out.shed_deadline_impossible =
        shed_deadline_impossible_.load(std::memory_order_relaxed);
    return out;
}

void MultiplyService::executor_loop(StatsShard& shard) {
    std::vector<QueuedJob> batch;
    while (queue_.pop_batch(batch, config_.max_batch)) {
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            ++shard.stats.batches;
            shard.stats.batched_requests += batch.size();
            if (batch.size() > shard.stats.max_batch_observed) {
                shard.stats.max_batch_observed = batch.size();
            }
        }
        for (QueuedJob& job : batch) execute(job, shard);
    }
}

void MultiplyService::execute(QueuedJob& job, StatsShard& shard) {
    MultiplyOutcome out;
    if (ServiceClock::now() > job.request.deadline) {
        out.status = OutcomeStatus::Expired;
        out.error = "deadline expired at dequeue";
        finish(job, std::move(out), shard);
        return;
    }
    try {
        out = run_plan(job);
    } catch (const std::exception& e) {
        // Every enabled ladder rung failed — or the escalation gate
        // refused further rungs because the deadline passed mid-ladder.
        // Inclusive compare: the gate refuses at now >= deadline, so the
        // exact-boundary case classifies as Expired, not Failed.
        out = MultiplyOutcome{};
        out.status = ServiceClock::now() >= job.request.deadline
                         ? OutcomeStatus::Expired
                         : OutcomeStatus::Failed;
        out.error = e.what();
    }
    finish(job, std::move(out), shard);
}

MultiplyOutcome MultiplyService::run_plan(const QueuedJob& job) {
    const MultiplyPlan& plan = job.plan;
    MultiplyOutcome out;

    if (!plan.machine) {
        // The plan was fetched at construction, so F counts the multiply
        // alone.
        OpsCounter::reset();
        out.product = toom_multiply(job.request.a, job.request.b, toom3_);
        CostCounters c;
        c.flops = OpsCounter::get();
        OpsCounter::reset();
        out.stats.world = 1;
        out.stats.critical = c;
        out.stats.aggregate = c;
        out.ladder_attempts = 1;
        out.status = OutcomeStatus::Completed;
        return out;
    }

    ResilientConfig rc = plan.resilient;
    InjectedFaults injected;
    if (config_.chaos.enabled) {
        FaultInjectorConfig fic;
        fic.msg_corrupt_rate = config_.chaos.msg_corrupt_rate;
        fic.msg_drop_rate = config_.chaos.msg_drop_rate;
        fic.msg_dup_rate = config_.chaos.msg_dup_rate;
        fic.msg_reorder_rate = config_.chaos.msg_reorder_rate;
        if (plan.engine != "parallel") {
            // Hard faults only over FT-capable surfaces; the plain
            // parallel engine's contract excludes scheduled faults.
            const FaultSurface surface = fault_surface(rc);
            fic.phases = surface.phases;
            fic.ranks = surface.ranks;
            fic.hard_rate = config_.chaos.hard_rate;
        }
        injected = injector_.draw(fic, job.id);
        rc.base.transport_faults = injected.transport;
    }
    const bool bounded = job.request.deadline != ServiceClock::time_point::max();
    if (bounded) {
        const ServiceClock::time_point deadline = job.request.deadline;
        rc.escalation_gate = [deadline](const std::string&) {
            return ServiceClock::now() < deadline;
        };
    }

    if (plan.engine == "parallel") {
        // Plain parallel with the ladder's transport doctrine inlined: one
        // bounded retry on a fresh interconnect after a TransportFault the
        // guard could not absorb, gated by the deadline like any rung.
        try {
            ParallelRunResult r =
                parallel_toom_multiply(job.request.a, job.request.b, rc.base);
            out.product = std::move(r.product);
            out.stats = r.stats;
            out.ladder_attempts = 1;
            out.status = OutcomeStatus::Completed;
            return out;
        } catch (const TransportFault&) {
            if (rc.escalation_gate && !rc.escalation_gate("parallel-retry")) {
                throw;
            }
            ParallelConfig fresh = rc.base;
            fresh.transport_faults = TransportFaultModel{};
            ParallelRunResult r =
                parallel_toom_multiply(job.request.a, job.request.b, fresh);
            out.product = std::move(r.product);
            fold(out.stats, r.stats);
            out.ladder_attempts = 2;
            out.status = OutcomeStatus::Completed;
            return out;
        }
    }

    ResilientResult r = resilient_multiply(job.request.a, job.request.b, rc,
                                           injected.hard);
    out.product = std::move(r.product);
    out.stats = r.stats;
    out.ladder_attempts = static_cast<int>(r.attempts.size());
    out.status = OutcomeStatus::Completed;
    return out;
}

void MultiplyService::finish(QueuedJob& job, MultiplyOutcome outcome,
                             StatsShard& shard) {
    outcome.request_id = job.id;
    outcome.engine = job.plan.engine;
    outcome.modeled_us = job.plan.modeled_us;
    if (job.enqueued_at != ServiceClock::time_point{}) {
        metric_e2e_us_.observe(us_since(job.enqueued_at));
    }
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        ServiceStats& s = shard.stats;
        switch (outcome.status) {
            case OutcomeStatus::Completed:
                ++s.completed;
                ++s.completed_by_engine[outcome.engine];
                if (outcome.ladder_attempts > 1) ++s.ladder_escalations;
                break;
            case OutcomeStatus::Expired:
                ++s.expired;
                break;
            case OutcomeStatus::Failed:
                ++s.failed;
                break;
        }
    }
    switch (outcome.status) {
        case OutcomeStatus::Completed: metric_completed_.inc(); break;
        case OutcomeStatus::Expired: metric_expired_.inc(); break;
        case OutcomeStatus::Failed: metric_failed_.inc(); break;
    }
    job.promise.set_value(std::move(outcome));
}

void MultiplyService::shed_drained(QueuedJob& job, StatsShard& shard) {
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        ++shard.stats.drained;
    }
    metric_shed_shutdown_.inc();
    job.promise.set_exception(std::make_exception_ptr(ServiceRejected(
        RejectReason::ShuttingDown,
        "admitted request shed by shutdown before execution")));
}

}  // namespace ftmul
