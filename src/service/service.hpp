#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "service/planner.hpp"
#include "service/queue.hpp"
#include "service/request.hpp"
#include "toom/plan.hpp"

namespace ftmul {

/// Fault-injection profile a service run composes with its workload: when
/// enabled, every machine-plan request draws its own InjectedFaults (trial
/// index = request id) so hard faults and data-plane faults fire *under
/// concurrent load* — the FT engines and the resilient ladder still never
/// let a wrong product through.
struct ServiceChaos {
    bool enabled = false;
    std::uint64_t seed = 42;

    /// Per-(rank, phase) hard-fault probability over the plan's fault
    /// surface. Only FT-capable plans (verified / fast_redundant) draw
    /// hard faults — the plain parallel engine's contract excludes them.
    double hard_rate = 0.0;

    /// Per-frame data-plane fault probabilities (any machine plan; the
    /// transport guard detects and recovers, escalating typed
    /// TransportFaults into the ladder).
    double msg_corrupt_rate = 0.0;
    double msg_drop_rate = 0.0;
    double msg_dup_rate = 0.0;
    double msg_reorder_rate = 0.0;
};

/// Service configuration: admission bounds, dispatch shape, planner policy
/// and the optional chaos profile.
struct ServiceConfig {
    /// Bounded admission queue capacity; submissions beyond it shed with
    /// RejectReason::QueueFull.
    std::size_t queue_capacity = 256;

    /// Executor threads draining the queue. 0 is legal (an inert service
    /// that only admits — used by the queue-full tests); nothing executes
    /// until shutdown then sheds the backlog.
    int executors = 2;

    /// Per-dispatch-round batch cap for batchable (sequential) plans.
    std::size_t max_batch = 8;

    PlannerPolicy policy;
    ServiceChaos chaos;

    /// Destructor behavior: drain the queue (run every admitted request)
    /// or shed the backlog with ShuttingDown.
    bool drain_on_shutdown = true;
};

/// Counter snapshot of a service's lifetime. Conservation invariants every
/// run satisfies exactly once the service is quiescent (no submit() or
/// execution in flight, e.g. after shutdown()):
///   submitted == admitted + shed_queue_full + shed_deadline_impossible
///                + shed_shutting_down
///   admitted  == completed + failed + expired + drained
struct ServiceStats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t expired = 0;
    std::uint64_t drained = 0;  ///< admitted, then shed by shutdown
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_deadline_impossible = 0;
    std::uint64_t shed_shutting_down = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;
    std::uint64_t max_batch_observed = 0;
    std::uint64_t queue_depth_peak = 0;
    std::uint64_t ladder_escalations = 0;  ///< requests needing > 1 rung
    std::map<std::string, std::uint64_t> completed_by_engine;

    std::uint64_t shed_total() const {
        return shed_queue_full + shed_deadline_impossible +
               shed_shutting_down;
    }
};

/// Multiply-as-a-service: many client threads submit MultiplyRequests; a
/// bounded admission queue with typed shedding feeds executor threads that
/// plan (cost-model-driven engine selection), batch compatible small
/// requests, and run each plan on the Machine runtime, whose ranks are
/// fibers on the process-wide carrier threads (runtime/executor.hpp), with
/// per-request deadlines enforced at admission, dequeue and every
/// resilient-ladder rung boundary. See docs/SERVICE.md.
class MultiplyService {
public:
    explicit MultiplyService(ServiceConfig config = {});

    /// Drains or sheds per config.drain_on_shutdown, then joins.
    ~MultiplyService();

    MultiplyService(const MultiplyService&) = delete;
    MultiplyService& operator=(const MultiplyService&) = delete;

    /// Admit one request. Throws ServiceRejected (QueueFull /
    /// DeadlineImpossible / ShuttingDown) when shedding; otherwise returns
    /// the future the executor resolves exactly once. Thread-safe.
    std::future<MultiplyOutcome> submit(MultiplyRequest request);

    /// Stop admitting; run (drain=true) or shed (drain=false) the backlog;
    /// join the executors. Idempotent; safe concurrently with submit().
    void shutdown(bool drain);

    bool accepting() const { return !queue_.closed(); }

    /// Folds the client-side counters, the queue's tallies and every
    /// executor's shard. Taken mid-run, a snapshot never shows more
    /// outcomes than admissions.
    ServiceStats stats() const;

    const ServiceConfig& config() const { return config_; }

private:
    /// The outcome tallies of one thread that resolves promises: each
    /// executor owns one, and the shutdown path one more. Its mutex is
    /// contended only by stats(). Only the fields the executors count
    /// (outcomes, batches, escalations, completed_by_engine) are used.
    struct alignas(64) StatsShard {
        mutable std::mutex mu;
        ServiceStats stats;
    };

    void executor_loop(StatsShard& shard);
    void execute(QueuedJob& job, StatsShard& shard);
    MultiplyOutcome run_plan(const QueuedJob& job);
    void finish(QueuedJob& job, MultiplyOutcome outcome, StatsShard& shard);
    void shed_drained(QueuedJob& job, StatsShard& shard);

    ServiceConfig config_;
    AdmissionQueue queue_;
    FaultInjector injector_;
    const ToomPlan& toom3_;  ///< the sequential plans' Toom-3 plan
    std::atomic<std::uint64_t> next_id_{0};

    // Counted on the client thread, before the queue sees the request.
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> shed_deadline_impossible_{0};

    std::vector<StatsShard> shards_;  ///< one per executor, then shutdown's
    std::vector<std::thread> executors_;
    std::once_flag shutdown_once_;

    // Process-wide instruments (no-ops while the registry is disabled).
    Counter metric_completed_;
    Counter metric_failed_;
    Counter metric_expired_;
    Counter metric_shed_queue_full_;
    Counter metric_shed_deadline_;
    Counter metric_shed_shutdown_;
    Histogram metric_e2e_us_;
};

}  // namespace ftmul
