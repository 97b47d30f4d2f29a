#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/metrics.hpp"
#include "service/planner.hpp"
#include "service/request.hpp"

namespace ftmul {

/// One admitted request in flight: the request, its plan, and the promise
/// the service resolves exactly once (executor or shutdown drain).
struct QueuedJob {
    std::uint64_t id = 0;
    MultiplyRequest request;
    MultiplyPlan plan;
    std::promise<MultiplyOutcome> promise;

    /// Admission time, stamped only while the e2e latency histogram is
    /// live; the default (epoch) value means "not timed".
    ServiceClock::time_point enqueued_at{};
};

/// Bounded, priority-ordered admission queue. Higher priority dequeues
/// first; FIFO within a priority level (ordered by admission id). try_push
/// refuses — it never blocks — so overload surfaces as typed shedding at
/// the submission site instead of unbounded buffering; pop_batch blocks
/// executors until work or close.
///
/// The request path allocates nothing once warm: a popped job's map node
/// is kept and refilled by a later push (there are never more nodes than
/// the deepest the queue has been, so at most `capacity`). Wakes are
/// rationed: a push signals only when an executor is idle and no earlier
/// wake is still on its way, and a pop that leaves jobs behind hands the
/// wake on to the next idle executor.
class AdmissionQueue {
public:
    /// Tallies counted under the queue lock.
    struct Counts {
        std::uint64_t admitted = 0;
        std::uint64_t rejected_full = 0;    ///< try_push saw QueueFull
        std::uint64_t rejected_closed = 0;  ///< try_push saw ShuttingDown
        std::size_t peak_depth = 0;         ///< high-water of the depth
    };

    /// Publishes its depth to the ftmul_service_queue_depth gauge.
    explicit AdmissionQueue(std::size_t capacity);

    /// Admit a job, or report why not (QueueFull / ShuttingDown) without
    /// touching the job. The caller owns the rejection.
    std::optional<RejectReason> try_push(QueuedJob&& job);

    /// Block until a job is available or the queue is closed and empty
    /// (returns false — the executor's exit signal). Pops the
    /// highest-priority job; when it is batchable, gathers up to
    /// max_batch-1 more batchable jobs in priority order so one dispatch
    /// round amortizes across compatible small requests. Non-batchable
    /// jobs it passes over stay queued in place.
    bool pop_batch(std::vector<QueuedJob>& out, std::size_t max_batch);

    /// Stop admitting; wake every blocked executor. Idempotent.
    void close();

    bool closed() const;

    /// Remove and return everything still queued (the non-draining
    /// shutdown path sheds these with reason ShuttingDown).
    std::vector<QueuedJob> drain();

    Counts counts() const;

private:
    /// Key orders the map by (-priority, admission id): begin() is always
    /// the highest-priority, oldest job.
    using Key = std::pair<int, std::uint64_t>;
    static Key key_of(const QueuedJob& job) {
        return {-job.request.priority, job.id};
    }
    using Jobs = std::map<Key, QueuedJob>;

    /// Move the job at @p it into @p out and keep its node for reuse;
    /// returns the next position. Caller holds mu_.
    Jobs::iterator take(Jobs::iterator it, std::vector<QueuedJob>& out);

    /// Publish the depth after a change. Caller holds mu_.
    void note_depth();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    Jobs jobs_;
    std::vector<Jobs::node_type> spare_;  ///< emptied nodes, reused by push
    std::size_t capacity_;
    Counts counts_;
    std::size_t idle_ = 0;       ///< executors waiting in pop_batch
    bool wake_pending_ = false;  ///< signalled, and no waiter has run yet
    bool closed_ = false;
    Gauge depth_gauge_;
};

}  // namespace ftmul
