#include "service/queue.hpp"

#include <iterator>
#include <utility>

namespace ftmul {

AdmissionQueue::AdmissionQueue(std::size_t capacity)
    : capacity_(capacity),
      depth_gauge_(metrics::gauge("ftmul_service_queue_depth", {},
                                  "admission queue depth")) {}

std::optional<RejectReason> AdmissionQueue::try_push(QueuedJob&& job) {
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_) {
            ++counts_.rejected_closed;
            return RejectReason::ShuttingDown;
        }
        if (jobs_.size() >= capacity_) {
            ++counts_.rejected_full;
            return RejectReason::QueueFull;
        }
        if (spare_.empty()) {
            jobs_.emplace(key_of(job), std::move(job));
        } else {
            Jobs::node_type node = std::move(spare_.back());
            spare_.pop_back();
            node.key() = key_of(job);
            node.mapped() = std::move(job);
            jobs_.insert(std::move(node));
        }
        ++counts_.admitted;
        note_depth();
        // One wake in flight: a signalled executor that has not yet run
        // will see this job too when it takes the lock.
        if (idle_ > 0 && !wake_pending_) {
            wake_pending_ = true;
            wake = true;
        }
    }
    if (wake) cv_.notify_one();
    return std::nullopt;
}

bool AdmissionQueue::pop_batch(std::vector<QueuedJob>& out,
                               std::size_t max_batch) {
    out.clear();
    bool wake = false;
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!closed_ && jobs_.empty()) {
            ++idle_;
            cv_.wait(lock);
            --idle_;
            // Whichever waiter runs first after a signal consumes it, even
            // on a spurious wake; a later push then signals afresh.
            wake_pending_ = false;
        }
        if (jobs_.empty()) return false;  // closed and drained
        auto it = jobs_.begin();
        const bool batchable = it->second.plan.batchable;
        it = take(it, out);
        // Batching gathers further *batchable* jobs only — machine plans
        // own a whole simulated machine per run and never share a round.
        while (batchable && out.size() < max_batch && it != jobs_.end()) {
            if (it->second.plan.batchable) {
                it = take(it, out);
            } else {
                ++it;
            }
        }
        note_depth();
        // Jobs left behind go to an idle executor now, not after this
        // batch.
        if (!jobs_.empty() && idle_ > 0 && !wake_pending_) {
            wake_pending_ = true;
            wake = true;
        }
    }
    if (wake) cv_.notify_one();
    return true;
}

AdmissionQueue::Jobs::iterator AdmissionQueue::take(
    Jobs::iterator it, std::vector<QueuedJob>& out) {
    const Jobs::iterator next = std::next(it);
    Jobs::node_type node = jobs_.extract(it);
    out.push_back(std::move(node.mapped()));
    spare_.push_back(std::move(node));
    return next;
}

void AdmissionQueue::note_depth() {
    if (jobs_.size() > counts_.peak_depth) counts_.peak_depth = jobs_.size();
    depth_gauge_.set(static_cast<std::int64_t>(jobs_.size()));
}

void AdmissionQueue::close() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

bool AdmissionQueue::closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

std::vector<QueuedJob> AdmissionQueue::drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<QueuedJob> out;
    out.reserve(jobs_.size());
    for (auto& [key, job] : jobs_) out.push_back(std::move(job));
    jobs_.clear();
    note_depth();
    return out;
}

AdmissionQueue::Counts AdmissionQueue::counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
}

}  // namespace ftmul
