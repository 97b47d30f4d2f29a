#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/costs.hpp"

namespace ftmul {

/// What happened. Every Machine-observable state change maps to one kind;
/// the paper's cost accounting (F/BW/L per phase, recovery traffic) is a
/// fold over these events.
enum class EventKind {
    PhaseBegin,     ///< a rank entered a cost phase
    PhaseEnd,       ///< a rank left a phase; counters = the phase's costs
    MessageSend,    ///< point-to-point send (peer = destination)
    MessageRecv,    ///< point-to-point receive completed (peer = source)
    Fault,          ///< the fault plan killed this rank at `phase`
    RecoveryBegin,  ///< a recovery protocol started (ranks = the dead)
    RecoveryEnd,    ///< recovery finished; counters = its F/BW/L cost
    Memory,         ///< new local working-set high-water mark (words)
    Deadlock,       ///< every unfinished rank parked; ranks = all of them
    Transport,      ///< frame defect detected / retransmit (note = what)
};

/// Stable lower-case name ("phase-begin", "fault", ...) used in exports.
const char* to_string(EventKind kind);

/// One entry of the structured run log. Which fields are meaningful depends
/// on `kind`; unused fields keep their zero values.
struct Event {
    EventKind kind = EventKind::PhaseBegin;
    int rank = -1;           ///< emitting rank
    std::uint64_t seq = 0;   ///< global admission order (gap-free from 0)
    std::uint64_t ts_us = 0; ///< wall-clock microseconds since run start

    std::string phase;       ///< current phase (or the one being entered/left)

    int peer = -1;           ///< message source/destination rank
    int tag = 0;             ///< message tag
    std::uint64_t words = 0; ///< message payload / memory high-water (words)

    /// PhaseEnd: the closed phase's counters. RecoveryEnd: the recovery's
    /// total cost on this rank (across any phase switches it spans).
    CostCounters counters{};

    /// RecoveryBegin/End: the dead ranks this recovery rebuilds.
    std::vector<int> ranks;

    /// Transport: what the guard observed ("corrupt-detected",
    /// "drop-detected", "dedup", "reorder-stash", "retransmit", ...); empty
    /// for every other kind.
    std::string note;
};

/// Thread-safe, append-only event log of one Machine run. Ranks emit
/// concurrently; admission order (seq) is global and per-rank subsequences
/// preserve each rank's program order. The Machine clears the log and
/// re-arms the epoch at every run start.
class EventLog {
public:
    /// Stamp seq + ts (relative to the epoch) and append.
    void record(Event e) {
        const auto now = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(mu_);
        e.seq = static_cast<std::uint64_t>(events_.size());
        e.ts_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_)
                .count());
        events_.push_back(std::move(e));
    }

    /// Reset for a new run; subsequent timestamps are relative to now.
    void clear() {
        std::lock_guard<std::mutex> lock(mu_);
        events_.clear();
        epoch_ = std::chrono::steady_clock::now();
    }

    std::size_t size() const {
        std::lock_guard<std::mutex> lock(mu_);
        return events_.size();
    }

    /// Snapshot of the whole log in admission order.
    std::vector<Event> events() const {
        std::lock_guard<std::mutex> lock(mu_);
        return events_;
    }

    /// Snapshot of one rank's events, in that rank's program order.
    std::vector<Event> for_rank(int rank) const;

    /// Snapshot of all events of one kind, in admission order.
    std::vector<Event> of_kind(EventKind kind) const;

    /// Largest rank index that emitted anything, plus one (0 when empty).
    int world() const;

private:
    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

}  // namespace ftmul
