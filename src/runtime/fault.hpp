#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ftmul {

/// Deterministic hard-fault schedule: rank r fails when it reaches phase p.
///
/// The paper's model (Section 2.1): on a fault the processor ceases
/// operation, loses its data, and is replaced by an alternative processor at
/// the same grid position. The plan is fixed before the run, which models a
/// perfect failure detector at phase boundaries — every survivor can query
/// which ranks are gone at any synchronization point, with no data races.
///
/// fails_at() sits on every Rank::phase() call, so membership is a hashed
/// lookup; add() validates ranks at construction (non-negative, no duplicate
/// (phase, rank) pair) so the engines never see a malformed schedule.
class FaultPlan {
public:
    FaultPlan() = default;

    /// Schedule rank @p rank to fail upon entering phase @p phase. Throws
    /// std::invalid_argument on a negative rank or a duplicate (phase, rank).
    void add(std::string phase, int rank) {
        if (rank < 0) {
            throw std::invalid_argument(
                "FaultPlan: fault rank must be non-negative, got " +
                std::to_string(rank));
        }
        auto& ranks = by_phase_[std::move(phase)];
        if (!ranks.insert(rank).second) {
            throw std::invalid_argument(
                "FaultPlan: duplicate fault for rank " + std::to_string(rank) +
                " at one phase");
        }
        ++total_;
    }

    bool fails_at(std::string_view phase, int rank) const {
        auto it = by_phase_.find(phase);
        return it != by_phase_.end() && it->second.count(rank) != 0;
    }

    /// Ranks scheduled to fail at exactly this phase, ascending.
    std::vector<int> failing_at(std::string_view phase) const {
        auto it = by_phase_.find(phase);
        if (it == by_phase_.end()) return {};
        std::vector<int> out(it->second.begin(), it->second.end());
        std::sort(out.begin(), out.end());
        return out;
    }

    /// Every scheduled fault, as (phase, rank) pairs sorted by phase then
    /// rank — a deterministic order independent of insertion and hashing.
    std::vector<std::pair<std::string, int>> all() const {
        std::vector<std::pair<std::string, int>> out;
        out.reserve(total_);
        for (const auto& [phase, ranks] : by_phase_) {
            for (int r : ranks) out.emplace_back(phase, r);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

    std::size_t total_faults() const { return total_; }

    bool empty() const { return total_ == 0; }

private:
    struct StringHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const noexcept {
            return std::hash<std::string_view>{}(s);
        }
    };
    std::unordered_map<std::string, std::unordered_set<int>, StringHash,
                       std::equal_to<>>
        by_phase_;
    std::size_t total_ = 0;
};

/// Schedule of *soft* faults (paper Section 2.1 category ii / Section 7):
/// a processor miscalculates — modeled as its state silently gaining a
/// deterministic pseudorandom error vector upon entering a phase. Consumed
/// by ft_soft_multiply (core/ft_soft.hpp) and produced by the FaultInjector.
class SoftFaultPlan {
public:
    void add(std::string phase, int rank) {
        events_.emplace_back(std::move(phase), rank);
    }

    bool corrupts_at(const std::string& phase, int rank) const {
        for (const auto& [p, r] : events_) {
            if (r == rank && p == phase) return true;
        }
        return false;
    }

    const std::vector<std::pair<std::string, int>>& all() const {
        return events_;
    }

    std::size_t total() const { return events_.size(); }

private:
    std::vector<std::pair<std::string, int>> events_;
};

/// Thrown by the FT engines when a fault schedule exceeds what the
/// configured redundancy can repair: more dead ranks in one column than code
/// rows, more dead columns than redundant evaluation points, a rank dying
/// together with its checkpoint buddy, every replica hit, or a recovery
/// system that turned out singular. The product is *never* silently wrong —
/// an over-budget schedule surfaces as this typed error, carrying the
/// engine, the phase and the dead-rank set so a driver (resilient_multiply)
/// or a campaign runner can act on it.
///
/// Derives from std::invalid_argument: to callers that predate graceful
/// degradation an unrecoverable schedule still looks like the plan-rejection
/// they already handle.
class UnrecoverableFault : public std::invalid_argument {
public:
    UnrecoverableFault(std::string engine, std::string phase,
                       std::vector<int> dead_ranks, const std::string& detail)
        : std::invalid_argument(format(engine, phase, dead_ranks, detail)),
          engine_(std::move(engine)),
          phase_(std::move(phase)),
          dead_ranks_(std::move(dead_ranks)) {
        std::sort(dead_ranks_.begin(), dead_ranks_.end());
    }

    /// Which engine gave up ("ft-linear", "checkpoint", ...).
    const std::string& engine() const noexcept { return engine_; }

    /// The protected phase whose fault set broke the budget ("" when the
    /// whole schedule is beyond the engine's model).
    const std::string& phase() const noexcept { return phase_; }

    /// The dead ranks the engine could not rebuild, ascending.
    const std::vector<int>& dead_ranks() const noexcept { return dead_ranks_; }

private:
    static std::string format(const std::string& engine,
                              const std::string& phase,
                              const std::vector<int>& dead,
                              const std::string& detail) {
        // Appends only: GCC 12's -Wrestrict misfires on `"..." +
        // std::string&&` in every translation unit that inlines this.
        std::string msg = engine;
        msg += ": unrecoverable fault set";
        if (!phase.empty()) {
            msg += " at phase \"";
            msg += phase;
            msg += '"';
        }
        if (!dead.empty()) {
            std::vector<int> sorted = dead;
            std::sort(sorted.begin(), sorted.end());
            msg += " (dead ranks";
            for (int r : sorted) {
                msg += ' ';
                msg += std::to_string(r);
            }
            msg += ')';
        }
        msg += ": ";
        msg += detail;
        return msg;
    }

    std::string engine_;
    std::string phase_;
    std::vector<int> dead_ranks_;
};

/// Why the transport layer gave up on a frame (see runtime/transport.hpp
/// for the detection machinery). Corrupt/Truncated/Dropped name the defect
/// that started the recovery; RetainMiss and RetryExhausted are the two
/// ways the bounded NACK/retransmit protocol can fail, and StashOverflow is
/// the receive/reorder stash refusing to grow without limit under an
/// adversarial fault schedule.
enum class TransportFaultKind {
    Corrupt,         ///< checksum mismatch on an otherwise well-formed frame
    Truncated,       ///< malformed trailer (short frame, bad magic/route)
    Dropped,         ///< a drop tombstone named a lost sequence number
    RetainMiss,      ///< the sender's retention window no longer holds it
    RetryExhausted,  ///< the per-receive retransmit budget ran out
    StashOverflow,   ///< recv/reorder stash exceeded its configured cap
};

const char* to_string(TransportFaultKind kind);

/// Thrown by Machine::recv when a frame defect survives the bounded
/// NACK/retransmit protocol: the needed frame aged out of the sender's
/// retention window, or the per-receive retry budget ran out. The sibling
/// of UnrecoverableFault one layer down the stack — it carries the full
/// route (src/dst/tag/seq) and the defect kind so the resilient ladder and
/// the chaos runner can attribute and escalate. The payload handed to the
/// algorithm is *never* silently wrong: every frame is either verified
/// intact or surfaces here.
class TransportFault : public std::runtime_error {
public:
    TransportFault(TransportFaultKind kind, int src, int dst, int tag,
                   std::uint64_t seq, const std::string& detail)
        : std::runtime_error(format(kind, src, dst, tag, seq, detail)),
          kind_(kind),
          src_(src),
          dst_(dst),
          tag_(tag),
          seq_(seq) {}

    TransportFaultKind kind() const noexcept { return kind_; }
    int src() const noexcept { return src_; }
    int dst() const noexcept { return dst_; }
    int tag() const noexcept { return tag_; }
    std::uint64_t seq() const noexcept { return seq_; }

private:
    static std::string format(TransportFaultKind kind, int src, int dst,
                              int tag, std::uint64_t seq,
                              const std::string& detail);

    TransportFaultKind kind_;
    int src_;
    int dst_;
    int tag_;
    std::uint64_t seq_;
};

}  // namespace ftmul
