// Pins every engine's per-rank cost ledger. Each case hashes (64-bit
// FNV-1a) a canonical dump of one run: the product, the full RunStats, the
// TransportStats and every rank's event stream without the run-dependent
// seq/ts_us stamps. A refactor of the engines must keep every hash; on a
// mismatch the test prints the dump so the drift can be located.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/random.hpp"
#include "core/checkpoint.hpp"
#include "core/ft_linear.hpp"
#include "core/ft_mixed.hpp"
#include "core/ft_multistep.hpp"
#include "core/ft_poly.hpp"
#include "core/ft_soft.hpp"
#include "core/parallel.hpp"
#include "core/replication.hpp"

namespace ftmul {
namespace {

std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

void put(std::ostream& os, const CostCounters& c) {
    os << c.flops << ' ' << c.words << ' ' << c.msgs << ' ' << c.latency;
}

std::string dump(const BigInt& product, const RunStats& s,
                 const TransportStats& t, const EventLog* log) {
    std::ostringstream os;
    os << "product " << product.to_hex() << '\n';
    os << "world " << s.world << " peak " << s.peak_memory_words << '\n';
    os << "critical ";
    put(os, s.critical);
    os << "\naggregate ";
    put(os, s.aggregate);
    os << '\n';
    for (const auto& [name, c] : s.per_phase) {
        os << "phase " << name << ' ';
        put(os, c);
        os << '\n';
    }
    for (const auto& [name, c] : s.per_phase_agg) {
        os << "phase-agg " << name << ' ';
        put(os, c);
        os << '\n';
    }
    os << "transport " << t.sent_frames << ' ' << t.header_words << ' '
       << t.injected_corrupt << ' ' << t.injected_drop << ' '
       << t.injected_dup << ' ' << t.injected_reorder << ' '
       << t.corrupt_detected << ' ' << t.malformed_detected << ' '
       << t.drop_detected << ' ' << t.dedup_hits << ' ' << t.reorder_stashed
       << ' ' << t.retransmits << ' ' << t.retransmit_words << ' '
       << t.acked_seqs << ' ' << t.acks_piggybacked << ' '
       << t.acks_standalone << ' ' << t.retained_frames << ' '
       << t.retained_words << ' ' << t.live_streams_end << '\n';
    if (log == nullptr) return os.str();
    for (int r = 0; r < s.world; ++r) {
        for (const Event& e : log->for_rank(r)) {
            os << "event " << r << ' ' << to_string(e.kind) << ' ' << e.phase
               << ' ' << e.peer << ' ' << e.tag << ' ' << e.words << ' ';
            put(os, e.counters);
            os << " [";
            for (int d : e.ranks) os << ' ' << d;
            os << " ] " << e.note << '\n';
        }
    }
    return os.str();
}

/// The pinned shape at the paper benches' leaf base 4; the *AtDefaultBase
/// pins run it at ParallelConfig's default base.
ParallelConfig base_config() {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    cfg.base_len = 4;
    cfg.events = true;
    return cfg;
}

FaultPlan one_fault(const char* phase, int rank) {
    FaultPlan plan;
    plan.add(phase, rank);
    return plan;
}

std::string dump_ft(const FtRunResult& r) {
    return dump(r.product, r.stats, r.transport, r.events.get());
}

using Runner = std::function<std::string(const BigInt&, const BigInt&,
                                         const ParallelConfig&)>;

struct LedgerCase {
    const char* name;
    Runner run;
    std::uint64_t clean;    ///< hash without transport faults
    std::uint64_t guarded;  ///< hash under the seeded transport fault model
    std::uint64_t default_clean;    ///< clean, at the default leaf base
    std::uint64_t default_guarded;  ///< guarded, at the default leaf base
};

const std::vector<LedgerCase>& cases() {
    static const std::vector<LedgerCase> all = {
        {"parallel",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             ParallelConfig cfg = base;
             cfg.straggler_delays = {{4, 5}};
             const auto r = parallel_toom_multiply(a, b, cfg);
             return dump(r.product, r.stats, r.transport, r.events.get());
         },
         0x9dbc0714c131969full, 0xd98fb23b803c6955ull,
         0xdae0e9811eb6ba9ull, 0x870f1bfced1b4339ull},
        {"ft_linear",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             return dump_ft(ft_linear_multiply(a, b, FtLinearConfig{base, 1},
                                               one_fault("eval-L1", 4)));
         },
         0xcc28bce51925d586ull, 0xa6feaccb49dac975ull,
         0xe0ff6c74152905c0ull, 0x9c0afb13b789a197ull},
        {"ft_poly",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             return dump_ft(ft_poly_multiply(a, b, FtPolyConfig{base, 1},
                                             one_fault("mul", 4)));
         },
         0xb059b9f26eafa986ull, 0x5ee9a91929db6cb0ull,
         0xbc62f826ab4afb12ull, 0x1c508b6987397684ull},
        {"ft_mixed",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             return dump_ft(ft_mixed_multiply(a, b, FtMixedConfig{base, 1},
                                              one_fault("mul", 4)));
         },
         0x89e2c00570ec14c7ull, 0x983bbb89e9b81fbbull,
         0x562c66365c946f9ull, 0x9c72bd8e94524eefull},
        // ft_mixed's linear-code recovery runs on its own code rows, a
        // path the mul fault above never reaches.
        {"ft_mixed_eval",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             return dump_ft(ft_mixed_multiply(a, b, FtMixedConfig{base, 1},
                                              one_fault("eval-L0", 5)));
         },
         0xae9b49dccb7f277eull, 0x7abf56b1c3647e67ull,
         0x66ff7386d661d1a9ull, 0x33d0e136753c0a2aull},
        {"ft_multistep",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             FtMultistepConfig cfg;
             cfg.base = base;
             return dump_ft(
                 ft_multistep_multiply(a, b, cfg, one_fault("mul", 4)));
         },
         0xfbeb7b56e7fac68bull, 0x9b7aec085a96e6c3ull,
         0xbe045ccd10ef147dull, 0x97fe1b10026bc551ull},
        {"replication",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             return dump_ft(replicated_toom_multiply(
                 a, b, ReplicationConfig{base, 1}, one_fault("leaf-mul", 3)));
         },
         0xe5ac5d7ea8f8a2ccull, 0xfecd8c8380ac4306ull,
         0x746895767c4504a0ull, 0x18dfd39361bff17eull},
        {"checkpoint",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             return dump_ft(checkpoint_toom_multiply(
                 a, b, CheckpointConfig{base}, one_fault("leaf-mul", 4)));
         },
         0xaa2fbb61c913642dull, 0xfa2cab9a3e9d0544ull,
         0x6c29d1b3b722bd39ull, 0xbd024687105cfbdeull},
        {"ft_soft",
         [](const BigInt& a, const BigInt& b, const ParallelConfig& base) {
             FtSoftConfig cfg;
             cfg.base = base;
             cfg.base.events = false;
             cfg.code_rows = 2;
             SoftFaultPlan plan;
             plan.add("eval-L0", 1);
             plan.add("leaf-mul", 5);
             plan.add("interp-L0", 6);
             const auto r = ft_soft_multiply(a, b, cfg, plan);
             EXPECT_EQ(r.corruptions_corrected, 3);
             return dump(r.product, r.stats, r.transport, nullptr);
         },
         0xf2782ee45c1848c2ull, 0x1eef39a4fc67c16ull,
         0x858e32d1ff8cc75bull, 0xafffbef4ce893169ull},
    };
    return all;
}

TransportFaultModel seeded_transport_faults() {
    TransportFaultModel m;
    m.seed = 20240617;
    m.corrupt_rate = 0.02;
    m.drop_rate = 0.02;
    m.dup_rate = 0.02;
    m.reorder_rate = 0.02;
    return m;
}

/// Runs every case on the pinned operands and compares each ledger hash
/// with the one @p pinned picks.
void expect_pinned_hashes(const ParallelConfig& base, bool guarded,
                          std::uint64_t LedgerCase::*pinned) {
    Rng rng{2026};
    const BigInt a = random_bits(rng, 20000);
    const BigInt b = -random_bits(rng, 19500);
    ParallelConfig cfg = base;
    if (guarded) cfg.transport_faults = seeded_transport_faults();
    for (const LedgerCase& c : cases()) {
        const std::string d = c.run(a, b, cfg);
        const std::uint64_t want = c.*pinned;
        const std::uint64_t got = fnv1a(d);
        if (got != want) {
            ADD_FAILURE() << c.name << (guarded ? " (guarded)" : " (clean)")
                          << " base " << cfg.base_len << ": ledger hash 0x"
                          << std::hex << got << " != pinned 0x" << want
                          << std::dec << "\n--- dump ---\n"
                          << d;
        }
    }
}

class EngineLedger : public ::testing::TestWithParam<bool> {};

TEST_P(EngineLedger, MatchesPinnedHash) {
    const bool guarded = GetParam();
    expect_pinned_hashes(base_config(), guarded,
                         guarded ? &LedgerCase::guarded : &LedgerCase::clean);
}

TEST_P(EngineLedger, MatchesPinnedHashAtDefaultBase) {
    const bool guarded = GetParam();
    ParallelConfig base = base_config();
    base.base_len = ParallelConfig{}.base_len;
    expect_pinned_hashes(base, guarded,
                         guarded ? &LedgerCase::default_guarded
                                 : &LedgerCase::default_clean);
}

INSTANTIATE_TEST_SUITE_P(TransportFaults, EngineLedger, ::testing::Bool(),
                         [](const auto& info) {
                             return info.param ? "Guarded" : "Clean";
                         });

}  // namespace
}  // namespace ftmul
