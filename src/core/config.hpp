#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/transport.hpp"

namespace ftmul {

/// Configuration of the parallel Toom-Cook algorithms (Section 3).
struct ParallelConfig {
    /// Split number k >= 2.
    int k = 2;

    /// Number of standard processors; must be a power of 2k-1 (the paper's
    /// assumption; use fewer processors or pad otherwise).
    int processors = 9;

    /// Bits per top-level digit (the shared base is 2^digit_bits).
    std::size_t digit_bits = 64;

    /// Local memory per processor in 64-bit words; 0 means unlimited. When
    /// limited, the algorithm prepends DFS steps per Lemma 3.1.
    std::uint64_t memory_limit_words = 0;

    /// Sequential recursion cutoff inside a leaf block (digits). The
    /// default is the largest base whose leaf F, summed over every leaf
    /// length from 33 to 1,040 digits, does not exceed base 4's at k = 2 or
    /// 3 with 32- or 64-bit digits; base 8 charges more at k = 2 with
    /// 64-bit digits (the LeafBase tests in tests/toom_lazy_test.cpp).
    std::size_t base_len = 7;

    /// Force an exact number of DFS steps (-1 = derive from the memory
    /// limit). Used by the limited-memory benchmarks to sweep the knob.
    int forced_dfs_steps = -1;

    /// Record the typed event log of the run (phase enter/exit, messages,
    /// faults, recoveries, memory peaks; see runtime/events.hpp); exposed
    /// through ParallelRunResult::events / FtRunResult::events and consumed
    /// by the JSON run report and the Chrome-trace export.
    bool events = false;

    /// Explicit BFS/DFS schedule, e.g. "BDDB": 'D' = communication-free DFS
    /// step, 'B' = row-exchange BFS step. Empty = the optimal order (all
    /// DFS first, then all BFS — Ballard et al., cited in Section 3). Must
    /// contain exactly log_{2k-1}(processors) 'B's.
    std::string step_order;

    /// Delay faults (paper Section 1's third category): per-rank extra
    /// critical-path latency rounds charged during the multiplication phase,
    /// modeling stragglers. The plain algorithm absorbs the delay into its
    /// critical path; the polynomial-coded algorithm can discard the slow
    /// column instead (see bench_stragglers).
    std::vector<std::pair<int, std::uint64_t>> straggler_delays;

    /// Arm the frame-integrity transport guard (checksummed, sequenced,
    /// retained frames with NACK/retransmit recovery — see
    /// runtime/transport.hpp). Off by default: the data plane then behaves
    /// and charges exactly as before.
    bool transport_guard = false;

    /// Data-plane fault injection model (message corruption / drop / dup /
    /// reorder). An active model implies the guard. Filled by
    /// FaultInjector::draw for chaos campaigns.
    TransportFaultModel transport_faults;
};

/// The geometry actually executed, resolved from a config and an input size.
struct ResolvedShape {
    int k = 0;
    int npts = 0;             ///< 2k-1
    int processors = 0;       ///< P
    int bfs_steps = 0;        ///< log_{2k-1} P
    int dfs_steps = 0;
    std::size_t digit_bits = 0;
    std::size_t total_digits = 0;  ///< N = k^(dfs+bfs) * leaf_len
    std::size_t leaf_len = 0;      ///< digits per leaf block, multiple of P
    std::size_t base_len = 0;

    std::string to_string() const;
};

/// Compute the shape for an n-bit multiplication. Throws
/// std::invalid_argument when processors is not a positive power of 2k-1.
ResolvedShape resolve_shape(const ParallelConfig& cfg, std::size_t n_bits);

/// Generalized shape used by the FT variants: a machine of @p world ranks
/// (the block-cyclic alignment unit) and @p levels split levels. The leaf
/// multiplier is rounded up to a power of k so leaf blocks recurse all the
/// way down instead of degrading to quadratic convolution on unlucky
/// lengths.
ResolvedShape resolve_shape_general(int k, int world, int dfs_steps,
                                    int bfs_steps, int levels,
                                    std::size_t digit_bits,
                                    std::size_t base_len, std::size_t n_bits);

/// Estimated per-rank peak working set in words for a shape (digit slices
/// plus the ~2x result growth and the (2k-1)/k per-BFS-level expansion).
std::uint64_t estimate_peak_words(const ResolvedShape& s);

namespace core_detail {

/// log_{base}(v) when v is an exact power of base >= 2; -1 otherwise.
inline int exact_log(std::uint64_t v, std::uint64_t base) {
    if (base < 2) return -1;
    int l = 0;
    while (v > 1) {
        if (v % base != 0) return -1;
        v /= base;
        ++l;
    }
    return l;
}

inline std::uint64_t ipow(std::uint64_t b, int e) {
    std::uint64_t r = 1;
    for (int i = 0; i < e; ++i) r *= b;
    return r;
}

}  // namespace core_detail

}  // namespace ftmul
