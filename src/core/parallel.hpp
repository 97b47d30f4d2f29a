#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/config.hpp"
#include "runtime/group.hpp"
#include "runtime/machine.hpp"
#include "toom/plan.hpp"

namespace ftmul {

/// Outcome of a parallel multiplication: the product plus the measured
/// machine-model costs the benchmarks report.
struct ParallelRunResult {
    BigInt product;
    ResolvedShape shape;
    RunStats stats;

    /// Typed event log of the run, when ParallelConfig::events was set.
    std::shared_ptr<EventLog> events;

    /// Transport-guard accounting of the run (all zeros when
    /// ParallelConfig::transport_guard / transport_faults were off).
    TransportStats transport;
};

/// Parallel Toom-Cook-k (paper Section 3): BFS-DFS traversal of the
/// recursion tree over P = (2k-1)^j processors with a block-cyclic digit
/// layout. DFS steps (when memory-limited) are communication-free; each BFS
/// step exchanges data only within rows of the processor grid and hands each
/// column one sub-problem. Leaves run sequential Toom-Cook.
///
/// Not fault-tolerant: scheduling faults for this entry point is undefined
/// behaviour (see ft_*.hpp for the tolerant variants).
ParallelRunResult parallel_toom_multiply(const BigInt& a, const BigInt& b,
                                         const ParallelConfig& cfg);

}  // namespace ftmul
