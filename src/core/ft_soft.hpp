#pragma once

#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "core/config.hpp"
#include "core/ft_poly.hpp"
#include "runtime/fault.hpp"  // SoftFaultPlan lives with the fault model

namespace ftmul {

struct FtSoftConfig {
    ParallelConfig base;

    /// Code rows f >= 2: syndrome s_j = sum_l eta_j^l state_l - code_j is
    /// zero on clean columns; one corrupted rank e gives s_j = eta_j^e * err,
    /// so s_1/s_0 locates e and s_0 (eta_0 = 1) is the correction. f = 1
    /// detects but cannot correct.
    int code_rows = 2;
};

/// An FtRunResult whose faults_injected counts the planned corruptions,
/// plus how many of them the syndromes detected and the code corrected.
struct FtSoftResult : FtRunResult {
    int corruptions_detected = 0;
    int corruptions_corrected = 0;
};

/// Fault-tolerant parallel Toom-Cook against soft faults: the Section 4.1
/// linear code reused as an error-*detecting/correcting* code. At each
/// protected boundary ("eval-L0", "leaf-mul", "interp-L0") every column
/// verifies its syndromes; a single corrupted rank per column per boundary
/// is located and corrected in place (f >= 2). Corruptions at "leaf-mul"
/// are checked against the code taken over the leaf inputs, so a corrupted
/// *input* is repaired before the multiplication runs.
FtSoftResult ft_soft_multiply(const BigInt& a, const BigInt& b,
                              const FtSoftConfig& cfg,
                              const SoftFaultPlan& plan);

}  // namespace ftmul
