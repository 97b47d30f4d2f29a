#pragma once

#include <functional>
#include <vector>

#include "bigint/bigint.hpp"
#include "toom/plan.hpp"

namespace ftmul {

/// Options for the classic recursive algorithm (paper Algorithm 1).
struct ToomOptions {
    /// Operands at or below this many bits are multiplied by the schoolbook
    /// kernel — the paper's parameter s (hardware max operation size),
    /// scaled up to where Toom-Cook stops paying off in practice.
    std::size_t threshold_bits = 2048;

    /// Optional replacement for the interpolation stage: transforms the
    /// 2k-1 point products in place into the product coefficients. Used to
    /// plug in a Toom-Graph inversion sequence (paper Remark 4.1) instead of
    /// the dense inverse-matrix application.
    std::function<void(std::vector<BigInt>&)> custom_interpolation;
};

/// Recursive Toom-Cook-k multiplication (paper Algorithm 1): split into k
/// digits with a shared base, evaluate at 2k-1 points, recurse on the
/// pointwise products, interpolate exactly and resolve the carry. Handles
/// signed inputs; exact for all inputs.
///
/// The digits, point values, products and coefficients of each recursion
/// level live in the calling thread's level workspaces, which later calls
/// reuse, so a warm call allocates only its product. custom_interpolation
/// may itself call toom_multiply: the nested call takes the levels above
/// the ones in use.
BigInt toom_multiply(const BigInt& a, const BigInt& b, const ToomPlan& plan,
                     const ToomOptions& opts = {});

}  // namespace ftmul
