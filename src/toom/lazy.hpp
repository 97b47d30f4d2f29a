#pragma once

#include <span>
#include <vector>

#include "bigint/bigint.hpp"
#include "toom/plan.hpp"

namespace ftmul {

/// Options for Toom-Cook with Lazy Interpolation (paper Algorithm 2,
/// Bermudo Mera et al.): both inputs are split into k^l digits up front,
/// every level works on digit-block vectors, and the carry is computed once
/// at the end. This variant is the backbone of the parallel algorithms: each
/// level is a pure linear map on blocks, which is exactly what the BFS data
/// exchanges and the linear erasure code of Section 4.1 require.
struct LazyOptions {
    /// Bits per top-level digit (the shared base is 2^digit_bits).
    std::size_t digit_bits = 512;

    /// Recursion stops when a block has at most this many digits; the base
    /// case is a schoolbook digit-polynomial convolution (the paper's
    /// "computed using one operation" threshold s, generalized to a block).
    std::size_t base_len = 4;
};

/// Multiply two digit polynomials of equal length k^l via Toom-Cook-k with
/// lazy interpolation. Returns the coefficient vector of the product in the
/// recursive (multivariate) layout of paper Claim 2.1; decode with
/// lazy_recompose. Lengths must be a power of k times a value <= base_len.
std::vector<BigInt> lazy_convolve(const ToomPlan& plan,
                                  std::span<const BigInt> a,
                                  std::span<const BigInt> b,
                                  std::size_t base_len);

/// Length of the coefficient vector lazy_convolve produces for inputs of
/// length @p len.
std::size_t lazy_result_len(int k, std::size_t len, std::size_t base_len);

/// Evaluate a lazy_convolve result back into an integer: the coefficient with
/// recursive block index (i_1, ..., i_l) carries weight B^(sum_t i_t k^(l-t)),
/// i.e. variable y_t = B^(k^(l-t)) per Claim 2.1.
BigInt lazy_recompose(const ToomPlan& plan, std::span<const BigInt> coeffs,
                      std::size_t digit_bits, std::size_t input_len,
                      std::size_t base_len);

/// Exact convolution of two equal-length digit vectors (2 * len - 1
/// coefficients) by positional Toom-Cook: each level zero-pads to a multiple
/// of k, recurses on the 2k-1 evaluated blocks and overlap-adds the
/// interpolated coefficients. Throws std::invalid_argument when @p a and
/// @p b are empty or differ in length.
///
/// Coefficients live in fixed-width two's-complement words (two or three
/// limbs) sized from a growth bound on the operands and the plan, so 32- and
/// 64-bit digits never touch a BigInt inside the recursion. OpsCounter is
/// charged exactly what toom_convolve_reference charges. Operands wider
/// than that bound allows, and plans whose interpolation numerators or
/// denominators do not fit a machine word, run toom_convolve_reference.
std::vector<BigInt> toom_convolve(const ToomPlan& plan,
                                  std::span<const BigInt> a,
                                  std::span<const BigInt> b,
                                  std::size_t base_len);

/// toom_convolve into caller storage: the 2 * len - 1 coefficients go to
/// the front of @p out and every later entry is set to zero. Throws
/// std::invalid_argument like toom_convolve, and when @p out is shorter
/// than 2 * len - 1.
void toom_convolve_into(const ToomPlan& plan, std::span<const BigInt> a,
                        std::span<const BigInt> b, std::size_t base_len,
                        std::span<BigInt> out);

/// The same convolution on BigInt coefficients, built from
/// ToomPlan::evaluate_blocks, InterpOperator::apply_blocks and
/// convolve_schoolbook. It is toom_convolve's fallback for operands or plans
/// the word kernel cannot hold, and its oracle in tests and bench_kernels.
/// Throws std::invalid_argument like toom_convolve.
std::vector<BigInt> toom_convolve_reference(const ToomPlan& plan,
                                            std::span<const BigInt> a,
                                            std::span<const BigInt> b,
                                            std::size_t base_len);

namespace detail {

/// Limbs per coefficient word toom_convolve uses for these operands (2 or
/// 3), or 0 when it runs toom_convolve_reference. Exposed for tests.
std::size_t toom_convolve_word_limbs(const ToomPlan& plan,
                                     std::span<const BigInt> a,
                                     std::span<const BigInt> b,
                                     std::size_t base_len);

}  // namespace detail

/// Full Algorithm 2: split, lazily convolve, recompose, with sign handling.
BigInt toom_multiply_lazy(const BigInt& a, const BigInt& b,
                          const ToomPlan& plan, const LazyOptions& opts = {});

}  // namespace ftmul
