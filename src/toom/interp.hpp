#pragma once

#include <span>
#include <vector>

#include "bigint/bigint.hpp"
#include "linalg/matrix.hpp"
#include "rational/rational.hpp"

namespace ftmul {

/// Exact integer form of a rational linear operator M: each row i is stored
/// as integer numerators num(i, j) with one positive denominator den[i], so
/// that (M v)_i = (sum_j num(i,j) v_j) / den[i].
///
/// This is how interpolation is executed: the inverse evaluation matrix is
/// rational, but applied to the (integral) point values it always produces
/// integers — the division is *asserted* exact, which doubles as a powerful
/// runtime correctness check of the whole pipeline.
class InterpOperator {
public:
    InterpOperator() = default;

    /// Clear the denominators of an exact rational matrix.
    static InterpOperator from_rational(const Matrix<BigRational>& m);

    std::size_t rows() const { return num_.rows(); }
    std::size_t cols() const { return num_.cols(); }

    const Matrix<BigInt>& numerators() const { return num_; }
    const std::vector<BigInt>& denominators() const { return den_; }

    /// out[i] = (sum_j num(i,j) * in[j]) / den[i]; requires in.size() == cols.
    /// A wrapper over apply_into.
    std::vector<BigInt> apply(std::span<const BigInt> in) const;

    /// apply() into caller storage: each out[i] is overwritten in its own
    /// limb storage, so warm outputs allocate nothing. Requires
    /// out.size() == rows() and out not overlapping in.
    void apply_into(std::span<const BigInt> in, std::span<BigInt> out) const;

    /// Blockwise application: @p in is cols() consecutive blocks of
    /// @p block_len values; @p out is rows() blocks. Each scalar position is
    /// transformed independently — this is the "matrix times block vector"
    /// of the paper's Algorithm 2.
    void apply_blocks(std::span<const BigInt> in, std::span<BigInt> out,
                      std::size_t block_len) const;

    /// Streaming form for DFS steps: fold one input block (column) into the
    /// numerator accumulator (rows() blocks of block_len), then divide once
    /// with finalize_blocks after every column has been accumulated.
    void accumulate_column(std::size_t col, std::span<const BigInt> child,
                           std::span<BigInt> acc, std::size_t block_len) const;
    void finalize_blocks(std::span<BigInt> acc, std::size_t block_len) const;

    /// True when every numerator fits a machine word, enabling the fused
    /// add_scaled kernel (all standard plans qualify).
    bool small_coefficients() const { return small_ok_; }

private:
    /// out = row i applied to scalar position t of the blocks of @p in.
    void row_into(std::size_t i, std::span<const BigInt> in,
                  std::size_t block_len, std::size_t t, BigInt& out) const;

    Matrix<BigInt> num_;
    std::vector<BigInt> den_;  // all positive
    Matrix<std::int64_t> small_num_;
    bool small_ok_ = false;
};

}  // namespace ftmul
