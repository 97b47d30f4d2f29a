#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "toom/interp.hpp"
#include "toom/points.hpp"

namespace ftmul {

/// A Toom-Cook-k instance: the split number k, the evaluation point set
/// (2k-1 base points plus optional redundant points for the polynomial code
/// of Section 4.2), the evaluation matrix U = V, and the exact interpolation
/// operator for the base points.
///
/// The plan is immutable and shared by the sequential, lazy, parallel and
/// fault-tolerant algorithms; FT variants ask it for interpolation operators
/// over arbitrary surviving point subsets (interpolation_for).
class ToomPlan {
public:
    /// Standard plan: k >= 2, the classic point sequence {0, inf, 1, -1, 2,
    /// ...}, plus @p redundancy extra points from the same sequence.
    ///
    /// Memoized: the first call per (k, redundancy) builds the plan (an
    /// exact rational inversion) under a lock; every call returns the same
    /// immutable object, which lives until the process exits. Throws
    /// std::invalid_argument for k < 2.
    static const ToomPlan& make(int k, std::size_t redundancy = 0);

    /// Plan over caller-chosen points (must be pairwise projectively
    /// distinct, at least 2k-1 of them). Throws std::invalid_argument
    /// otherwise. Not memoized: every call builds a fresh plan.
    static ToomPlan from_points(int k, std::vector<EvalPoint> pts);

    int k() const noexcept { return k_; }
    std::size_t num_points() const noexcept { return points_.size(); }
    std::size_t num_base_points() const noexcept {
        return static_cast<std::size_t>(2 * k_ - 1);
    }
    std::size_t redundancy() const noexcept {
        return num_points() - num_base_points();
    }
    const std::vector<EvalPoint>& points() const noexcept { return points_; }

    /// Evaluation matrix for degree-(k-1) inputs; num_points() x k, small
    /// integer entries.
    const Matrix<std::int64_t>& eval_matrix() const noexcept { return eval_; }

    /// Exact interpolation operator for the first 2k-1 (base) points.
    const InterpOperator& interpolation() const noexcept { return interp_; }

    /// On-the-fly interpolation from an arbitrary subset of 2k-1 surviving
    /// points, "calculated on the fly according to the evaluation points of
    /// the finished sub-problems" (Section 4.2 fault recovery).
    InterpOperator interpolation_for(const std::vector<std::size_t>& point_idx) const;

    /// Evaluate k digit blocks of length @p block_len at the points whose
    /// row indices are @p rows. When @p rows is empty, evaluate at the first
    /// out.size() / block_len points: the 2k-1 base points when @p out
    /// holds that many blocks, every point when it holds num_points(). Each
    /// output value is overwritten in its own limb storage.
    void evaluate_blocks(std::span<const BigInt> in, std::span<BigInt> out,
                         std::size_t block_len,
                         std::span<const std::size_t> rows = {}) const;

    /// Evaluate a digit vector of length k at every point (block_len == 1).
    std::vector<BigInt> evaluate(std::span<const BigInt> digits) const;

private:
    ToomPlan() = default;

    int k_ = 0;
    std::vector<EvalPoint> points_;
    Matrix<std::int64_t> eval_;
    InterpOperator interp_;
};

}  // namespace ftmul
