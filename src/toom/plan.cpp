#include "toom/plan.hpp"

#include <cassert>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "linalg/exact_solve.hpp"

namespace ftmul {

namespace {

Matrix<std::int64_t> small_eval_matrix(const std::vector<EvalPoint>& pts,
                                       std::size_t degree) {
    const Matrix<BigInt> big = evaluation_matrix(pts, degree);
    Matrix<std::int64_t> m(big.rows(), big.cols());
    for (std::size_t i = 0; i < big.rows(); ++i) {
        for (std::size_t j = 0; j < big.cols(); ++j) {
            if (!big(i, j).fits_int64()) {
                throw std::invalid_argument(
                    "ToomPlan: evaluation coefficient exceeds int64");
            }
            m(i, j) = big(i, j).to_int64();
        }
    }
    return m;
}

InterpOperator interp_for_points(const std::vector<EvalPoint>& pts, int k) {
    const std::size_t degree = static_cast<std::size_t>(2 * k - 2);
    const Matrix<BigInt> e = evaluation_matrix(pts, degree);
    return InterpOperator::from_rational(inverse(e.cast<BigRational>()));
}

}  // namespace

const ToomPlan& ToomPlan::make(int k, std::size_t redundancy) {
    // Checked here, not only in from_points: the point count below would
    // wrap for k < 1.
    if (k < 2) throw std::invalid_argument("ToomPlan: k must be >= 2");

    // Heap-allocated and never freed, so plans stay valid through static
    // destruction for any thread still holding a reference at exit.
    struct Cache {
        std::mutex mu;
        std::map<std::pair<int, std::size_t>, ToomPlan> plans;
    };
    static Cache& cache = *new Cache;

    const std::lock_guard<std::mutex> lock(cache.mu);
    const std::pair<int, std::size_t> key{k, redundancy};
    auto it = cache.plans.find(key);
    if (it == cache.plans.end()) {
        const std::size_t npts =
            static_cast<std::size_t>(2 * k - 1) + redundancy;
        it = cache.plans.emplace(key, from_points(k, standard_points(npts)))
                 .first;
    }
    return it->second;
}

ToomPlan ToomPlan::from_points(int k, std::vector<EvalPoint> pts) {
    if (k < 2) throw std::invalid_argument("ToomPlan: k must be >= 2");
    const std::size_t base = static_cast<std::size_t>(2 * k - 1);
    if (pts.size() < base) {
        throw std::invalid_argument("ToomPlan: need at least 2k-1 points");
    }
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].x == 0 && pts[i].h == 0) {
            throw std::invalid_argument("ToomPlan: (0,0) is not a point");
        }
        for (std::size_t j = i + 1; j < pts.size(); ++j) {
            if (EvalPoint::projectively_equal(pts[i], pts[j])) {
                throw std::invalid_argument(
                    "ToomPlan: points must be projectively distinct");
            }
        }
    }

    ToomPlan plan;
    plan.k_ = k;
    plan.points_ = std::move(pts);
    plan.eval_ =
        small_eval_matrix(plan.points_, static_cast<std::size_t>(k - 1));
    plan.interp_ = interp_for_points(
        std::vector<EvalPoint>(plan.points_.begin(),
                               plan.points_.begin() + static_cast<std::ptrdiff_t>(base)),
        k);
    return plan;
}

InterpOperator ToomPlan::interpolation_for(
    const std::vector<std::size_t>& point_idx) const {
    if (point_idx.size() != num_base_points()) {
        throw std::invalid_argument(
            "interpolation_for: need exactly 2k-1 surviving points");
    }
    std::vector<EvalPoint> pts;
    pts.reserve(point_idx.size());
    for (std::size_t i : point_idx) {
        if (i >= points_.size()) {
            throw std::invalid_argument("interpolation_for: bad point index");
        }
        pts.push_back(points_[i]);
    }
    return interp_for_points(pts, k_);
}

void ToomPlan::evaluate_blocks(std::span<const BigInt> in,
                               std::span<BigInt> out, std::size_t block_len,
                               std::span<const std::size_t> rows) const {
    const std::size_t k = static_cast<std::size_t>(k_);
    assert(in.size() == k * block_len);
    const std::size_t n = rows.empty() && block_len != 0
                              ? out.size() / block_len
                              : rows.size();
    assert(out.size() == n * block_len && n <= num_points());

    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t row = rows.empty() ? r : rows[r];
        for (std::size_t t = 0; t < block_len; ++t) {
            BigInt& acc = out[r * block_len + t];
            acc = BigInt{};  // keeps acc's limb storage
            for (std::size_t j = 0; j < k; ++j) {
                add_scaled(acc, in[j * block_len + t], eval_(row, j));
            }
        }
    }
}

std::vector<BigInt> ToomPlan::evaluate(std::span<const BigInt> digits) const {
    std::vector<BigInt> out(num_points());
    evaluate_blocks(digits, out, 1);
    return out;
}

}  // namespace ftmul
