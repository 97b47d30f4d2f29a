#include "toom/points.hpp"

#include <cassert>

namespace ftmul {

std::string EvalPoint::to_string() const {
    if (h == 0) return "inf";
    if (h == 1) return std::to_string(x);
    // Appends only: GCC 12's -Wrestrict misfires on "(" + std::string&&.
    std::string out = "(";
    out += std::to_string(x);
    out += ':';
    out += std::to_string(h);
    out += ')';
    return out;
}

std::vector<EvalPoint> standard_points(std::size_t count) {
    std::vector<EvalPoint> pts;
    pts.reserve(count);
    if (count >= 1) pts.push_back({0, 1});
    if (count >= 2) pts.push_back({1, 0});  // infinity
    std::int64_t v = 1;
    while (pts.size() < count) {
        pts.push_back({v, 1});
        if (pts.size() < count) pts.push_back({-v, 1});
        ++v;
    }
    return pts;
}

std::vector<BigInt> evaluation_row(const EvalPoint& p, std::size_t degree) {
    std::vector<BigInt> row(degree + 1);
    const BigInt x{p.x};
    const BigInt h{p.h};
    // row[j] = h^(degree - j) * x^j, computed incrementally.
    std::vector<BigInt> xpow(degree + 1), hpow(degree + 1);
    xpow[0] = BigInt{1};
    hpow[0] = BigInt{1};
    for (std::size_t j = 1; j <= degree; ++j) {
        xpow[j] = xpow[j - 1] * x;
        hpow[j] = hpow[j - 1] * h;
    }
    for (std::size_t j = 0; j <= degree; ++j) row[j] = hpow[degree - j] * xpow[j];
    return row;
}

Matrix<BigInt> evaluation_matrix(const std::vector<EvalPoint>& pts,
                                 std::size_t degree) {
    Matrix<BigInt> m(pts.size(), degree + 1);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        auto row = evaluation_row(pts[i], degree);
        for (std::size_t j = 0; j <= degree; ++j) m(i, j) = std::move(row[j]);
    }
    return m;
}

}  // namespace ftmul
