#include "toom/interp.hpp"

#include <cassert>

namespace ftmul {

namespace {

BigInt lcm(const BigInt& a, const BigInt& b) {
    if (a.is_zero() || b.is_zero()) return BigInt{};
    return (a * b).divexact(BigInt::gcd(a, b)).abs();
}

}  // namespace

InterpOperator InterpOperator::from_rational(const Matrix<BigRational>& m) {
    InterpOperator op;
    op.num_ = Matrix<BigInt>(m.rows(), m.cols());
    op.den_.assign(m.rows(), BigInt{1});
    for (std::size_t i = 0; i < m.rows(); ++i) {
        BigInt d{1};
        for (std::size_t j = 0; j < m.cols(); ++j) d = lcm(d, m(i, j).den());
        op.den_[i] = d;
        for (std::size_t j = 0; j < m.cols(); ++j) {
            op.num_(i, j) = m(i, j).num() * d.divexact(m(i, j).den());
        }
    }
    // Cache machine-word numerators for the fused accumulate kernel.
    op.small_ok_ = true;
    op.small_num_ = Matrix<std::int64_t>(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows() && op.small_ok_; ++i) {
        for (std::size_t j = 0; j < m.cols(); ++j) {
            if (!op.num_(i, j).fits_int64()) {
                op.small_ok_ = false;
                break;
            }
            op.small_num_(i, j) = op.num_(i, j).to_int64();
        }
    }
    return op;
}

void InterpOperator::row_into(std::size_t i, std::span<const BigInt> in,
                              std::size_t block_len, std::size_t t,
                              BigInt& out) const {
    out = BigInt{};  // keeps out's limb storage
    if (small_ok_) {
        for (std::size_t j = 0; j < cols(); ++j) {
            add_scaled(out, in[j * block_len + t], small_num_(i, j));
        }
    } else {
        for (std::size_t j = 0; j < cols(); ++j) {
            const BigInt& c = num_(i, j);
            if (c.is_zero()) continue;
            add_mul(out, c, in[j * block_len + t]);
        }
    }
    if (den_[i] != BigInt{1}) out.divexact_inplace(den_[i]);
}

std::vector<BigInt> InterpOperator::apply(std::span<const BigInt> in) const {
    std::vector<BigInt> out(rows());
    apply_into(in, out);
    return out;
}

void InterpOperator::apply_into(std::span<const BigInt> in,
                                std::span<BigInt> out) const {
    assert(in.size() == cols());
    assert(out.size() == rows());
    for (std::size_t i = 0; i < rows(); ++i) row_into(i, in, 1, 0, out[i]);
}

void InterpOperator::apply_blocks(std::span<const BigInt> in,
                                  std::span<BigInt> out,
                                  std::size_t block_len) const {
    assert(in.size() == cols() * block_len);
    assert(out.size() == rows() * block_len);
    for (std::size_t i = 0; i < rows(); ++i) {
        for (std::size_t t = 0; t < block_len; ++t) {
            row_into(i, in, block_len, t, out[i * block_len + t]);
        }
    }
}

void InterpOperator::accumulate_column(std::size_t col,
                                       std::span<const BigInt> child,
                                       std::span<BigInt> acc,
                                       std::size_t block_len) const {
    assert(col < cols());
    assert(child.size() == block_len);
    assert(acc.size() == rows() * block_len);
    for (std::size_t i = 0; i < rows(); ++i) {
        const BigInt& c = num_(i, col);
        if (c.is_zero()) continue;
        for (std::size_t t = 0; t < block_len; ++t) {
            add_mul(acc[i * block_len + t], c, child[t]);
        }
    }
}

void InterpOperator::finalize_blocks(std::span<BigInt> acc,
                                     std::size_t block_len) const {
    assert(acc.size() == rows() * block_len);
    for (std::size_t i = 0; i < rows(); ++i) {
        if (den_[i] == BigInt{1}) continue;
        for (std::size_t t = 0; t < block_len; ++t) {
            acc[i * block_len + t].divexact_inplace(den_[i]);
        }
    }
}

}  // namespace ftmul
