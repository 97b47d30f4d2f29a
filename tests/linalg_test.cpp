#include "linalg/exact_solve.hpp"

#include <gtest/gtest.h>

#include "bigint/random.hpp"
#include "linalg/matrix.hpp"

namespace ftmul {
namespace {

Matrix<BigRational> random_rational_matrix(Rng& rng, std::size_t n,
                                           std::size_t bits) {
    Matrix<BigRational> m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            m(i, j) = BigRational{random_signed_bits(rng, 1 + rng.next_below(bits))};
        }
    }
    return m;
}

TEST(Matrix, IdentityAndMultiply) {
    auto id = Matrix<BigRational>::identity(3);
    Rng rng{11};
    auto m = random_rational_matrix(rng, 3, 10);
    EXPECT_EQ(m * id, m);
    EXPECT_EQ(id * m, m);
}

TEST(Matrix, TransposeInvolution) {
    Rng rng{12};
    auto m = random_rational_matrix(rng, 4, 8);
    EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, SelectRows) {
    Matrix<BigInt> m(3, 2);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            m(i, j) = BigInt{static_cast<std::int64_t>(10 * i + j)};
    auto s = m.select_rows({2, 0});
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_EQ(s(0, 0), BigInt{20});
    EXPECT_EQ(s(1, 1), BigInt{1});
}

TEST(Matrix, ApplyMatchesMultiply) {
    Rng rng{13};
    auto m = random_rational_matrix(rng, 4, 6);
    std::vector<BigRational> x;
    for (int i = 0; i < 4; ++i) x.emplace_back(BigInt{i + 1});
    auto y = m.apply(x);
    for (std::size_t i = 0; i < 4; ++i) {
        BigRational expect;
        for (std::size_t j = 0; j < 4; ++j) expect += m(i, j) * x[j];
        EXPECT_EQ(y[i], expect);
    }
}

TEST(ExactSolve, InverseOfIdentity) {
    auto id = Matrix<BigRational>::identity(5);
    EXPECT_EQ(inverse(id), id);
}

TEST(ExactSolve, Known2x2) {
    Matrix<BigRational> m(2, 2);
    m(0, 0) = 1;
    m(0, 1) = 2;
    m(1, 0) = 3;
    m(1, 1) = 4;
    auto inv = inverse(m);
    EXPECT_EQ(inv(0, 0), BigRational(BigInt{-2}));
    EXPECT_EQ(inv(0, 1), BigRational(BigInt{1}));
    EXPECT_EQ(inv(1, 0), BigRational(BigInt{3}, BigInt{2}));
    EXPECT_EQ(inv(1, 1), BigRational(BigInt{-1}, BigInt{2}));
}

TEST(ExactSolve, SingularThrows) {
    Matrix<BigRational> m(2, 2);
    m(0, 0) = 1;
    m(0, 1) = 2;
    m(1, 0) = 2;
    m(1, 1) = 4;
    EXPECT_THROW(inverse(m), SingularMatrixError);
}

TEST(ExactSolve, SingularNeedsRowSwap) {
    // Zero pivot but invertible: requires the row-swap path.
    Matrix<BigRational> m(2, 2);
    m(0, 0) = 0;
    m(0, 1) = 1;
    m(1, 0) = 1;
    m(1, 1) = 0;
    auto inv = inverse(m);
    EXPECT_EQ(inv * m, Matrix<BigRational>::identity(2));
}

TEST(ExactSolve, SolveKnownSystem) {
    Matrix<BigRational> a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    std::vector<BigRational> b{BigRational{BigInt{5}}, BigRational{BigInt{10}}};
    auto x = solve(a, b);
    EXPECT_EQ(x[0], BigRational{BigInt{1}});
    EXPECT_EQ(x[1], BigRational{BigInt{3}});
}

TEST(Bareiss, KnownDeterminants) {
    Matrix<BigInt> m(2, 2);
    m(0, 0) = 3;
    m(0, 1) = 7;
    m(1, 0) = 1;
    m(1, 1) = 5;
    EXPECT_EQ(determinant_bareiss(m), BigInt{8});

    Matrix<BigInt> s(3, 3);
    // Rank-deficient.
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            s(i, j) = BigInt{static_cast<std::int64_t>(i + j)};
    EXPECT_EQ(determinant_bareiss(s), BigInt{0});

    EXPECT_EQ(determinant_bareiss(Matrix<BigInt>::identity(6)), BigInt{1});
}

TEST(Bareiss, RowSwapFlipsSign) {
    Matrix<BigInt> m(2, 2);
    m(0, 0) = 0;
    m(0, 1) = 1;
    m(1, 0) = 1;
    m(1, 1) = 0;
    EXPECT_EQ(determinant_bareiss(m), BigInt{-1});
}

TEST(Bareiss, VandermondeDeterminantIsProductOfDifferences) {
    // det V(eta) = prod_{i<j} (eta_j - eta_i): 12 for nodes 0..3, and
    // nonzero (invertible) exactly when the nodes are distinct.
    for (const std::vector<std::int64_t>& etas :
         {std::vector<std::int64_t>{0, 1, 2, 3},
          std::vector<std::int64_t>{-2, -1, 1, 3, 5},
          std::vector<std::int64_t>{4, -7, 0, 9, 2, -3}}) {
        const std::size_t n = etas.size();
        Matrix<BigInt> v(n, n);
        BigInt expect{1};
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                v(i, j) = BigInt{etas[i]}.pow(j);
            }
            for (std::size_t j = i + 1; j < n; ++j) {
                expect *= BigInt{etas[j] - etas[i]};
            }
        }
        EXPECT_EQ(determinant_bareiss(v), expect);
        EXPECT_TRUE(is_invertible(v));
    }
    Matrix<BigInt> repeated(3, 3);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            repeated(i, j) = BigInt{i == 2 ? 1 : static_cast<std::int64_t>(i) + 1}
                                 .pow(j);
        }
    }
    EXPECT_EQ(determinant_bareiss(repeated), BigInt{0});
    EXPECT_FALSE(is_invertible(repeated));
}

TEST(ExactSolve, ColumnCodeMinorsAreInvertible) {
    // The linear code's recovery solves, for t dead ranks at column
    // positions p_c, the t x t system M(j, c) = (j + 1)^{p_c}. Every such
    // generalized Vandermonde minor over positions 0..7 and t <= 4 has
    // distinct positive nodes and distinct exponents, so it is invertible.
    std::size_t minors = 0;
    for (std::uint32_t mask = 1; mask < (1u << 8); ++mask) {
        const auto t = static_cast<std::size_t>(__builtin_popcount(mask));
        if (t > 4) continue;
        std::vector<std::uint64_t> positions;
        for (std::uint64_t p = 0; p < 8; ++p) {
            if (mask & (1u << p)) positions.push_back(p);
        }
        Matrix<BigRational> m(t, t);
        for (std::size_t j = 0; j < t; ++j) {
            for (std::size_t c = 0; c < t; ++c) {
                m(j, c) = BigRational{
                    BigInt{static_cast<std::int64_t>(j + 1)}.pow(positions[c])};
            }
        }
        const auto inv = inverse(m);
        EXPECT_EQ(inv * m, Matrix<BigRational>::identity(t)) << "mask=" << mask;
        ++minors;
    }
    EXPECT_EQ(minors, 8u + 28u + 56u + 70u);
}

class InverseProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InverseProperty, InverseTimesSelfIsIdentity) {
    Rng rng{GetParam() * 7 + 1};
    const std::size_t n = 1 + GetParam() % 6;
    for (int attempt = 0; attempt < 5; ++attempt) {
        auto m = random_rational_matrix(rng, n, 12);
        try {
            auto inv = inverse(m);
            EXPECT_EQ(inv * m, Matrix<BigRational>::identity(n));
            EXPECT_EQ(m * inv, Matrix<BigRational>::identity(n));
        } catch (const SingularMatrixError&) {
            // Random singular matrices are legitimate; skip.
        }
    }
}

TEST_P(InverseProperty, BareissMatchesRationalElimination) {
    Rng rng{GetParam() * 31 + 5};
    const std::size_t n = 2 + GetParam() % 5;
    Matrix<BigInt> m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = random_signed_bits(rng, 1 + rng.next_below(16));
    const BigInt det = determinant_bareiss(m);
    // Cross-check: det != 0 iff rational inverse succeeds.
    auto mr = m.cast<BigRational>();
    if (det.is_zero()) {
        EXPECT_THROW(inverse(mr), SingularMatrixError);
    } else {
        auto inv = inverse(mr);
        EXPECT_EQ(inv * mr, Matrix<BigRational>::identity(n));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InverseProperty,
                         ::testing::Range<std::size_t>(0, 10));

}  // namespace
}  // namespace ftmul
