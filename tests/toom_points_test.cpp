#include "toom/points.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/exact_solve.hpp"
#include "toom/plan.hpp"

namespace ftmul {
namespace {

TEST(EvalPoint, ProjectiveEquality) {
    EXPECT_TRUE(EvalPoint::projectively_equal({1, 0}, {2, 0}));
    EXPECT_TRUE(EvalPoint::projectively_equal({2, 1}, {4, 2}));
    EXPECT_FALSE(EvalPoint::projectively_equal({2, 1}, {1, 0}));
    EXPECT_FALSE(EvalPoint::projectively_equal({0, 1}, {1, 1}));
}

TEST(EvalPoint, ToString) {
    EXPECT_EQ((EvalPoint{1, 0}).to_string(), "inf");
    EXPECT_EQ((EvalPoint{-2, 1}).to_string(), "-2");
    EXPECT_EQ((EvalPoint{3, 2}).to_string(), "(3:2)");
}

TEST(StandardPoints, MatchesLiteratureForToom3) {
    // Paper Section 1.1: the common Toom-3 set is {0, 1, -1, 2, inf}.
    auto pts = standard_points(5);
    ASSERT_EQ(pts.size(), 5u);
    EXPECT_EQ(pts[0], (EvalPoint{0, 1}));
    EXPECT_EQ(pts[1], (EvalPoint{1, 0}));
    EXPECT_EQ(pts[2], (EvalPoint{1, 1}));
    EXPECT_EQ(pts[3], (EvalPoint{-1, 1}));
    EXPECT_EQ(pts[4], (EvalPoint{2, 1}));
}

TEST(StandardPoints, PairwiseDistinct) {
    auto pts = standard_points(17);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        for (std::size_t j = i + 1; j < pts.size(); ++j) {
            EXPECT_FALSE(EvalPoint::projectively_equal(pts[i], pts[j]))
                << i << " vs " << j;
        }
    }
}

TEST(EvaluationRow, FiniteAndInfinity) {
    // Degree 2 row of x=2: (1, 2, 4).
    auto row = evaluation_row({2, 1}, 2);
    EXPECT_EQ(row[0], BigInt{1});
    EXPECT_EQ(row[1], BigInt{2});
    EXPECT_EQ(row[2], BigInt{4});
    // Infinity (1,0): picks the leading coefficient only.
    auto inf = evaluation_row({1, 0}, 2);
    EXPECT_EQ(inf[0], BigInt{0});
    EXPECT_EQ(inf[1], BigInt{0});
    EXPECT_EQ(inf[2], BigInt{1});
}

TEST(EvaluationMatrix, InterpolationTheorem) {
    // Paper Theorem 2.1: the k-evaluation matrix of k distinct points is
    // invertible — check for several k over the standard sets.
    for (std::size_t k = 2; k <= 7; ++k) {
        auto pts = standard_points(k);
        auto m = evaluation_matrix(pts, k - 1);
        EXPECT_TRUE(is_invertible(m)) << "k=" << k;
    }
}

TEST(EvaluationMatrix, EverySubsetInvertible) {
    // Any 2k-1 of the 2k-1+f standard points interpolate the product —
    // the foundation of the polynomial code (Section 4.2).
    const int k = 2;
    const std::size_t base = 3, f = 2;
    auto pts = standard_points(base + f);
    auto m = evaluation_matrix(pts, 2 * k - 2);
    std::vector<std::size_t> idx(base);
    for (std::size_t a = 0; a < base + f; ++a) {
        for (std::size_t b = a + 1; b < base + f; ++b) {
            for (std::size_t c = b + 1; c < base + f; ++c) {
                EXPECT_TRUE(is_invertible(m.select_rows({a, b, c})))
                    << a << "," << b << "," << c;
            }
        }
    }
}

TEST(ToomPlan, RejectsBadInput) {
    EXPECT_THROW(ToomPlan::make(1), std::invalid_argument);
    EXPECT_THROW(ToomPlan::make(0), std::invalid_argument);
    EXPECT_THROW(ToomPlan::make(-1), std::invalid_argument);
    EXPECT_THROW(ToomPlan::from_points(2, {{0, 1}, {1, 1}}),
                 std::invalid_argument);
    EXPECT_THROW(ToomPlan::from_points(2, {{0, 1}, {1, 1}, {2, 2}}),
                 std::invalid_argument);  // (1,1) ~ (2,2)
    EXPECT_THROW(ToomPlan::from_points(2, {{0, 1}, {0, 0}, {1, 1}}),
                 std::invalid_argument);
}

TEST(ToomPlan, MakeReturnsOneObjectPerKey) {
    const ToomPlan& p3 = ToomPlan::make(3);
    const ToomPlan& p3r2 = ToomPlan::make(3, 2);
    EXPECT_EQ(&ToomPlan::make(3), &p3);
    EXPECT_EQ(&ToomPlan::make(3, 0), &p3);
    EXPECT_EQ(&ToomPlan::make(3, 2), &p3r2);
    EXPECT_NE(&p3, &p3r2);
    EXPECT_EQ(p3.redundancy(), 0u);
    EXPECT_EQ(p3r2.redundancy(), 2u);
}

TEST(ToomPlan, CachedPlanMatchesFreshBuild) {
    for (int k = 2; k <= 5; ++k) {
        for (std::size_t r = 0; r <= 2; ++r) {
            const ToomPlan& cached = ToomPlan::make(k, r);
            const ToomPlan fresh = ToomPlan::from_points(
                k, standard_points(static_cast<std::size_t>(2 * k - 1) + r));
            EXPECT_EQ(cached.points(), fresh.points()) << k << "," << r;
            EXPECT_EQ(cached.eval_matrix(), fresh.eval_matrix());
            EXPECT_EQ(cached.interpolation().numerators(),
                      fresh.interpolation().numerators());
            EXPECT_EQ(cached.interpolation().denominators(),
                      fresh.interpolation().denominators());
        }
    }
}

TEST(ToomPlan, ConcurrentMakeBuildsOnePlanPerKey) {
    // No other test here builds these keys, so they are cold even when the
    // whole binary runs in one process. All threads start at once, each in
    // a different key order, so first builds race each other on the cache.
    const std::vector<std::pair<int, std::size_t>> keys = {
        {2, 3}, {2, 4}, {3, 3}, {3, 4}, {4, 3}, {5, 3}};
    constexpr std::size_t kThreads = 8;
    std::vector<std::vector<const ToomPlan*>> seen(
        kThreads, std::vector<const ToomPlan*>(keys.size()));
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const std::size_t j = (i + t) % keys.size();
                seen[t][j] = &ToomPlan::make(keys[j].first, keys[j].second);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();

    for (std::size_t j = 0; j < keys.size(); ++j) {
        const ToomPlan* plan = &ToomPlan::make(keys[j].first, keys[j].second);
        EXPECT_EQ(plan->k(), keys[j].first);
        EXPECT_EQ(plan->redundancy(), keys[j].second);
        for (std::size_t t = 0; t < kThreads; ++t) {
            EXPECT_EQ(seen[t][j], plan) << "thread " << t << ", key " << j;
        }
    }
}

TEST(ToomPlan, ShapeAndRedundancy) {
    auto plan = ToomPlan::make(3, 2);
    EXPECT_EQ(plan.k(), 3);
    EXPECT_EQ(plan.num_points(), 7u);
    EXPECT_EQ(plan.num_base_points(), 5u);
    EXPECT_EQ(plan.redundancy(), 2u);
    EXPECT_EQ(plan.eval_matrix().rows(), 7u);
    EXPECT_EQ(plan.eval_matrix().cols(), 3u);
    EXPECT_EQ(plan.interpolation().rows(), 5u);
}

TEST(ToomPlan, EvaluationMatchesPolynomial) {
    // Evaluate p(x) = 3 + 5x + 7x^2 at the Toom-3 points by matrix and by
    // direct substitution.
    auto plan = ToomPlan::make(3);
    std::vector<BigInt> digits{3, 5, 7};
    auto vals = plan.evaluate(digits);
    EXPECT_EQ(vals[0], BigInt{3});    // x=0
    EXPECT_EQ(vals[1], BigInt{7});    // inf -> leading
    EXPECT_EQ(vals[2], BigInt{15});   // x=1
    EXPECT_EQ(vals[3], BigInt{5});    // x=-1: 3-5+7
    EXPECT_EQ(vals[4], BigInt{41});   // x=2: 3+10+28
}

TEST(ToomPlan, InterpolationRecoversCoefficients) {
    // For every k: evaluate a known product polynomial, interpolate back.
    for (int k = 2; k <= 6; ++k) {
        auto plan = ToomPlan::make(k);
        const std::size_t deg = static_cast<std::size_t>(2 * k - 2);
        std::vector<BigInt> coeffs(deg + 1);
        for (std::size_t i = 0; i <= deg; ++i) {
            coeffs[i] = BigInt{static_cast<std::int64_t>(i * i + 1)};
        }
        // Point values of the product polynomial.
        auto e = evaluation_matrix(
            std::vector<EvalPoint>(plan.points().begin(),
                                   plan.points().begin() + 2 * k - 1),
            deg);
        auto vals = e.apply(coeffs);
        auto back = plan.interpolation().apply(vals);
        EXPECT_EQ(back, coeffs) << "k=" << k;
    }
}

TEST(ToomPlan, InterpolationForSubsetMatchesBase) {
    auto plan = ToomPlan::make(2, 2);  // 5 points, base 3
    // The identity subset reproduces the base operator behaviour.
    auto op = plan.interpolation_for({0, 1, 2});
    std::vector<BigInt> c{4, -7, 9};
    auto e = evaluation_matrix({plan.points()[0], plan.points()[1],
                                plan.points()[2]}, 2);
    EXPECT_EQ(op.apply(e.apply(c)), c);

    // A mixed subset (simulating two dead columns) still interpolates.
    auto op2 = plan.interpolation_for({1, 3, 4});
    auto e2 = evaluation_matrix({plan.points()[1], plan.points()[3],
                                 plan.points()[4]}, 2);
    EXPECT_EQ(op2.apply(e2.apply(c)), c);
}

TEST(ToomPlan, InterpolationForRejectsBadSubsets) {
    auto plan = ToomPlan::make(2, 1);
    EXPECT_THROW(plan.interpolation_for({0, 1}), std::invalid_argument);
    EXPECT_THROW(plan.interpolation_for({0, 1, 9}), std::invalid_argument);
}

TEST(InterpOperator, BlockwiseMatchesScalar) {
    auto plan = ToomPlan::make(3);
    const auto& op = plan.interpolation();
    const std::size_t block = 3;
    std::vector<BigInt> in(op.cols() * block);
    for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = BigInt{static_cast<std::int64_t>(7 * i + 1)} *
                BigInt{(i % 2) ? 360 : 720};
    }
    // Scalar-by-scalar reference.
    std::vector<BigInt> expect(op.rows() * block);
    bool exact = true;
    for (std::size_t t = 0; t < block; ++t) {
        std::vector<BigInt> col(op.cols());
        for (std::size_t j = 0; j < op.cols(); ++j) col[j] = in[j * block + t];
        // The operator requires exact divisions; build inputs in the image of
        // the evaluation map to guarantee that.
        (void)exact;
        auto e = evaluation_matrix(
            std::vector<EvalPoint>(plan.points().begin(),
                                   plan.points().begin() + 5),
            4);
        col = e.apply(std::vector<BigInt>(col.begin(), col.end()));
        for (std::size_t j = 0; j < op.cols(); ++j) in[j * block + t] = col[j];
        auto out = op.apply(col);
        for (std::size_t i = 0; i < op.rows(); ++i) expect[i * block + t] = out[i];
    }
    std::vector<BigInt> got(op.rows() * block);
    op.apply_blocks(in, got, block);
    EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace ftmul
