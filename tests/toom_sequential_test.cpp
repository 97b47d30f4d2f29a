#include "toom/sequential.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"

namespace ftmul {
namespace {

TEST(ToomSequential, SmallKnownProducts) {
    auto plan = ToomPlan::make(2);
    ToomOptions opts;
    opts.threshold_bits = 1;  // force at least one Toom level even for tiny inputs
    EXPECT_EQ(toom_multiply(BigInt{6}, BigInt{7}, plan, opts), BigInt{42});
    EXPECT_EQ(toom_multiply(BigInt{-6}, BigInt{7}, plan, opts), BigInt{-42});
    EXPECT_EQ(toom_multiply(BigInt{6}, BigInt{-7}, plan, opts), BigInt{-42});
    EXPECT_EQ(toom_multiply(BigInt{-6}, BigInt{-7}, plan, opts), BigInt{42});
    EXPECT_EQ(toom_multiply(BigInt{}, BigInt{7}, plan, opts), BigInt{});
}

TEST(ToomSequential, PowerOfTwoProducts) {
    auto plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 64;
    BigInt a = BigInt::power_of_two(1000);
    BigInt b = BigInt::power_of_two(999);
    EXPECT_EQ(toom_multiply(a, b, plan, opts), BigInt::power_of_two(1999));
}

TEST(ToomSequential, UnbalancedOperands) {
    auto plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 64;
    Rng rng{42};
    BigInt a = random_bits(rng, 5000);
    BigInt b = random_bits(rng, 300);
    EXPECT_EQ(toom_multiply(a, b, plan, opts), a * b);
    EXPECT_EQ(toom_multiply(b, a, plan, opts), a * b);
}

TEST(ToomSequential, SquareNumbers) {
    auto plan = ToomPlan::make(4);
    ToomOptions opts;
    opts.threshold_bits = 128;
    Rng rng{7};
    BigInt a = random_bits(rng, 4096);
    EXPECT_EQ(toom_multiply(a, a, plan, opts), a * a);
}

struct SeqCase {
    int k;
    std::size_t bits;
};

class ToomSequentialSweep : public ::testing::TestWithParam<SeqCase> {};

TEST_P(ToomSequentialSweep, MatchesSchoolbook) {
    const auto [k, bits] = GetParam();
    auto plan = ToomPlan::make(k);
    ToomOptions opts;
    opts.threshold_bits = 256;
    Rng rng{static_cast<std::uint64_t>(k) * 1000 + bits};
    for (int i = 0; i < 3; ++i) {
        BigInt a = random_signed_bits(rng, bits + rng.next_below(17));
        BigInt b = random_signed_bits(rng, bits / 2 + rng.next_below(64) + 1);
        EXPECT_EQ(toom_multiply(a, b, plan, opts), a * b)
            << "k=" << k << " bits=" << bits;
    }
}

INSTANTIATE_TEST_SUITE_P(
    KAndSize, ToomSequentialSweep,
    ::testing::Values(SeqCase{2, 512}, SeqCase{2, 2000}, SeqCase{2, 8192},
                      SeqCase{3, 512}, SeqCase{3, 3000}, SeqCase{3, 10000},
                      SeqCase{4, 1024}, SeqCase{4, 9000}, SeqCase{5, 5000},
                      SeqCase{6, 7000}, SeqCase{7, 11000}, SeqCase{8, 8000}));

TEST(ToomSequential, RedundantPointsDoNotChangeResult) {
    // A plan with redundancy evaluates extra points but must multiply
    // identically through the base interpolation.
    Rng rng{3};
    BigInt a = random_bits(rng, 3000);
    BigInt b = random_bits(rng, 3000);
    ToomOptions opts;
    opts.threshold_bits = 256;
    EXPECT_EQ(toom_multiply(a, b, ToomPlan::make(3, 0), opts),
              toom_multiply(a, b, ToomPlan::make(3, 3), opts));
}

TEST(ToomSequential, CustomInterpolationHook) {
    // A custom interpolation equal to the plan's operator gives the same
    // product (plumbing check for the Toom-Graph path).
    auto plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 256;
    opts.custom_interpolation = [&plan](std::vector<BigInt>& v) {
        v = plan.interpolation().apply(v);
    };
    Rng rng{8};
    BigInt a = random_bits(rng, 4000);
    BigInt b = random_bits(rng, 4000);
    EXPECT_EQ(toom_multiply(a, b, plan, opts), a * b);
}

TEST(ToomSequential, CustomInterpolationMayCallToomMultiply) {
    // The hook runs while its own level's point products are in use; a
    // toom_multiply inside it (Toom-2, deep enough to take several levels
    // of its own) must start above that level and leave it intact.
    const ToomPlan& plan = ToomPlan::make(3);
    const ToomPlan& inner_plan = ToomPlan::make(2);
    ToomOptions inner;
    inner.threshold_bits = 64;
    ToomOptions opts;
    opts.threshold_bits = 256;
    int nested = 0;
    opts.custom_interpolation = [&](std::vector<BigInt>& v) {
        const BigInt x = v[0] + 1;
        const BigInt y = v[2] - 1;
        EXPECT_EQ(toom_multiply(x, y, inner_plan, inner), x * y);
        ++nested;
        v = plan.interpolation().apply(v);
    };
    Rng rng{11};
    for (std::size_t bits : {1000u, 3000u, 9000u}) {
        const BigInt a = random_signed_bits(rng, bits);
        const BigInt b = random_signed_bits(rng, bits - 100);
        EXPECT_EQ(toom_multiply(a, b, plan, opts), a * b) << bits;
    }
    EXPECT_GT(nested, 0);
}

TEST(ToomSequential, ChargesArePinned) {
    // F of toom_multiply for k = 2..5 at thresholds of 64, 200 and 2048
    // bits, on four seeded operand shapes each: signed pairs, a zero
    // operand, a square and an unbalanced pair, up to 20 kbit. The charge is
    // the cost model's F for Algorithm 1; changes to how the recursion
    // stores its values must leave it exactly as is.
    constexpr std::size_t kThresholds[] = {64, 200, 2048};
    constexpr std::uint64_t kPinned[4][3][4] = {
        {{81590, 0, 38219, 55807}, {59522, 0, 14086, 17543}, {38667, 0, 39842, 4867}},
        {{49292, 0, 23667, 189836}, {174443, 0, 69997, 94809}, {28807, 0, 2299, 13000}},
        {{82428, 0, 83785, 311559}, {188809, 0, 219211, 117766}, {55760, 0, 57977, 30302}},
        {{248993, 0, 279010, 247331}, {97707, 0, 62402, 108614}, {9148, 0, 10557, 35365}},
    };
    for (int k = 2; k <= 5; ++k) {
        const ToomPlan& plan = ToomPlan::make(k);
        for (std::size_t t = 0; t < 3; ++t) {
            ToomOptions opts;
            opts.threshold_bits = kThresholds[t];
            Rng rng{static_cast<std::uint64_t>(k) * 100 + t};
            const BigInt x = random_signed_bits(rng, 2100 + rng.next_below(17900));
            const BigInt y = random_signed_bits(rng, 2100 + rng.next_below(17900));
            const BigInt u = random_bits(rng, 15000 + rng.next_below(5000));
            const BigInt v = random_signed_bits(rng, 100 + rng.next_below(900));
            const std::pair<BigInt, BigInt> pairs[4] = {
                {x, y}, {x, BigInt{}}, {y, y}, {u, v}};
            for (std::size_t s = 0; s < 4; ++s) {
                const auto& [a, b] = pairs[s];
                OpsCounter::reset();
                const BigInt p = toom_multiply(a, b, plan, opts);
                EXPECT_EQ(OpsCounter::get(), kPinned[k - 2][t][s])
                    << "k=" << k << " threshold=" << kThresholds[t]
                    << " shape=" << s;
                EXPECT_EQ(p, a * b) << "k=" << k << " shape=" << s;
            }
        }
    }

    // The Toom-Graph hook: the coefficients come from the caller's
    // interpolation, which here charges what the plan's operator charges.
    const ToomPlan& plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 256;
    opts.custom_interpolation = [&plan](std::vector<BigInt>& v) {
        v = plan.interpolation().apply(v);
    };
    Rng rng{8};
    const BigInt a = random_signed_bits(rng, 6000);
    const BigInt b = random_signed_bits(rng, 5000);
    OpsCounter::reset();
    const BigInt p = toom_multiply(a, b, plan, opts);
    EXPECT_EQ(OpsCounter::get(), 18191u);
    EXPECT_EQ(p, a * b);
}

}  // namespace
}  // namespace ftmul
