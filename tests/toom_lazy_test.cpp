#include "toom/lazy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "core/config.hpp"
#include "toom/digits.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

TEST(Digits, SplitRecomposeRoundTrip) {
    Rng rng{21};
    for (std::size_t bits : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                             std::size_t{1000}}) {
        BigInt v = random_bits(rng, bits);
        auto d = split_digits(v, 32, (bits + 31) / 32);
        EXPECT_EQ(recompose_digits(d, 32), v) << bits;
    }
}

TEST(Digits, RecomposeHandlesWideSignedDigits) {
    // Digits wider than the base and negative: carries must resolve.
    std::vector<BigInt> d{BigInt{100}, BigInt{-3}, BigInt{5}};
    // 100 + (-3)*16 + 5*256 = 100 - 48 + 1280 = 1332
    EXPECT_EQ(recompose_digits(d, 4), BigInt{1332});
}

TEST(Digits, LinearRecomposeMatchesHorner) {
    // Differential check of run_engine's product assembly: random lengths
    // and digit widths, coefficients from zero up to 2 * digit_bits + 8
    // bits wide (a product coefficient plus growth), so neighbours overlap
    // by up to two digit positions and carries ripple across limbs.
    Rng rng{2323};
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t len = 1 + rng.next_below(96);
        const std::size_t digit_bits = 1 + rng.next_below(130);
        std::vector<BigInt> d(len);
        for (BigInt& c : d) {
            const std::size_t bits = rng.next_below(2 * digit_bits + 9);
            c = rng.next_below(4) == 0 ? BigInt{}
                                       : random_below_2pow(rng, bits);
        }
        EXPECT_EQ(recompose_digits_linear(d, digit_bits),
                  recompose_digits(d, digit_bits))
            << "trial " << trial << " len " << len << " digit_bits "
            << digit_bits;
    }
    // All-ones coefficients at full width: the longest carry chains.
    for (const std::size_t digit_bits : {std::size_t{1}, std::size_t{63},
                                         std::size_t{64}, std::size_t{65}}) {
        std::vector<BigInt> d(17, BigInt::power_of_two(2 * digit_bits + 8) - 1);
        EXPECT_EQ(recompose_digits_linear(d, digit_bits),
                  recompose_digits(d, digit_bits))
            << digit_bits;
    }
    // A narrow digit under a wide all-ones neighbour: its carry ripples
    // limbs past its own top.
    for (const std::size_t digit_bits : {std::size_t{100}, std::size_t{129}}) {
        const std::vector<BigInt> d{
            BigInt::power_of_two(2 * digit_bits + 8) - 1,
            BigInt::power_of_two(7) - 1, BigInt{}, BigInt{1}};
        EXPECT_EQ(recompose_digits_linear(d, digit_bits),
                  recompose_digits(d, digit_bits))
            << digit_bits;
    }
    EXPECT_EQ(recompose_digits_linear(std::vector<BigInt>(5), 32), BigInt{});
}

TEST(Digits, LinearRecomposeChargesNothing) {
    Rng rng{7};
    std::vector<BigInt> d(64);
    for (BigInt& c : d) c = random_bits(rng, 72);
    OpsCounter::reset();
    (void)recompose_digits_linear(d, 32);
    EXPECT_EQ(OpsCounter::get(), 0u);
}

TEST(Digits, ConvolveSchoolbookKnown) {
    // (1 + 2x)(3 + 4x) = 3 + 10x + 8x^2
    std::vector<BigInt> a{1, 2}, b{3, 4};
    auto c = convolve_schoolbook(a, b);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c[0], BigInt{3});
    EXPECT_EQ(c[1], BigInt{10});
    EXPECT_EQ(c[2], BigInt{8});
}

TEST(LazyResultLen, Shapes) {
    EXPECT_EQ(lazy_result_len(2, 1, 4), 1u);
    EXPECT_EQ(lazy_result_len(2, 4, 4), 7u);
    EXPECT_EQ(lazy_result_len(2, 8, 4), 3u * 7u);
    EXPECT_EQ(lazy_result_len(3, 9, 1), 5u * 5u * 1u);
    EXPECT_EQ(lazy_result_len(3, 27, 3), 5u * 5u * 5u);
}

TEST(LazyConvolve, MatchesSchoolbookConvolutionValue) {
    // The lazy coefficient layout differs from positional, but recomposition
    // must produce the same integer as positional recomposition of the
    // schoolbook convolution.
    auto plan = ToomPlan::make(2);
    Rng rng{5};
    const std::size_t len = 8, digit_bits = 16;
    std::vector<BigInt> a(len), b(len);
    for (auto& v : a) v = BigInt{static_cast<std::int64_t>(rng.next_below(1u << 16))};
    for (auto& v : b) v = BigInt{static_cast<std::int64_t>(rng.next_below(1u << 16))};

    auto lazy = lazy_convolve(plan, a, b, 2);
    auto direct = convolve_schoolbook(a, b);
    EXPECT_EQ(lazy_recompose(plan, lazy, digit_bits, len, 2),
              recompose_digits(direct, digit_bits));
}

TEST(ToomConvolve, LeafChargeIsPinned) {
    // A leaf of a 32768-bit chaos_recovery request (k = 2 on 9 ranks): 261
    // digits of 32 bits. The charge is the cost model's F for this leaf;
    // changes to limb storage or the kernels must leave it exactly as is.
    // Base 4 is the paper benches' base, the default the one every service
    // plan runs.
    const ToomPlan& plan = ToomPlan::make(2);
    Rng rng{261};
    const std::vector<BigInt> a = random_digits(rng, 261, 32);
    const std::vector<BigInt> b = random_digits(rng, 261, 32);
    const std::vector<BigInt> want = convolve_schoolbook(a, b);
    const std::pair<std::size_t, std::uint64_t> pins[] = {
        {4, 74100}, {ParallelConfig{}.base_len, 67108}};
    for (const auto& [base_len, charge] : pins) {
        OpsCounter::reset();
        const std::vector<BigInt> out = toom_convolve(plan, a, b, base_len);
        EXPECT_EQ(OpsCounter::get(), charge) << "base " << base_len;
        EXPECT_EQ(out, want) << "base " << base_len;
    }
}

// The rule that picks ParallelConfig::base_len: the largest base whose leaf
// F does not exceed base 4's at k = 2 or 3 with 32- or 64-bit digits, summed
// over every leaf length from 33 to 1,040 digits. Each length's operands
// are drawn from Rng{length}, a's digits first.

struct LeafShape {
    int k;
    std::size_t digit_bits;
};

constexpr LeafShape kLeafShapes[] = {{2, 32}, {2, 64}, {3, 32}, {3, 64}};

void PrintTo(const LeafShape& shape, std::ostream* os) {
    *os << "k=" << shape.k << ", " << shape.digit_bits << "-bit digits";
}

/// toom_convolve's F summed over leaves of each length in @p lens.
std::uint64_t summed_leaf_charge(LeafShape shape,
                                 const std::vector<std::size_t>& lens,
                                 std::size_t base_len) {
    const ToomPlan& plan = ToomPlan::make(shape.k);
    std::uint64_t sum = 0;
    for (const std::size_t len : lens) {
        Rng rng{len};
        const std::vector<BigInt> a = random_digits(rng, len, shape.digit_bits);
        const std::vector<BigInt> b = random_digits(rng, len, shape.digit_bits);
        OpsCounter::reset();
        (void)toom_convolve(plan, a, b, base_len);
        sum += OpsCounter::get();
    }
    return sum;
}

std::vector<std::size_t> every_leaf_length() {
    std::vector<std::size_t> lens;
    for (std::size_t n = 33; n <= 1040; ++n) lens.push_back(n);
    return lens;
}

class LeafBaseAtShape : public ::testing::TestWithParam<LeafShape> {};

TEST_P(LeafBaseAtShape, DefaultDoesNotRaiseF) {
    const std::vector<std::size_t> lens = every_leaf_length();
    EXPECT_LE(summed_leaf_charge(GetParam(), lens, ParallelConfig{}.base_len),
              summed_leaf_charge(GetParam(), lens, 4));
}

INSTANTIATE_TEST_SUITE_P(EveryLeafLength, LeafBaseAtShape,
                         ::testing::ValuesIn(kLeafShapes),
                         [](const auto& info) {
                             return "K" + std::to_string(info.param.k) +
                                    "Bits" +
                                    std::to_string(info.param.digit_bits);
                         });

TEST(LeafBase, NextBaseRaisesF) {
    // The default is the largest such base: one more charges more than 4 at
    // one shape at least.
    const std::vector<std::size_t> lens = every_leaf_length();
    const std::size_t next = ParallelConfig{}.base_len + 1;
    EXPECT_TRUE(std::any_of(
        std::begin(kLeafShapes), std::end(kLeafShapes),
        [&](const LeafShape& shape) {
            return summed_leaf_charge(shape, lens, next) >
                   summed_leaf_charge(shape, lens, 4);
        }));
}

TEST(LeafBase, DefaultDoesNotRaiseFOnServiceLeaves) {
    // The leaf lengths the service's machine plans form for 8192- to
    // 32768-bit operands at k = 2 with 32-bit digits: multiples of the
    // world, 9 ranks for parallel and replication, 12 for the coded engines.
    std::vector<std::size_t> lens;
    for (std::size_t n = 72; n <= 261; n += 9) lens.push_back(n);
    for (std::size_t n = 72; n <= 264; n += 12) lens.push_back(n);
    EXPECT_LE(summed_leaf_charge({2, 32}, lens, ParallelConfig{}.base_len),
              summed_leaf_charge({2, 32}, lens, 4));
}

TEST(ToomConvolve, RejectsOperandsOfUnequalLength) {
    const ToomPlan& plan = ToomPlan::make(2);
    const std::vector<BigInt> a(9, BigInt{3}), b(8, BigInt{5});
    EXPECT_THROW((void)toom_convolve(plan, a, b, 4), std::invalid_argument);
    EXPECT_THROW((void)toom_convolve_reference(plan, b, a, 4),
                 std::invalid_argument);
}

TEST(ToomConvolve, RejectsEmptyOperands) {
    const ToomPlan& plan = ToomPlan::make(2);
    const std::vector<BigInt> none;
    EXPECT_THROW((void)toom_convolve(plan, none, none, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)toom_convolve_reference(plan, none, none, 4),
                 std::invalid_argument);
}

TEST(ToomConvolve, IntoZeroesTheTailAndRejectsShortOutput) {
    const ToomPlan& plan = ToomPlan::make(3);
    Rng rng{12};
    std::vector<BigInt> a, b;
    for (int i = 0; i < 20; ++i) a.push_back(random_signed_bits(rng, 64));
    for (int i = 0; i < 20; ++i) b.push_back(random_signed_bits(rng, 64));
    std::vector<BigInt> out(41, BigInt{7});  // one past 2 * len - 1
    toom_convolve_into(plan, a, b, 2, out);
    const std::vector<BigInt> expect = convolve_schoolbook(a, b);
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out.begin()));
    EXPECT_TRUE(out.back().is_zero());
    std::vector<BigInt> short_out(38);
    EXPECT_THROW(toom_convolve_into(plan, a, b, 2, short_out),
                 std::invalid_argument);
}

/// Operand digit: zero one time in six, else a uniform signed value of up
/// to @p bits bits, or at the top (+-(2^bits - 1)) when @p top is set.
BigInt leaf_digit(Rng& rng, std::size_t bits, bool top) {
    if (rng.next_below(6) == 0) return {};
    BigInt v = top ? BigInt::power_of_two(bits) - BigInt{1}
                   : random_below_2pow(rng, bits);
    return rng.next_below(2) == 0 ? v : -v;
}

/// Largest digit width whose all-top operands still get @p limbs-limb words
/// at this shape (0 if none does).
std::size_t top_bits_for(const ToomPlan& plan, std::size_t len,
                         std::size_t base_len, std::size_t limbs) {
    std::size_t best = 0;
    for (std::size_t bits = 1; bits <= 200; ++bits) {
        const std::vector<BigInt> v(len,
                                    BigInt::power_of_two(bits) - BigInt{1});
        if (detail::toom_convolve_word_limbs(plan, v, v, base_len) == limbs) {
            best = bits;
        }
    }
    return best;
}

TEST(ToomConvolve, MatchesReferenceCoefficientsAndCharges) {
    // The word kernel against the BigInt recursion it replaces: same
    // coefficients and the same OpsCounter tally, over random shapes and
    // digit widths in every word class, including operands at the top of
    // each class and one bit past it.
    Rng rng{1601};
    const std::size_t widths[] = {1,  8,  31, 32, 33, 48,
                                  63, 64, 65, 80, 96, 120};
    std::size_t by_limbs[4] = {0, 0, 0, 0};
    for (int trial = 0; trial < 1200; ++trial) {
        const int k = 2 + static_cast<int>(rng.next_below(4));
        const ToomPlan& plan = ToomPlan::make(k);
        const std::size_t base_len = 1 + rng.next_below(16);
        const std::size_t len = 1 + rng.next_below(trial % 4 == 0 ? 400 : 80);
        std::size_t bits = widths[rng.next_below(std::size(widths))];
        bool top = false;
        if (trial % 5 == 0) {
            // Top of the 2- or 3-limb class, or one bit past it.
            const std::size_t limbs = 2 + rng.next_below(2);
            bits = top_bits_for(plan, len, base_len, limbs);
            ASSERT_GT(bits, 0u) << "k=" << k << " len=" << len;
            bits += rng.next_below(2);
            top = true;
        }
        std::vector<BigInt> a, b;
        for (std::size_t i = 0; i < len; ++i) {
            a.push_back(leaf_digit(rng, bits, top));
            b.push_back(leaf_digit(rng, bits, top));
        }
        const std::size_t limbs =
            detail::toom_convolve_word_limbs(plan, a, b, base_len);
        ++by_limbs[limbs];

        OpsCounter::reset();
        const std::vector<BigInt> want =
            toom_convolve_reference(plan, a, b, base_len);
        const std::uint64_t want_ops = OpsCounter::get();
        OpsCounter::reset();
        const std::vector<BigInt> got = toom_convolve(plan, a, b, base_len);
        const std::uint64_t got_ops = OpsCounter::get();
        ASSERT_EQ(got, want) << "k=" << k << " len=" << len
                             << " base=" << base_len << " bits=" << bits;
        ASSERT_EQ(got_ops, want_ops) << "k=" << k << " len=" << len
                                     << " base=" << base_len
                                     << " bits=" << bits << " limbs=" << limbs;
    }
    EXPECT_GE(by_limbs[2], 200u);
    EXPECT_GE(by_limbs[3], 200u);
    EXPECT_GE(by_limbs[0], 100u);
}

TEST(LazyMultiply, MatchesSchoolbookSmall) {
    auto plan = ToomPlan::make(2);
    LazyOptions opts;
    opts.digit_bits = 8;
    opts.base_len = 1;
    EXPECT_EQ(toom_multiply_lazy(BigInt{1234567}, BigInt{7654321}, plan, opts),
              BigInt{1234567} * BigInt{7654321});
    EXPECT_EQ(toom_multiply_lazy(BigInt{-1234567}, BigInt{7654321}, plan, opts),
              BigInt{-1234567} * BigInt{7654321});
    EXPECT_EQ(toom_multiply_lazy(BigInt{}, BigInt{7}, plan, opts), BigInt{});
}

struct LazyCase {
    int k;
    std::size_t bits;
    std::size_t digit_bits;
    std::size_t base_len;
};

class LazySweep : public ::testing::TestWithParam<LazyCase> {};

TEST_P(LazySweep, MatchesSchoolbook) {
    const auto [k, bits, digit_bits, base_len] = GetParam();
    auto plan = ToomPlan::make(k);
    LazyOptions opts;
    opts.digit_bits = digit_bits;
    opts.base_len = base_len;
    Rng rng{static_cast<std::uint64_t>(k) * 99 + bits};
    for (int i = 0; i < 2; ++i) {
        BigInt a = random_signed_bits(rng, bits - rng.next_below(bits / 3));
        BigInt b = random_signed_bits(rng, bits - rng.next_below(bits / 2));
        EXPECT_EQ(toom_multiply_lazy(a, b, plan, opts), a * b)
            << "k=" << k << " bits=" << bits;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LazySweep,
    ::testing::Values(LazyCase{2, 1024, 32, 1}, LazyCase{2, 4096, 64, 2},
                      LazyCase{2, 20000, 256, 4}, LazyCase{3, 2048, 32, 2},
                      LazyCase{3, 9000, 128, 3}, LazyCase{3, 30000, 512, 3},
                      LazyCase{4, 8192, 128, 4}, LazyCase{5, 10000, 256, 5}));

TEST(LazyMultiply, DeepRecursionScalarBase) {
    // base_len=1 recurses to scalars exactly as the paper's Algorithm 2.
    auto plan = ToomPlan::make(2);
    LazyOptions opts;
    opts.digit_bits = 16;
    opts.base_len = 1;
    Rng rng{77};
    BigInt a = random_bits(rng, 16 * 64);  // 64 digits -> l = 6
    BigInt b = random_bits(rng, 16 * 64);
    EXPECT_EQ(toom_multiply_lazy(a, b, plan, opts), a * b);
}

TEST(LazyMultiply, AgreesWithAlgorithm1) {
    auto plan = ToomPlan::make(3);
    Rng rng{9};
    BigInt a = random_bits(rng, 12345);
    BigInt b = random_bits(rng, 11111);
    ToomOptions seq_opts;
    seq_opts.threshold_bits = 512;
    LazyOptions lazy_opts;
    lazy_opts.digit_bits = 128;
    lazy_opts.base_len = 3;
    EXPECT_EQ(toom_multiply(a, b, plan, seq_opts),
              toom_multiply_lazy(a, b, plan, lazy_opts));
}

}  // namespace
}  // namespace ftmul
