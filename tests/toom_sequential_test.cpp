#include "toom/sequential.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bigint/limb_ops.hpp"
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
                      SeqCase{6, 7000}, SeqCase{7, 11000}, SeqCase{8, 8000},
                      SeqCase{2, 100000}));

TEST(ToomSequential, DeepRecursionAgreesAcrossK) {
    // 2^20-bit operands recurse nine levels of Toom-2 below the default
    // cutoff (six of Toom-3, five of Toom-4), so every level's workspace is
    // taken and released deep in the stack. The three products must agree,
    // and match the operands' residues modulo the prime 2^61 - 1.
    Rng rng{2020};
    const BigInt a = random_signed_bits(rng, 1 << 20);
    const BigInt b = random_signed_bits(rng, (1 << 20) - 77);
    const BigInt p2 = toom_multiply(a, b, ToomPlan::make(2));
    EXPECT_EQ(toom_multiply(a, b, ToomPlan::make(3)), p2);
    EXPECT_EQ(toom_multiply(a, b, ToomPlan::make(4)), p2);
    const BigInt m = BigInt::power_of_two(61) - BigInt{1};
    EXPECT_EQ(BigInt::mod_floor(p2, m),
              BigInt::mod_floor(
                  BigInt::mod_floor(a, m) * BigInt::mod_floor(b, m), m));
}

struct LopsidedCase {
    int k;
    std::size_t bits_a;
    std::size_t bits_b;
};

void PrintTo(const LopsidedCase& c, std::ostream* os) {
    *os << "k=" << c.k << ", " << c.bits_a << " x " << c.bits_b << " bits";
}

class ToomLopsidedSweep : public ::testing::TestWithParam<LopsidedCase> {};

TEST_P(ToomLopsidedSweep, MatchesSchoolbook) {
    // Operands of unequal length, either one the longer: the split follows
    // the longer operand, so the shorter one's high digits are zero.
    const auto [k, bits_a, bits_b] = GetParam();
    auto plan = ToomPlan::make(k);
    ToomOptions opts;
    opts.threshold_bits = 256;
    Rng rng{static_cast<std::uint64_t>(k) * 100000 + bits_a + bits_b};
    for (int i = 0; i < 3; ++i) {
        BigInt a = random_signed_bits(rng, bits_a + rng.next_below(99));
        BigInt b = random_signed_bits(rng, bits_b + rng.next_below(99));
        EXPECT_EQ(toom_multiply(a, b, plan, opts), a * b)
            << "k=" << k << " bits=" << bits_a << "x" << bits_b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ToomLopsidedSweep,
    ::testing::Values(LopsidedCase{2, 6000, 4000}, LopsidedCase{3, 6000, 4000},
                      LopsidedCase{4, 8000, 4000}, LopsidedCase{4, 8000, 6000},
                      LopsidedCase{5, 10000, 4000}, LopsidedCase{2, 4000, 6000},
                      LopsidedCase{5, 9000, 7000},
                      LopsidedCase{3, 20000, 900}),
    [](const auto& info) {
        std::string name = "K";  // appends: GCC 12 -Wrestrict
        name += std::to_string(info.param.k);
        name += "A";
        name += std::to_string(info.param.bits_a);
        name += "B";
        name += std::to_string(info.param.bits_b);
        return name;
    });

TEST(ToomSequential, VeryLopsidedOperands) {
    // A multiplier of one limb, of 64 bits and of 1500 bits against
    // 100 kbit, in both orders: all but the lowest digits of the short
    // operand are zero at every level.
    Rng rng{77};
    const BigInt big = random_signed_bits(rng, 100000);
    const BigInt smalls[] = {BigInt{-3}, random_bits(rng, 64),
                             random_signed_bits(rng, 1500)};
    for (int k : {2, 3, 4}) {
        auto plan = ToomPlan::make(k);
        ToomOptions opts;
        opts.threshold_bits = 512;
        for (const BigInt& s : smalls) {
            const BigInt expect = big * s;
            EXPECT_EQ(toom_multiply(big, s, plan, opts), expect) << "k=" << k;
            EXPECT_EQ(toom_multiply(s, big, plan, opts), expect) << "k=" << k;
        }
    }
}

class ToomSquareSweep : public ::testing::TestWithParam<int> {};

TEST_P(ToomSquareSweep, AliasedOperandsMatchSchoolbook) {
    // A square passes one object as both operands: both evaluations read
    // the same limbs while the product is built elsewhere.
    const int k = GetParam();
    auto plan = ToomPlan::make(k);
    ToomOptions opts;
    opts.threshold_bits = 256;
    Rng rng{static_cast<std::uint64_t>(31 + k)};
    for (std::size_t bits : {std::size_t{2000}, std::size_t{9000}}) {
        const BigInt a = random_signed_bits(rng, bits);
        EXPECT_EQ(toom_multiply(a, a, plan, opts), a * a)
            << "k=" << k << " bits=" << bits;
    }
}

INSTANTIATE_TEST_SUITE_P(K, ToomSquareSweep, ::testing::Range(2, 9));

TEST(ToomSequential, SquareEdgeValues) {
    auto plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 64;
    auto square = [&](const BigInt& x) { return toom_multiply(x, x, plan, opts); };
    EXPECT_EQ(square(BigInt{}), BigInt{});
    EXPECT_EQ(square(BigInt{-5}), BigInt{25});
    const BigInt p = BigInt::power_of_two(5000);
    EXPECT_EQ(square(p), BigInt::power_of_two(10000));
    EXPECT_EQ(square(-p), BigInt::power_of_two(10000));
    // (2^5000 - 1)^2 = 2^10000 - 2^5001 + 1.
    EXPECT_EQ(square(p - BigInt{1}), BigInt::power_of_two(10000) -
                                         BigInt::power_of_two(5001) + BigInt{1});
}

/// Operands whose digits are far from random: all-ones and single-bit
/// values, long zero runs, alternating full and empty limbs, and small
/// coefficients in wide slots (a packed polynomial). Their evaluations hit
/// zero digits and exact cancellations that random operands rarely do.
BigInt structured_operand(int pattern, std::size_t bits, Rng& rng) {
    const BigInt one{1};
    switch (pattern) {
    case 0:
        return BigInt::power_of_two(bits) - one;
    case 1:
        return BigInt::power_of_two(bits - 1) + one;
    case 2: {
        BigInt x;
        for (int i = 0; i < 12; ++i) x += BigInt::power_of_two(rng.next_below(bits));
        return x;
    }
    case 3:
        return random_bits(rng, bits / 4) << (bits - bits / 4);
    case 4: {
        const BigInt limb = BigInt::power_of_two(64) - one;
        BigInt x;
        for (std::size_t at = 0; at + 64 <= bits; at += 128) x += limb << at;
        return x;
    }
    case 5: {
        BigInt x;
        for (std::size_t at = 0; at + 40 <= bits; at += 40) {
            x += random_bits(rng, 12) << at;
        }
        return x;
    }
    case 6:
        return BigInt::power_of_two(bits - 7) - BigInt::power_of_two(bits / 3);
    default:
        return BigInt::power_of_two(bits) - BigInt::power_of_two(bits / 2) +
               random_bits(rng, bits / 2);
    }
}

class StructuredOperandSweep : public ::testing::TestWithParam<int> {};

TEST_P(StructuredOperandSweep, MatchesSchoolbook) {
    const int pattern = GetParam();
    Rng rng{static_cast<std::uint64_t>(pattern) + 400};
    const BigInt a = structured_operand(pattern, 9000, rng);
    const BigInt b = structured_operand(pattern, 6100, rng);
    const BigInt r = random_signed_bits(rng, 7000);
    for (int k : {2, 3, 4}) {
        auto plan = ToomPlan::make(k);
        ToomOptions opts;
        opts.threshold_bits = 256;
        EXPECT_EQ(toom_multiply(a, b, plan, opts), a * b) << "k=" << k;
        EXPECT_EQ(toom_multiply(-a, b, plan, opts), -(a * b)) << "k=" << k;
        EXPECT_EQ(toom_multiply(a, a, plan, opts), a * a) << "k=" << k;
        EXPECT_EQ(toom_multiply(r, b, plan, opts), r * b) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Patterns, StructuredOperandSweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Toom as a kernel: long chains of dependent products, each one's result
// the next one's operand, on the thread's reused workspace.
// ---------------------------------------------------------------------------

class ToomDivisionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ToomDivisionSweep, QuotientTimesDivisorRebuildsDividend) {
    // Long division at 10-40 kbit checked by a Toom product: a = q b + r
    // with |r| < |b| and r carrying a's sign (truncating semantics).
    Rng rng{GetParam()};
    const BigInt a = random_signed_bits(rng, 10000 + rng.next_below(30000));
    const BigInt b = random_signed_bits(rng, 3000 + rng.next_below(9000));
    auto plan = ToomPlan::make(2 + static_cast<int>(GetParam() % 3));
    ToomOptions opts;
    opts.threshold_bits = 1024;
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(toom_multiply(q, b, plan, opts) + r, a);
    EXPECT_LT(r.abs(), b.abs());
    EXPECT_TRUE(r.is_zero() || r.sign() == a.sign());
    // The exact multiple divides back with no remainder.
    BigInt q2, r2;
    BigInt::divmod(toom_multiply(q, b, plan, opts), b, q2, r2);
    EXPECT_EQ(q2, q);
    EXPECT_TRUE(r2.is_zero());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ToomDivisionSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ToomSequential, ProductTreeOfFactorialAgrees) {
    // 300! as a balanced product tree of Toom products, against a running
    // schoolbook product and the known value of 50!.
    auto plan = ToomPlan::make(2);
    ToomOptions opts;
    opts.threshold_bits = 512;
    auto tree = [&](std::uint64_t n) {
        std::vector<BigInt> level;
        for (std::uint64_t i = 1; i <= n; ++i) {
            level.emplace_back(static_cast<std::int64_t>(i));
        }
        while (level.size() > 1) {
            std::vector<BigInt> next;
            for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
                next.push_back(toom_multiply(level[i], level[i + 1], plan, opts));
            }
            if (level.size() % 2 == 1) next.push_back(level.back());
            level = std::move(next);
        }
        return level.front();
    };
    EXPECT_EQ(tree(50),
              BigInt::from_decimal("3041409320171337804361260816606476884437"
                                   "7641568960512000000000000"));
    BigInt running{1};
    for (std::int64_t i = 2; i <= 300; ++i) running *= BigInt{i};
    EXPECT_EQ(tree(300), running);
}

/// x^e mod m by left-to-right square-and-multiply, every product through
/// @p mul.
template <typename Mul>
BigInt power_mod(const BigInt& x, const BigInt& e, const BigInt& m, Mul mul) {
    BigInt acc{1};
    const BigInt base = BigInt::mod_floor(x, m);
    for (std::size_t i = e.bit_length(); i-- > 0;) {
        acc = BigInt::mod_floor(mul(acc, acc), m);
        if (detail::get_bit(e.magnitude(), i)) {
            acc = BigInt::mod_floor(mul(acc, base), m);
        }
    }
    return acc;
}

class ToomPowerModSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ToomPowerModSweep, MatchesSchoolbookChain) {
    // A 48-bit exponent's chain of about 70 dependent modular products at
    // moduli of 125 to 1000 bits, across the cutoff of 256 bits.
    Rng rng{GetParam() * 31 + 7};
    const std::size_t bits = 64 + GetParam() * 117;
    const BigInt m = random_bits(rng, bits) + BigInt::power_of_two(bits);
    const BigInt x = random_signed_bits(rng, bits + 40);
    const BigInt e = random_bits(rng, 48);
    auto plan = ToomPlan::make(2 + static_cast<int>(GetParam() % 3));
    ToomOptions opts;
    opts.threshold_bits = 256;
    const BigInt via_toom = power_mod(x, e, m, [&](const BigInt& u, const BigInt& v) {
        return toom_multiply(u, v, plan, opts);
    });
    const BigInt via_school =
        power_mod(x, e, m, [](const BigInt& u, const BigInt& v) { return u * v; });
    EXPECT_EQ(via_toom, via_school);
}

INSTANTIATE_TEST_SUITE_P(Widths, ToomPowerModSweep,
                         ::testing::Range<std::size_t>(1, 9));

class ToomFermatSweep : public ::testing::TestWithParam<int> {};

TEST_P(ToomFermatSweep, MersennePrimesSatisfyFermat) {
    // For the Mersenne prime p = 2^q - 1, a^(p-1) = 1 (mod p): a chain of
    // q - 1 Toom squarings and multiplies that any wrong digit breaks.
    const int q = GetParam();
    const BigInt p = BigInt::power_of_two(static_cast<std::size_t>(q)) - BigInt{1};
    auto plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 128;
    auto toom = [&](const BigInt& u, const BigInt& v) {
        return toom_multiply(u, v, plan, opts);
    };
    for (std::int64_t a : {2, 3, 31337}) {
        EXPECT_EQ(power_mod(BigInt{a}, p - BigInt{1}, p, toom), BigInt{1})
            << "a=" << a << " q=" << q;
    }
    // A composite exponent's 2^q - 1 is not prime; for q = 11, 2^11 - 1 =
    // 23 * 89, and 3 is not a Fermat liar there.
    const BigInt c = BigInt::power_of_two(11) - BigInt{1};
    EXPECT_NE(power_mod(BigInt{3}, c - BigInt{1}, c, toom), BigInt{1});
}

INSTANTIATE_TEST_SUITE_P(Exponents, ToomFermatSweep,
                         ::testing::Values(61, 89, 107, 127, 521, 607));

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
