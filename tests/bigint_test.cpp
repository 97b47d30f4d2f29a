#include "bigint/bigint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bigint/limb_ops.hpp"
#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "bigint/serialize.hpp"

namespace ftmul {
namespace {

TEST(BigInt, DefaultIsZero) {
    BigInt z;
    EXPECT_TRUE(z.is_zero());
    EXPECT_EQ(z.sign(), 0);
    EXPECT_EQ(z.bit_length(), 0u);
    EXPECT_EQ(z.to_decimal(), "0");
}

TEST(BigInt, Int64Construction) {
    EXPECT_EQ(BigInt{42}.to_decimal(), "42");
    EXPECT_EQ(BigInt{-42}.to_decimal(), "-42");
    EXPECT_EQ(BigInt{INT64_MAX}.to_decimal(), "9223372036854775807");
    EXPECT_EQ(BigInt{INT64_MIN}.to_decimal(), "-9223372036854775808");
}

TEST(BigInt, Int64RoundTrip) {
    for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                           std::int64_t{123456789}, INT64_MAX, INT64_MIN}) {
        BigInt b{v};
        ASSERT_TRUE(b.fits_int64());
        EXPECT_EQ(b.to_int64(), v);
    }
}

TEST(BigInt, FitsInt64Boundaries) {
    EXPECT_TRUE(BigInt{INT64_MAX}.fits_int64());
    EXPECT_TRUE(BigInt{INT64_MIN}.fits_int64());
    EXPECT_FALSE((BigInt{INT64_MAX} + BigInt{1}).fits_int64());
    EXPECT_FALSE((BigInt{INT64_MIN} - BigInt{1}).fits_int64());
    EXPECT_FALSE(BigInt{INT64_MIN}.abs().fits_int64());
}

TEST(BigInt, PowerOfTwo) {
    EXPECT_EQ(BigInt::power_of_two(0), BigInt{1});
    EXPECT_EQ(BigInt::power_of_two(10), BigInt{1024});
    EXPECT_EQ(BigInt::power_of_two(64).bit_length(), 65u);
    EXPECT_EQ(BigInt::power_of_two(64).to_hex(), "10000000000000000");
}

TEST(BigInt, AdditionBasics) {
    EXPECT_EQ(BigInt{2} + BigInt{3}, BigInt{5});
    EXPECT_EQ(BigInt{-2} + BigInt{3}, BigInt{1});
    EXPECT_EQ(BigInt{2} + BigInt{-3}, BigInt{-1});
    EXPECT_EQ(BigInt{-2} + BigInt{-3}, BigInt{-5});
    EXPECT_EQ(BigInt{5} + BigInt{-5}, BigInt{});
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
    BigInt a = BigInt::power_of_two(64) - BigInt{1};
    EXPECT_EQ(a + BigInt{1}, BigInt::power_of_two(64));
    BigInt b = BigInt::power_of_two(256) - BigInt{1};
    EXPECT_EQ((b + b) + BigInt{2}, BigInt::power_of_two(257));
}

TEST(BigInt, SubtractionBorrow) {
    BigInt a = BigInt::power_of_two(128);
    EXPECT_EQ(a - BigInt{1}, BigInt::from_hex(std::string(32, 'f')));
}

TEST(BigInt, MultiplicationBasics) {
    EXPECT_EQ(BigInt{6} * BigInt{7}, BigInt{42});
    EXPECT_EQ(BigInt{-6} * BigInt{7}, BigInt{-42});
    EXPECT_EQ(BigInt{-6} * BigInt{-7}, BigInt{42});
    EXPECT_EQ(BigInt{0} * BigInt{7}, BigInt{});
}

TEST(BigInt, MultiplicationKnownValue) {
    // 2^64 * 2^64 = 2^128
    BigInt p = BigInt::power_of_two(64) * BigInt::power_of_two(64);
    EXPECT_EQ(p, BigInt::power_of_two(128));
    // (10^20)^2 = 10^40
    BigInt t = BigInt::from_decimal("100000000000000000000");
    EXPECT_EQ((t * t).to_decimal(),
              "10000000000000000000000000000000000000000");
}

TEST(BigInt, ShiftRoundTrip) {
    Rng rng{7};
    BigInt a = random_bits(rng, 300);
    for (std::size_t s : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, std::size_t{200}}) {
        EXPECT_EQ((a << s) >> s, a) << "shift " << s;
        EXPECT_EQ(a << s, a * BigInt::power_of_two(s));
    }
}

TEST(BigInt, ShiftRightDiscards) {
    EXPECT_EQ(BigInt{5} >> 1, BigInt{2});
    EXPECT_EQ(BigInt{5} >> 10, BigInt{});
}

TEST(BigInt, CompareTotalOrder) {
    EXPECT_LT(BigInt{-3}, BigInt{-2});
    EXPECT_LT(BigInt{-2}, BigInt{0});
    EXPECT_LT(BigInt{0}, BigInt{1});
    EXPECT_LT(BigInt{1}, BigInt::power_of_two(100));
    EXPECT_LT(-BigInt::power_of_two(100), BigInt{-1});
}

TEST(BigInt, DivmodSemanticsSigns) {
    // C++ truncating semantics: remainder carries dividend sign.
    BigInt q, r;
    BigInt::divmod(BigInt{7}, BigInt{3}, q, r);
    EXPECT_EQ(q, BigInt{2});
    EXPECT_EQ(r, BigInt{1});
    BigInt::divmod(BigInt{-7}, BigInt{3}, q, r);
    EXPECT_EQ(q, BigInt{-2});
    EXPECT_EQ(r, BigInt{-1});
    BigInt::divmod(BigInt{7}, BigInt{-3}, q, r);
    EXPECT_EQ(q, BigInt{-2});
    EXPECT_EQ(r, BigInt{1});
    BigInt::divmod(BigInt{-7}, BigInt{-3}, q, r);
    EXPECT_EQ(q, BigInt{2});
    EXPECT_EQ(r, BigInt{-1});
}

TEST(BigInt, DivisionByZeroThrows) {
    BigInt q, r;
    EXPECT_THROW(BigInt::divmod(BigInt{1}, BigInt{}, q, r), std::domain_error);
}

TEST(BigInt, ModFloorNonNegative) {
    EXPECT_EQ(BigInt::mod_floor(BigInt{-7}, BigInt{3}), BigInt{2});
    EXPECT_EQ(BigInt::mod_floor(BigInt{7}, BigInt{3}), BigInt{1});
    EXPECT_EQ(BigInt::mod_floor(BigInt{-9}, BigInt{3}), BigInt{0});
}

TEST(BigInt, DivexactExact) {
    BigInt a = BigInt::from_decimal("123456789123456789123456789");
    BigInt b = BigInt::from_decimal("987654321987");
    EXPECT_EQ((a * b).divexact(b), a);
    EXPECT_EQ((a * b).divexact(-b), -a);
}

TEST(BigInt, Gcd) {
    EXPECT_EQ(BigInt::gcd(BigInt{12}, BigInt{18}), BigInt{6});
    EXPECT_EQ(BigInt::gcd(BigInt{-12}, BigInt{18}), BigInt{6});
    EXPECT_EQ(BigInt::gcd(BigInt{}, BigInt{5}), BigInt{5});
    EXPECT_EQ(BigInt::gcd(BigInt{}, BigInt{}), BigInt{});
    EXPECT_EQ(BigInt::gcd(BigInt{17}, BigInt{13}), BigInt{1});
}

TEST(BigInt, Pow) {
    EXPECT_EQ(BigInt{2}.pow(10), BigInt{1024});
    EXPECT_EQ(BigInt{3}.pow(0), BigInt{1});
    EXPECT_EQ(BigInt{-2}.pow(3), BigInt{-8});
    EXPECT_EQ(BigInt{-2}.pow(4), BigInt{16});
    EXPECT_EQ(BigInt{10}.pow(30).to_decimal(),
              "1000000000000000000000000000000");
}

TEST(BigInt, ExtractBits) {
    BigInt v = BigInt::from_hex("abcdef0123456789abcdef");
    // Low 8 bits.
    EXPECT_EQ(v.extract_bits(0, 8), BigInt{0xef});
    // Bits spanning limb boundary.
    BigInt big = BigInt::power_of_two(100) + BigInt{5};
    EXPECT_EQ(big.extract_bits(0, 64), BigInt{5});
    EXPECT_EQ(big.extract_bits(100, 1), BigInt{1});
    EXPECT_EQ(big.extract_bits(101, 64), BigInt{});
}

TEST(BigInt, ExtractBitsRecomposition) {
    Rng rng{99};
    const std::size_t digit_bits = 48;
    BigInt v = random_bits(rng, 48 * 7 - 5);
    BigInt rebuilt;
    for (std::size_t i = 0; i < 8; ++i) {
        rebuilt += v.extract_bits(i * digit_bits, digit_bits) << (i * digit_bits);
    }
    EXPECT_EQ(rebuilt, v);
}

TEST(BigInt, AddScaled) {
    BigInt acc{10};
    add_scaled(acc, BigInt{3}, 4);
    EXPECT_EQ(acc, BigInt{22});
    add_scaled(acc, BigInt{3}, -4);
    EXPECT_EQ(acc, BigInt{10});
    add_scaled(acc, BigInt{3}, 0);
    EXPECT_EQ(acc, BigInt{10});
    add_scaled(acc, BigInt{3}, 1);
    EXPECT_EQ(acc, BigInt{13});
    add_scaled(acc, BigInt{3}, -1);
    EXPECT_EQ(acc, BigInt{10});
}

TEST(BigInt, AddScaledMatchesReferenceAcrossSigns) {
    // The fused in-place path must agree with acc + x*c for every sign
    // combination and magnitude mix, including INT64_MIN.
    Rng rng{55};
    for (int i = 0; i < 200; ++i) {
        BigInt acc = random_signed_bits(rng, 1 + rng.next_below(200));
        if (rng.next_below(5) == 0) acc = BigInt{};
        BigInt x = random_signed_bits(rng, 1 + rng.next_below(200));
        std::int64_t c;
        switch (rng.next_below(6)) {
            case 0: c = 0; break;
            case 1: c = 1; break;
            case 2: c = -1; break;
            case 3: c = INT64_MIN; break;
            case 4: c = INT64_MAX; break;
            default:
                c = static_cast<std::int64_t>(rng.next_u64() >> 20) -
                    (1ll << 43);
        }
        const BigInt expect = acc + x * BigInt{c};
        add_scaled(acc, x, c);
        EXPECT_EQ(acc, expect) << "i=" << i << " c=" << c;
    }
}

TEST(BigInt, OpsCounterCountsWork) {
    OpsCounter::reset();
    Rng rng{1};
    BigInt a = random_bits(rng, 64 * 100);
    BigInt b = random_bits(rng, 64 * 100);
    OpsCounter::reset();
    BigInt c = a * b;
    // Schoolbook 100x100 limbs: about 10^4 limb multiplications.
    EXPECT_GE(OpsCounter::get(), 10000u);
    EXPECT_LE(OpsCounter::get(), 20000u);
    (void)c;
}

TEST(BigInt, SerializeRoundTrip) {
    Rng rng{5};
    std::vector<BigInt> values{BigInt{}, BigInt{1}, BigInt{-1},
                               random_bits(rng, 500),
                               -random_bits(rng, 129)};
    auto words = serialize_vec(values);
    auto back = deserialize_vec(words);
    ASSERT_EQ(back.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(back[i], values[i]) << "index " << i;
    }
}

TEST(BigInt, SerializeTruncatedThrows) {
    std::vector<BigInt> values{BigInt{12345}};
    auto words = serialize_vec(values);
    words.pop_back();
    EXPECT_THROW(deserialize_vec(words), std::runtime_error);

    constexpr std::uint64_t kMax = UINT64_MAX;
    const std::vector<std::vector<std::uint64_t>> malformed{
        {1, 1, kMax},         // limb count wraps pos + n
        {kMax, 1, 1, 42},     // value count the buffer cannot hold
        {1, 5, 1, 42},        // sign word outside {-1, 0, 1}
        {1, 0, 1, 42},        // zero sign with a nonzero magnitude
    };
    for (const auto& frame : malformed) {
        EXPECT_THROW(deserialize_vec(frame), std::runtime_error)
            << frame[0] << " " << frame[1] << " " << frame[2];
    }
    // The zero-copy path checks the sign word too.
    std::vector<std::uint64_t> adoptable(3 + kAdoptMinWords, 1);
    adoptable[2] = kAdoptMinWords;
    ASSERT_TRUE(adoptable_frame(adoptable));
    adoptable[1] = 5;
    EXPECT_THROW(deserialize_vec_adopt(std::move(adoptable)), std::runtime_error);
}

TEST(BigInt, AdoptKeepsFrameStorage) {
    Rng rng{kAdoptMinWords};
    const BigInt v = -random_bits(rng, 64 * kAdoptMinWords);
    std::vector<std::uint64_t> frame = serialize_vec(std::vector<BigInt>{v});
    ASSERT_TRUE(adoptable_frame(frame));
    const std::uint64_t* storage = frame.data();
    const std::vector<BigInt> out = deserialize_vec_adopt(std::move(frame));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], v);
    EXPECT_EQ(out[0].magnitude().data(), storage);
}

// ---------------------------------------------------------------------------
// Property sweeps: algebraic identities on random operands of varied widths.
// ---------------------------------------------------------------------------

class BigIntPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BigIntPropertyTest, AddSubRoundTrip) {
    Rng rng{GetParam()};
    const std::size_t bits = 16 + GetParam() * 37;
    for (int i = 0; i < 20; ++i) {
        BigInt a = random_signed_bits(rng, bits);
        BigInt b = random_signed_bits(rng, bits / 2 + 1);
        EXPECT_EQ((a + b) - b, a);
        EXPECT_EQ((a - b) + b, a);
        EXPECT_EQ(a + b, b + a);
    }
}

TEST_P(BigIntPropertyTest, MulDistributesOverAdd) {
    Rng rng{GetParam() * 31 + 1};
    const std::size_t bits = 16 + GetParam() * 41;
    for (int i = 0; i < 10; ++i) {
        BigInt a = random_signed_bits(rng, bits);
        BigInt b = random_signed_bits(rng, bits);
        BigInt c = random_signed_bits(rng, bits / 3 + 1);
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a * b, b * a);
    }
}

TEST_P(BigIntPropertyTest, DivmodInvariant) {
    Rng rng{GetParam() * 17 + 3};
    const std::size_t bits = 64 + GetParam() * 53;
    for (int i = 0; i < 20; ++i) {
        BigInt a = random_signed_bits(rng, bits);
        BigInt b = random_signed_bits(rng, 1 + rng.next_below(bits));
        if (b.is_zero()) continue;
        BigInt q, r;
        BigInt::divmod(a, b, q, r);
        EXPECT_EQ(q * b + r, a);
        EXPECT_LT(r.abs(), b.abs());
        if (!r.is_zero()) {
            EXPECT_EQ(r.sign(), a.sign());
        }
    }
}

TEST_P(BigIntPropertyTest, MulDivRoundTrip) {
    Rng rng{GetParam() * 13 + 7};
    const std::size_t bits = 32 + GetParam() * 61;
    for (int i = 0; i < 10; ++i) {
        BigInt a = random_signed_bits(rng, bits);
        BigInt b = random_signed_bits(rng, bits / 2 + 1);
        if (b.is_zero()) continue;
        EXPECT_EQ((a * b) / b, a);
        EXPECT_EQ((a * b) % b, BigInt{});
    }
}

TEST_P(BigIntPropertyTest, DecimalRoundTrip) {
    Rng rng{GetParam() * 11 + 5};
    const std::size_t bits = 8 + GetParam() * 71;
    for (int i = 0; i < 5; ++i) {
        BigInt a = random_signed_bits(rng, bits);
        EXPECT_EQ(BigInt::from_decimal(a.to_decimal()), a);
        EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
    }
}

TEST_P(BigIntPropertyTest, GcdDividesBoth) {
    Rng rng{GetParam() * 23 + 11};
    const std::size_t bits = 8 + GetParam() * 29;
    for (int i = 0; i < 5; ++i) {
        BigInt a = random_signed_bits(rng, bits);
        BigInt b = random_signed_bits(rng, bits);
        BigInt g = BigInt::gcd(a, b);
        if (g.is_zero()) {
            EXPECT_TRUE(a.is_zero());
            EXPECT_TRUE(b.is_zero());
            continue;
        }
        EXPECT_EQ(a % g, BigInt{});
        EXPECT_EQ(b % g, BigInt{});
    }
}

INSTANTIATE_TEST_SUITE_P(WidthSweep, BigIntPropertyTest,
                         ::testing::Range<std::size_t>(1, 13));

// Targeted regression inputs for Knuth Algorithm D's rare branches.
TEST(BigIntDivision, AddBackBranch) {
    // Classic add-back trigger family: u = B^4 - 1 over v = B^2 + B - 1 style
    // values (top limbs all-ones).
    BigInt u = BigInt::power_of_two(256) - BigInt{1};
    BigInt v = BigInt::power_of_two(128) + BigInt::power_of_two(64) - BigInt{1};
    BigInt q, r;
    BigInt::divmod(u, v, q, r);
    EXPECT_EQ(q * v + r, u);
    EXPECT_LT(r, v);
}

TEST(BigIntDivision, QhatOverflowBranch) {
    // Dividend top limb equal to divisor top limb forces the qhat cap.
    BigInt v = (BigInt::power_of_two(127) + BigInt{12345});
    BigInt u = (v << 64) + (v << 1);
    BigInt q, r;
    BigInt::divmod(u, v, q, r);
    EXPECT_EQ(q * v + r, u);
    EXPECT_LT(r, v);
}

TEST(BigIntDivision, ExhaustiveSmallCross) {
    for (std::int64_t a = -40; a <= 40; ++a) {
        for (std::int64_t b = -7; b <= 7; ++b) {
            if (b == 0) continue;
            BigInt q, r;
            BigInt::divmod(BigInt{a}, BigInt{b}, q, r);
            EXPECT_EQ(q.to_int64(), a / b) << a << "/" << b;
            EXPECT_EQ(r.to_int64(), a % b) << a << "%" << b;
        }
    }
}


// The optimized limb kernels (asm carry chains, ADX multiply rows, cache
// blocking) against the pre-optimization reference implementations kept in
// limb_ops.cpp. Sizes straddle every dispatch boundary: the 4-limb asm
// block, the addmul_4 minimum-row gate, and odd tails.
TEST(LimbKernels, RandomizedDifferentialAgainstReference) {
    Rng rng{20240806};
    const std::size_t sizes[] = {1, 2, 3, 4, 5, 7, 8, 31, 64,
                                 127, 128, 129, 200, 513};
    auto rand_limbs = [&](std::size_t n) {
        detail::Limbs v(n);
        for (auto& x : v) x = rng.next_u64();
        v.back() |= 1ull << 63;
        return v;
    };
    for (std::size_t an : sizes) {
        for (std::size_t bn : sizes) {
            const detail::Limbs a = rand_limbs(an);
            const detail::Limbs b = rand_limbs(bn);
            EXPECT_EQ(detail::add(a, b), detail::add_reference(a, b))
                << an << "+" << bn;
            const detail::Limbs& big = detail::cmp(a, b) >= 0 ? a : b;
            const detail::Limbs& sml = detail::cmp(a, b) >= 0 ? b : a;
            EXPECT_EQ(detail::sub(big, sml), detail::sub_reference(big, sml))
                << an << "-" << bn;
            if (an * bn <= 200 * 200) {
                EXPECT_EQ(detail::mul(a, b), detail::mul_reference(a, b))
                    << an << "*" << bn;
            }
        }
    }
    // A multiply large enough to hit the cache-blocking and min-row gates.
    const detail::Limbs a = rand_limbs(300);
    const detail::Limbs b = rand_limbs(300);
    EXPECT_EQ(detail::mul(a, b), detail::mul_reference(a, b));
}

TEST(LimbKernels, InPlaceVariantsMatchOutOfPlace) {
    Rng rng{987654321};
    auto rand_limbs = [&](std::size_t n) {
        detail::Limbs v(n);
        for (auto& x : v) x = rng.next_u64();
        v.back() |= 1ull << 63;
        return v;
    };
    const std::size_t sizes[] = {1, 3, 4, 5, 17, 64, 129, 257};
    for (std::size_t an : sizes) {
        for (std::size_t bn : sizes) {
            const detail::Limbs a = rand_limbs(an);
            const detail::Limbs b = rand_limbs(bn);

            detail::Limbs acc = a;
            detail::add_into(acc, b);
            EXPECT_EQ(acc, detail::add_reference(a, b)) << an << " " << bn;

            const detail::Limbs& big = detail::cmp(a, b) >= 0 ? a : b;
            const detail::Limbs& sml = detail::cmp(a, b) >= 0 ? b : a;
            acc = big;
            detail::sub_into(acc, sml);
            EXPECT_EQ(acc, detail::sub_reference(big, sml)) << an << " " << bn;

            // rsub_into: acc = b - acc, with acc <= b.
            acc = sml;
            detail::rsub_into(acc, big.data(), big.size());
            EXPECT_EQ(acc, detail::sub_reference(big, sml)) << an << " " << bn;

            detail::Limbs out;
            detail::mul_into(out, a, b);
            EXPECT_EQ(out, detail::mul_reference(a, b)) << an << " " << bn;

            // addmul_small against mul_small + add.
            const std::uint64_t m = rng.next_u64();
            acc = a;
            detail::addmul_small(acc, b, m);
            EXPECT_EQ(acc, detail::add_reference(a, detail::mul_small(b, m)))
                << an << " " << bn;

            // mul_small written into a warm accumulator (a holds a value
            // and a's limb storage) against mul_small: same value, same
            // charge.
            acc = a;
            OpsCounter::reset();
            detail::mul_small_into(acc, b, m);
            const std::uint64_t into_charge = OpsCounter::get();
            OpsCounter::reset();
            const detail::Limbs fresh = detail::mul_small(b, m);
            EXPECT_EQ(acc, fresh) << an << " " << bn;
            EXPECT_EQ(into_charge, OpsCounter::get()) << an << " " << bn;
        }
    }

    // Hensel exact division against divmod on exact multiples: the divisors
    // of the interpolation denominators (1, 2, 3, 6), the extremes of the
    // power of two and of the odd part, and random 2^s * odd divisors.
    std::vector<std::uint64_t> divisors = {1, 2, 3, 6, std::uint64_t{1} << 63,
                                           0xFFFFFFFFFFFFFFC5ull};
    for (int i = 0; i < 8; ++i) {
        const unsigned s = static_cast<unsigned>(rng.next_below(64));
        divisors.push_back((rng.next_u64() | 1) << s);
    }
    for (const std::uint64_t d : divisors) {
        for (std::size_t qn : {1u, 2u, 3u, 4u, 17u, 45u, 129u}) {
            const detail::Limbs q = rand_limbs(qn);
            const detail::Limbs a = detail::mul(q, detail::Limbs{d});
            detail::Limbs want_q, want_r;
            OpsCounter::reset();
            detail::divmod(a, detail::Limbs{d}, want_q, want_r);
            const std::uint64_t divmod_charge = OpsCounter::get();
            detail::Limbs got = a;
            OpsCounter::reset();
            detail::divexact_small(got, d);
            EXPECT_EQ(got, want_q) << d << " " << qn;
            EXPECT_EQ(got, q) << d << " " << qn;
            EXPECT_TRUE(want_r.empty()) << d << " " << qn;
            EXPECT_EQ(OpsCounter::get(), divmod_charge) << d << " " << qn;
        }
    }
    // Self-aliasing add_into (acc += acc) exercised explicitly: the asm
    // kernel must read each limb before storing the doubled value.
    detail::Limbs x = rand_limbs(129);
    detail::Limbs doubled = detail::add_reference(x, x);
    detail::add_into(x, x);
    EXPECT_EQ(x, doubled);
}

TEST(LimbKernels, ShiftInPlaceMatchesReference) {
    Rng rng{5551212};
    detail::Limbs a(100);
    for (auto& x : a) x = rng.next_u64();
    a.back() |= 1ull << 63;
    for (std::size_t bits : {0u, 1u, 17u, 63u, 64u, 65u, 200u}) {
        detail::Limbs v = a;
        detail::shl_into(v, bits);
        EXPECT_EQ(v, detail::shl_reference(a, bits)) << bits;
        EXPECT_EQ(detail::shl(a, bits), detail::shl_reference(a, bits))
            << bits;
        detail::Limbs w = detail::shl_reference(a, bits);
        detail::shr_into(w, bits);
        EXPECT_EQ(w, a) << bits;
    }
}

// ---------------------------------------------------------------------------
// detail::Limbs, the small-buffer limb container, against a std::vector
// oracle. Sizes run 0..10 so every sequence crosses kInline both ways.
// ---------------------------------------------------------------------------

using Oracle = std::vector<std::uint64_t>;

void expect_matches(const detail::Limbs& l, const Oracle& v, int step) {
    ASSERT_EQ(l.size(), v.size()) << "step " << step;
    EXPECT_TRUE(std::equal(l.begin(), l.end(), v.begin())) << "step " << step;
    EXPECT_GE(l.capacity(), l.size()) << "step " << step;
    EXPECT_EQ(l.on_heap(), l.capacity() > detail::Limbs::kInline)
        << "step " << step;
}

TEST(Limbs, RandomOperationsMatchVectorOracle) {
    Rng rng{20261017};
    auto small = [&] { return static_cast<std::size_t>(rng.next_below(11)); };
    for (int seq = 0; seq < 200; ++seq) {
        detail::Limbs l[2];
        Oracle v[2];
        for (int step = 0; step < 60; ++step) {
            const std::size_t i = rng.next_below(2);
            const std::size_t j = 1 - i;
            const std::uint64_t x = rng.next_u64();
            switch (rng.next_below(13)) {
                case 0: {
                    const std::size_t n = small();
                    l[i].resize(n, x);
                    v[i].resize(n, x);
                    break;
                }
                case 1:
                    l[i].push_back(x);
                    v[i].push_back(x);
                    break;
                case 2:
                    if (!v[i].empty()) {
                        l[i].pop_back();
                        v[i].pop_back();
                    }
                    break;
                case 3: {
                    const std::size_t n = small();
                    l[i].assign(n, x);
                    v[i].assign(n, x);
                    break;
                }
                case 4: {
                    Oracle src(small());
                    for (auto& w : src) w = rng.next_u64();
                    l[i].assign(src.data(), src.data() + src.size());
                    v[i] = src;
                    break;
                }
                case 5:  // assign from a suffix of the buffer itself
                    if (!v[i].empty()) {
                        const std::size_t off = rng.next_below(v[i].size());
                        l[i].assign(l[i].data() + off, l[i].data() + l[i].size());
                        v[i].erase(v[i].begin(), v[i].begin() + off);
                    }
                    break;
                case 6:
                    l[i] = l[j];
                    v[i] = v[j];
                    break;
                case 7:
                    l[i] = std::move(l[j]);
                    v[i] = std::move(v[j]);
                    v[j].clear();
                    break;
                case 8: {
                    detail::Limbs copy(l[j]);
                    expect_matches(copy, v[j], step);
                    EXPECT_EQ(copy.capacity(),
                              std::max(detail::Limbs::kInline, v[j].size()));
                    l[i] = std::move(copy);
                    v[i] = v[j];
                    break;
                }
                case 9: {
                    detail::Limbs moved(std::move(l[j]));
                    expect_matches(moved, v[j], step);
                    l[i] = std::move(moved);
                    v[i] = std::move(v[j]);
                    v[j].clear();
                    break;
                }
                case 10: {  // self-assignment, through an alias
                    detail::Limbs& alias = l[i];
                    l[i] = alias;
                    l[i] = std::move(alias);
                    break;
                }
                case 11:
                    l[i].clear();
                    v[i].clear();
                    break;
                default:
                    l[i].reserve(small());
                    break;
            }
            expect_matches(l[0], v[0], step);
            expect_matches(l[1], v[1], step);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(Limbs, CopiesAllocateExactlyAndMovesTransferTheBlock) {
    detail::Limbs big(9, 7);
    big.resize(5);  // capacity stays 9, as with std::vector
    EXPECT_EQ(big.capacity(), 9u);

    const detail::Limbs copy(big);
    EXPECT_EQ(copy.capacity(), 5u);
    EXPECT_EQ(copy, big);

    const std::uint64_t* block = big.data();
    detail::Limbs moved(std::move(big));
    EXPECT_EQ(moved.data(), block);
    EXPECT_TRUE(big.empty());
    EXPECT_FALSE(big.on_heap());

    detail::Limbs small{1, 2};
    detail::Limbs to_small{3};
    to_small = std::move(moved);  // heap block into an inline object
    EXPECT_EQ(to_small.data(), block);
    EXPECT_FALSE(moved.on_heap());

    to_small = std::move(small);  // inline limbs into a heap object
    EXPECT_EQ(to_small, (detail::Limbs{1, 2}));
    EXPECT_EQ(to_small.data(), block);
    EXPECT_TRUE(small.empty());

    // A vector is adopted when it spills and copied inline otherwise.
    std::vector<std::uint64_t> vec(9, 5);
    const std::uint64_t* vec_block = vec.data();
    const detail::Limbs adopted(std::move(vec));
    EXPECT_EQ(adopted.data(), vec_block);
    const detail::Limbs short_vec(std::vector<std::uint64_t>{1, 2});
    EXPECT_FALSE(short_vec.on_heap());
    EXPECT_EQ(short_vec, (detail::Limbs{1, 2}));
}

TEST(Limbs, HeapToInlineMoveKeepsTheValue) {
    Rng rng{404};
    for (std::size_t n = 0; n <= 2 * detail::Limbs::kInline; ++n) {
        Oracle want(n);
        for (auto& w : want) w = rng.next_u64();
        detail::Limbs heap(want.data(), want.data() + n);
        heap.reserve(4 * detail::Limbs::kInline);
        ASSERT_TRUE(heap.on_heap());
        detail::Limbs inl;
        inl = std::move(heap);
        expect_matches(inl, want, static_cast<int>(n));
        heap = std::move(inl);  // and back into the moved-from object
        expect_matches(heap, want, static_cast<int>(n));
        EXPECT_TRUE(inl.empty());
    }
}

TEST(Limbs, SelfAddIntoSpillsAnInlineValue) {
    // acc += acc on a full inline value carries into a fourth limb, so the
    // buffer spills to the heap while it is also the addend.
    detail::Limbs x(detail::Limbs::kInline, ~std::uint64_t{0});
    ASSERT_FALSE(x.on_heap());
    const detail::Limbs doubled = detail::add_reference(x, x);
    detail::add_into(x, x);
    EXPECT_EQ(x, doubled);
    EXPECT_EQ(x.size(), detail::Limbs::kInline + 1);
}

}  // namespace
}  // namespace ftmul
