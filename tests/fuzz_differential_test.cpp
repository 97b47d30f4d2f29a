// Bounded differential fuzzing: random operand shapes (dense, sparse,
// power-of-two-adjacent, long runs of ones, asymmetric) through every
// sequential engine and a parallel spot-check, against the schoolbook
// oracle. Catches carry/edge bugs that uniform random operands miss.

#include <gtest/gtest.h>

#include "bigint/limb_ops.hpp"
#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "core/parallel.hpp"
#include "toom/lazy.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

/// Structured random operand generator.
BigInt gen_operand(Rng& rng, std::size_t max_bits) {
    const std::size_t bits = 1 + rng.next_below(max_bits);
    switch (rng.next_below(7)) {
        case 0:  // dense random
            return random_bits(rng, bits);
        case 1:  // all ones: maximal carries
            return BigInt::power_of_two(bits) - BigInt{1};
        case 2:  // single bit
            return BigInt::power_of_two(bits - 1);
        case 3: {  // power of two +/- small
            const BigInt p = BigInt::power_of_two(bits);
            const std::int64_t d =
                static_cast<std::int64_t>(rng.next_below(65)) - 32;
            BigInt v = p + BigInt{d};
            return v.is_negative() ? -v : v;
        }
        case 4: {  // sparse: few set bits
            BigInt v;
            for (int i = 0; i < 4; ++i) {
                v += BigInt::power_of_two(rng.next_below(bits));
            }
            return v;
        }
        case 5: {  // blocky: runs of ones separated by zero gaps
            BigInt v;
            std::size_t pos = 0;
            while (pos + 8 < bits) {
                const std::size_t run = 1 + rng.next_below(64);
                v += (BigInt::power_of_two(run) - BigInt{1}) << pos;
                pos += run + 1 + rng.next_below(64);
            }
            return v;
        }
        default:  // small
            return BigInt{static_cast<std::int64_t>(rng.next_u64() >> 32)};
    }
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, SequentialEnginesAgreeWithOracle) {
    Rng rng{GetParam() * 1000003 + 17};
    const ToomPlan p2 = ToomPlan::make(2);
    const ToomPlan p3 = ToomPlan::make(3);
    const ToomPlan p5 = ToomPlan::make(5);
    ToomOptions seq;
    seq.threshold_bits = 128;
    LazyOptions lazy;
    lazy.digit_bits = 32;
    lazy.base_len = 2;

    for (int iter = 0; iter < 12; ++iter) {
        BigInt a = gen_operand(rng, 6000);
        BigInt b = gen_operand(rng, 6000);
        if (rng.next_below(2)) a = -a;
        if (rng.next_below(2)) b = -b;
        const BigInt oracle = a * b;
        ASSERT_EQ(toom_multiply(a, b, p2, seq), oracle) << iter;
        ASSERT_EQ(toom_multiply(a, b, p3, seq), oracle) << iter;
        ASSERT_EQ(toom_multiply(a, b, p5, seq), oracle) << iter;
        ASSERT_EQ(toom_multiply_lazy(a, b, p3, lazy), oracle) << iter;
    }
}

TEST_P(DifferentialFuzz, ParallelSpotCheck) {
    Rng rng{GetParam() * 999331 + 5};
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    BigInt a = gen_operand(rng, 5000);
    BigInt b = gen_operand(rng, 5000);
    EXPECT_EQ(parallel_toom_multiply(a, b, cfg).product, a * b);
}

TEST_P(DifferentialFuzz, RandomPointSetsAgreeWithOracle) {
    // Random (valid) evaluation point sets: the library must be correct for
    // any pairwise projectively distinct choice, not just the standard one.
    Rng rng{GetParam() * 77 + 3};
    const int k = 2 + static_cast<int>(rng.next_below(3));
    const std::size_t need = static_cast<std::size_t>(2 * k - 1);
    std::vector<EvalPoint> pts;
    if (rng.next_below(2)) pts.push_back({1, 0});  // maybe infinity
    while (pts.size() < need) {
        EvalPoint cand{static_cast<std::int64_t>(rng.next_below(17)) - 8,
                       static_cast<std::int64_t>(1 + rng.next_below(2))};
        bool dup = cand.x == 0 && cand.h == 0;
        for (const auto& p : pts) {
            dup = dup || EvalPoint::projectively_equal(p, cand);
        }
        if (!dup) pts.push_back(cand);
    }
    ToomPlan plan = ToomPlan::from_points(k, pts);
    ToomOptions opts;
    opts.threshold_bits = 256;
    BigInt a = gen_operand(rng, 4000);
    BigInt b = gen_operand(rng, 4000);
    EXPECT_EQ(toom_multiply(a, b, plan, opts), a * b) << "k=" << k;
}


// The in-place compound operators (which route through the asm carry-chain
// and ADX multiply kernels plus the scratch arena) against their
// out-of-place twins, over the same structured operand shapes.
TEST_P(DifferentialFuzz, InPlaceOperatorsAgreeWithOutOfPlace) {
    Rng rng{GetParam() * 7777777 + 3};
    for (int iter = 0; iter < 20; ++iter) {
        BigInt a = gen_operand(rng, 5000);
        BigInt b = gen_operand(rng, 5000);
        if (rng.next_below(2)) a = -a;
        if (rng.next_below(2)) b = -b;
        const std::size_t sh = rng.next_below(300);

        BigInt v = a;
        v += b;
        ASSERT_EQ(v, a + b) << iter;
        v = a;
        v -= b;
        ASSERT_EQ(v, a - b) << iter;
        v = a;
        v *= b;
        ASSERT_EQ(v, a * b) << iter;
        v = a;
        v <<= sh;
        ASSERT_EQ(v, a << sh) << iter;
        v = a;
        v >>= sh;
        ASSERT_EQ(v, a >> sh) << iter;
        // Self-aliasing compound forms.
        v = a;
        v += v;
        ASSERT_EQ(v, a + a) << iter;
        v = a;
        v -= v;
        ASSERT_TRUE(v.is_zero()) << iter;
    }
}

// Arena-backed sequential Toom (small thresholds force deep recursion and
// heavy scratch reuse) against the schoolbook oracle, with operand shapes
// chosen to stress carries across digit boundaries.
TEST_P(DifferentialFuzz, ArenaBackedToomAgreesWithOracle) {
    Rng rng{GetParam() * 424243 + 9};
    const ToomPlan p2 = ToomPlan::make(2);
    const ToomPlan p4 = ToomPlan::make(4);
    ToomOptions tight;
    tight.threshold_bits = 128;
    for (int iter = 0; iter < 6; ++iter) {
        const BigInt a = gen_operand(rng, 8000);
        const BigInt b = gen_operand(rng, 8000);
        const BigInt oracle = a * b;
        ASSERT_EQ(toom_multiply(a, b, p2, tight), oracle) << iter;
        ASSERT_EQ(toom_multiply(a, b, p4, tight), oracle) << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range<std::uint64_t>(1, 11));

// Arena-scratch Knuth-D division against the preserved vector-based
// implementation: identical quotient, remainder AND OpsCounter charge on
// random shapes — normalized and unnormalized divisors, a < b, single-limb
// divisors, exact divisions.
TEST(DivmodDifferential, ArenaPathMatchesReferenceAndCharges) {
    Rng rng{987654321};
    auto gen_limbs = [&](std::size_t max_limbs) {
        detail::Limbs v(1 + rng.next_below(max_limbs));
        for (auto& w : v) w = rng.next_u64();
        switch (rng.next_below(4)) {
            case 0: v.back() |= std::uint64_t{1} << 63; break;  // s == 0 path
            case 1: v.back() = 1; break;                        // tiny top limb
            case 2: if (v.size() > 1) v[0] = 0; break;          // trailing zero limb
            default: break;
        }
        detail::normalize(v);
        return v;
    };
    for (int iter = 0; iter < 500; ++iter) {
        detail::Limbs a = gen_limbs(24);
        detail::Limbs b = gen_limbs(8);
        if (b.empty()) b = {rng.next_u64() | 1};
        if (rng.next_below(8) == 0) a = detail::mul(b, gen_limbs(4));  // exact
        detail::Limbs q1, r1, q2, r2;
        OpsCounter::reset();
        detail::divmod(a, b, q1, r1);
        const std::uint64_t charge_arena = OpsCounter::get();
        OpsCounter::reset();
        detail::divmod_reference(a, b, q2, r2);
        const std::uint64_t charge_reference = OpsCounter::get();
        ASSERT_EQ(q1, q2) << iter;
        ASSERT_EQ(r1, r2) << iter;
        ASSERT_EQ(charge_arena, charge_reference) << iter;
        // a = q*b + r and r < b: both paths must satisfy the contract.
        detail::Limbs check = detail::mul(q1, b);
        detail::add_into(check, r1);
        ASSERT_EQ(check, a) << iter;
        if (!b.empty()) {
            ASSERT_LT(detail::cmp(r1, b), 0) << iter;
        }
    }
}

}  // namespace
}  // namespace ftmul
