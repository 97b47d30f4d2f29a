#include "toom/hybrid.hpp"

#include <algorithm>
#include <cassert>

#include "toom/digits.hpp"

namespace ftmul {

HybridSchedule HybridSchedule::standard(const ToomPlan& toom2,
                                        const ToomPlan& toom3,
                                        const ToomPlan& toom4) {
    assert(toom2.k() == 2 && toom3.k() == 3 && toom4.k() == 4);
    HybridSchedule s;
    s.levels = {{1u << 20, &toom4}, {96u << 10, &toom3}, {6u << 10, &toom2}};
    return s;
}

namespace {

BigInt hybrid_rec(const BigInt& a, const BigInt& b,
                  const HybridSchedule& schedule) {
    if (a.is_zero() || b.is_zero()) return {};
    const std::size_t n = std::max(a.bit_length(), b.bit_length());

    const ToomPlan* plan = nullptr;
    for (const HybridLevel& lvl : schedule.levels) {
        if (n >= lvl.min_bits) {
            plan = lvl.plan;
            break;
        }
    }
    if (plan == nullptr) return a * b;  // schoolbook floor

    const auto k = static_cast<std::size_t>(plan->k());
    const std::size_t digit_bits = (n + k - 1) / k;
    const std::vector<BigInt> da = split_digits_abs(a, digit_bits, k);
    const std::vector<BigInt> db = split_digits_abs(b, digit_bits, k);

    const std::size_t m = plan->num_base_points();
    std::vector<BigInt> ea(m), eb(m);
    plan->evaluate_blocks(da, ea, 1);
    plan->evaluate_blocks(db, eb, 1);

    std::vector<BigInt> products(m);
    for (std::size_t i = 0; i < m; ++i) {
        products[i] = hybrid_rec(ea[i], eb[i], schedule);
    }
    const std::vector<BigInt> coeffs = plan->interpolation().apply(products);
    BigInt result = recompose_digits(coeffs, digit_bits);
    assert(!result.is_negative());
    return a.sign() * b.sign() < 0 ? -result : result;
}

}  // namespace

BigInt toom_multiply_hybrid(const BigInt& a, const BigInt& b,
                            const HybridSchedule& schedule) {
    return hybrid_rec(a, b, schedule);
}

}  // namespace ftmul
