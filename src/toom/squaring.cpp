#include "toom/squaring.hpp"

#include <cassert>

#include "toom/digits.hpp"

namespace ftmul {

namespace {

BigInt square_rec(const BigInt& a, const ToomPlan& plan,
                  const SquareOptions& opts) {
    if (a.is_zero()) return {};
    const std::size_t n = a.bit_length();
    if (n <= opts.threshold_bits) return a * a;

    const auto k = static_cast<std::size_t>(plan.k());
    const std::size_t digit_bits = (n + k - 1) / k;
    const std::vector<BigInt> digits = split_digits_abs(a, digit_bits, k);

    const std::size_t m = plan.num_base_points();
    std::vector<BigInt> ev(m);
    plan.evaluate_blocks(digits, ev, 1);

    std::vector<BigInt> squares(m);
    for (std::size_t i = 0; i < m; ++i) {
        squares[i] = square_rec(ev[i], plan, opts);
    }
    const std::vector<BigInt> coeffs = plan.interpolation().apply(squares);
    BigInt result = recompose_digits(coeffs, digit_bits);
    assert(!result.is_negative());
    return result;
}

}  // namespace

BigInt toom_square(const BigInt& a, const ToomPlan& plan,
                   const SquareOptions& opts) {
    return square_rec(a, plan, opts);
}

}  // namespace ftmul
