#include "toom/digits.hpp"

#include <algorithm>
#include <cassert>

namespace ftmul {

std::vector<BigInt> split_digits(const BigInt& v, std::size_t digit_bits,
                                 std::size_t count) {
    assert(!v.is_negative());
    return split_digits_abs(v, digit_bits, count);
}

std::vector<BigInt> split_digits_abs(const BigInt& v, std::size_t digit_bits,
                                     std::size_t count) {
    assert(v.bit_length() <= digit_bits * count);
    std::vector<BigInt> digits(count);
    for (std::size_t i = 0; i < count; ++i) {
        digits[i] = v.extract_bits(i * digit_bits, digit_bits);
    }
    return digits;
}

BigInt recompose_digits(std::span<const BigInt> digits,
                        std::size_t digit_bits) {
    BigInt out;
    recompose_digits_into(out, digits, digit_bits);
    return out;
}

void recompose_digits_into(BigInt& out, std::span<const BigInt> digits,
                           std::size_t digit_bits) {
    std::size_t top_bits = 0;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        assert(&digits[i] != &out);
        if (!digits[i].is_zero()) {
            top_bits = std::max(top_bits,
                                i * digit_bits + digits[i].bit_length());
        }
    }
    out = BigInt{};  // keeps out's limb storage
    // Every partial sum times its power of B is a sum of at most
    // digits.size() terms below 2^top_bits, so one spare limb covers any
    // count that fits in memory.
    out.reserve(top_bits / 64 + 2);
    // Accumulate from the top so each shift-add touches a bounded prefix.
    for (std::size_t i = digits.size(); i-- > 0;) {
        out <<= digit_bits;
        out += digits[i];
    }
}

BigInt recompose_digits_linear(std::span<const BigInt> digits,
                               std::size_t digit_bits) {
    std::size_t top_bits = 0;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        assert(!digits[i].is_negative());
        if (!digits[i].is_zero()) {
            top_bits = std::max(top_bits,
                                i * digit_bits + digits[i].bit_length());
        }
    }
    if (top_bits == 0) return BigInt{};
    // The sum of non-negative terms below 2^top_bits each stays below
    // 2^(top_bits + log2(count)); one spare limb covers any count that fits
    // in memory.
    detail::Limbs out(top_bits / 64 + 2, 0);
    std::uint64_t* acc = out.data();
    for (std::size_t i = 0; i < digits.size(); ++i) {
        const detail::Limbs& mag = digits[i].magnitude();
        if (mag.size() == 0) continue;
        const std::size_t offset = i * digit_bits;
        const unsigned shift = static_cast<unsigned>(offset % 64);
        std::uint64_t* at = acc + offset / 64;
        std::uint64_t carry = 0;
        std::uint64_t prev = 0;
        for (std::size_t j = 0; j <= mag.size(); ++j) {
            const std::uint64_t limb = j < mag.size() ? mag[j] : 0;
            const std::uint64_t part =
                shift == 0 ? limb : limb << shift | prev >> (64 - shift);
            prev = limb;
            const unsigned __int128 sum =
                static_cast<unsigned __int128>(at[j]) + part + carry;
            at[j] = static_cast<std::uint64_t>(sum);
            carry = static_cast<std::uint64_t>(sum >> 64);
        }
        for (std::uint64_t* p = at + mag.size() + 1; carry != 0; ++p) {
            carry = ++*p == 0 ? 1 : 0;
        }
    }
    detail::normalize(out);
    return BigInt::from_parts(1, std::move(out));
}

std::vector<BigInt> convolve_schoolbook(std::span<const BigInt> a,
                                        std::span<const BigInt> b) {
    assert(!a.empty() && !b.empty());
    std::vector<BigInt> out(a.size() + b.size() - 1);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].is_zero()) continue;
        for (std::size_t j = 0; j < b.size(); ++j) {
            if (b[j].is_zero()) continue;
            add_mul(out[i + j], a[i], b[j]);
        }
    }
    return out;
}

}  // namespace ftmul
