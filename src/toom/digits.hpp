#pragma once

#include <span>
#include <vector>

#include "bigint/bigint.hpp"

namespace ftmul {

/// Digit-vector helpers shared by every Toom-Cook variant: an integer is
/// viewed as a polynomial in B = 2^digit_bits with non-negative digit
/// coefficients; products are digit polynomials whose coefficients exceed B,
/// resolved by one carry pass at recomposition (the paper's "compute the
/// carry" step, deferred wholesale by Lazy Interpolation).

/// Split a non-negative value into exactly @p count digits of @p digit_bits
/// bits (most significant digits zero-padded). Requires the value to fit,
/// i.e. bit_length() <= count * digit_bits.
std::vector<BigInt> split_digits(const BigInt& v, std::size_t digit_bits,
                                 std::size_t count);

/// Split |v| into exactly @p count digits, ignoring v's sign. Unlike
/// `split_digits(v.abs(), ...)` this never copies the magnitude. Requires
/// |v| to fit, i.e. bit_length() <= count * digit_bits.
std::vector<BigInt> split_digits_abs(const BigInt& v, std::size_t digit_bits,
                                     std::size_t count);

/// Evaluate a digit polynomial at B = 2^digit_bits: sum_i digits[i] << (i *
/// digit_bits). Digits may be signed and wider than digit_bits. A wrapper
/// over recompose_digits_into.
BigInt recompose_digits(std::span<const BigInt> digits, std::size_t digit_bits);

/// recompose_digits into @p out's limb storage. The accumulator is sized
/// once, from the digits' top bits, before the Horner loop, so it never
/// regrows, and a warm @p out allocates nothing. @p out must not be one of
/// the digits.
void recompose_digits_into(BigInt& out, std::span<const BigInt> digits,
                           std::size_t digit_bits);

/// recompose_digits for non-negative digits, in time linear in their total
/// size, for assembly outside the cost model: each digit's limbs are added
/// into one limb buffer at the digit's bit offset, carries rippling only
/// past its top limb (the Horner loop above shifts the whole accumulator
/// once per digit). Charges no limb ops.
BigInt recompose_digits_linear(std::span<const BigInt> digits,
                               std::size_t digit_bits);

/// Plain schoolbook polynomial product: out[t] = sum_{i+j==t} a[i]*b[j];
/// result length |a| + |b| - 1. The recursion base of the lazy algorithm.
std::vector<BigInt> convolve_schoolbook(std::span<const BigInt> a,
                                        std::span<const BigInt> b);

}  // namespace ftmul
