#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "bigint/limb_ops.hpp"

namespace ftmul {

/// Arbitrary-precision signed integer.
///
/// Sign-magnitude representation over little-endian 64-bit limbs. This is the
/// scalar type of the whole library: Toom-Cook digit vectors, erasure-code
/// words and interpolation values are all BigInt. Arithmetic is exact; the
/// word-level work of every operation is recorded in OpsCounter, which is how
/// the benchmarks measure the paper's arithmetic cost F.
///
/// Multiplication here is deliberately schoolbook (Theta(n^2)): BigInt is the
/// substrate *under* the Toom-Cook algorithms being studied, and also serves
/// as the correctness oracle and the fallback below the recursion threshold.
class BigInt {
public:
    /// Zero.
    BigInt() = default;

    /// Conversion from native signed integers (implicit by design: the
    /// library's linear-algebra layers mix small constants with BigInt).
    BigInt(std::int64_t v);
    BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}

    /// Construct from an explicit sign and magnitude. @p sign must be -1, 0
    /// or +1 and consistent with @p magnitude (0 iff magnitude is zero after
    /// normalization).
    static BigInt from_parts(int sign, detail::Limbs magnitude);

    /// 2^e.
    static BigInt power_of_two(std::size_t e);

    /// Parse decimal, with optional leading '-'. Throws std::invalid_argument
    /// on malformed input.
    static BigInt from_decimal(std::string_view s);

    /// Parse hexadecimal (no 0x prefix), with optional leading '-'.
    static BigInt from_hex(std::string_view s);

    std::string to_decimal() const;
    std::string to_hex() const;

    /// -1, 0 or +1.
    int sign() const noexcept { return sign_; }
    bool is_zero() const noexcept { return sign_ == 0; }
    bool is_negative() const noexcept { return sign_ < 0; }

    /// Number of significant bits of the magnitude (0 for zero).
    std::size_t bit_length() const { return detail::bit_length(mag_); }

    std::size_t limb_count() const noexcept { return mag_.size(); }
    const detail::Limbs& magnitude() const noexcept { return mag_; }

    /// Truncate to a native int64; requires the value to fit.
    std::int64_t to_int64() const;
    bool fits_int64() const;

    BigInt abs() const;
    BigInt operator-() const;
    /// Flip the sign in place (no copy of the magnitude).
    BigInt& negate() noexcept {
        sign_ = -sign_;
        return *this;
    }

    /// Make room for values of up to @p limbs limbs, so the arithmetic
    /// that follows grows the value in place. Keeps the value.
    void reserve(std::size_t limbs) { mag_.reserve(limbs); }

    friend BigInt operator+(const BigInt& a, const BigInt& b);
    friend BigInt operator-(const BigInt& a, const BigInt& b);
    friend BigInt operator*(const BigInt& a, const BigInt& b);
    BigInt operator<<(std::size_t bits) const;
    BigInt operator>>(std::size_t bits) const;

    /// Compound assignments mutate in place: they reuse the existing limb
    /// buffer whenever the result fits and route temporaries through the
    /// thread-local LimbArena, so no heap allocation happens on the hot path.
    /// OpsCounter charges are identical to the out-of-place forms.
    BigInt& operator+=(const BigInt& o);
    BigInt& operator-=(const BigInt& o);
    BigInt& operator*=(const BigInt& o);
    BigInt& operator<<=(std::size_t b);
    BigInt& operator>>=(std::size_t b);

    /// Three-way comparison by value.
    static int compare(const BigInt& a, const BigInt& b);
    friend bool operator==(const BigInt& a, const BigInt& b) { return compare(a, b) == 0; }
    friend bool operator!=(const BigInt& a, const BigInt& b) { return compare(a, b) != 0; }
    friend bool operator<(const BigInt& a, const BigInt& b) { return compare(a, b) < 0; }
    friend bool operator<=(const BigInt& a, const BigInt& b) { return compare(a, b) <= 0; }
    friend bool operator>(const BigInt& a, const BigInt& b) { return compare(a, b) > 0; }
    friend bool operator>=(const BigInt& a, const BigInt& b) { return compare(a, b) >= 0; }

    /// Truncating division (C++ semantics): a == q*b + r, |r| < |b|, and r has
    /// the sign of a (or is zero). Requires b != 0.
    static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r);
    friend BigInt operator/(const BigInt& a, const BigInt& b);
    friend BigInt operator%(const BigInt& a, const BigInt& b);

    /// Euclidean remainder in [0, |m|). Requires m != 0.
    static BigInt mod_floor(const BigInt& a, const BigInt& m);

    /// Exact division: requires d != 0 and d | *this (checked with assert in
    /// debug builds; the interpolation layers rely on this invariant).
    BigInt divexact(const BigInt& d) const;

    /// In-place exact division. For a single-limb divisor (the interpolation
    /// denominators) this divides the limb buffer in place with no
    /// allocation and no hardware divide (detail::divexact_small); otherwise
    /// it falls back to divexact(). Same contract and OpsCounter charge as
    /// divexact().
    BigInt& divexact_inplace(const BigInt& d);

    /// Non-negative greatest common divisor; gcd(0, 0) == 0.
    static BigInt gcd(BigInt a, BigInt b);

    /// this^e by binary exponentiation.
    BigInt pow(std::uint64_t e) const;

    /// Extract magnitude bits [lo, lo + len) as a non-negative BigInt; the
    /// sign is ignored (the result is a slice of |*this|). This is the
    /// digit-splitting primitive for Toom-Cook (base 2^len digits). A
    /// wrapper over assign_bits.
    BigInt extract_bits(std::size_t lo, std::size_t len) const;

    /// *this = src.extract_bits(lo, len), written into this value's limb
    /// storage, which is reused when it is large enough. Same charge as
    /// extract_bits. Requires &src != this.
    BigInt& assign_bits(const BigInt& src, std::size_t lo, std::size_t len);

private:
    friend void add_scaled(BigInt& acc, const BigInt& x, std::int64_t c);
    friend void add_mul(BigInt& acc, const BigInt& x, const BigInt& y);
    friend void mul_into(BigInt& out, const BigInt& a, const BigInt& b);

    /// Shared body of += / -=: *this += (os-signed o). @p os is o's sign,
    /// possibly flipped by the caller for subtraction.
    BigInt& add_signed(const BigInt& o, int os);

    int sign_ = 0;  // -1, 0, +1
    detail::Limbs mag_;
};

/// acc += x * c for a small signed multiplier; the inner kernel of the
/// evaluation/interpolation linear maps. When the accumulator is zero, x * c
/// is written into its storage; when the added term has its sign, the
/// operation is a fused in-place limb addmul. Neither makes a temporary.
void add_scaled(BigInt& acc, const BigInt& x, std::int64_t c);

/// out = a * b, written into out's limb storage, which is reused when it is
/// large enough; out must not alias a or b. Charges what `a * b` charges
/// (operator* is a wrapper over it).
void mul_into(BigInt& out, const BigInt& a, const BigInt& b);

/// acc += x * y without materializing the product on the heap: the limbs of
/// x*y live in the thread-local LimbArena and are folded straight into acc.
/// The inner kernel of the interpolation rows and of schoolbook convolution.
/// OpsCounter charges match `acc += x * y` exactly.
void add_mul(BigInt& acc, const BigInt& x, const BigInt& y);

/// Decimal stream output.
std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace ftmul
