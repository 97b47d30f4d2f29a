#include "bigint/bigint.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "bigint/limb_arena.hpp"
#include "bigint/ops_counter.hpp"

namespace ftmul {

namespace {

detail::Limbs mag_of_u64(std::uint64_t v) {
    return v == 0 ? detail::Limbs{} : detail::Limbs{v};
}

}  // namespace

BigInt::BigInt(std::int64_t v) {
    if (v == 0) return;
    if (v > 0) {
        sign_ = 1;
        mag_ = mag_of_u64(static_cast<std::uint64_t>(v));
    } else {
        sign_ = -1;
        // Negate via unsigned arithmetic so INT64_MIN is handled.
        mag_ = mag_of_u64(~static_cast<std::uint64_t>(v) + 1);
    }
}

BigInt BigInt::from_parts(int sign, detail::Limbs magnitude) {
    detail::normalize(magnitude);
    BigInt out;
    out.mag_ = std::move(magnitude);
    out.sign_ = out.mag_.empty() ? 0 : sign;
    return out;
}

BigInt BigInt::power_of_two(std::size_t e) {
    detail::Limbs m(e / 64 + 1, 0);
    m[e / 64] = std::uint64_t{1} << (e % 64);
    return from_parts(1, std::move(m));
}

std::int64_t BigInt::to_int64() const {
    assert(fits_int64());
    if (sign_ == 0) return 0;
    const std::uint64_t v = mag_[0];
    return sign_ > 0 ? static_cast<std::int64_t>(v)
                     : -static_cast<std::int64_t>(v - 1) - 1;
}

bool BigInt::fits_int64() const {
    if (sign_ == 0) return true;
    if (mag_.size() > 1) return false;
    const std::uint64_t limit =
        sign_ > 0 ? static_cast<std::uint64_t>(INT64_MAX)
                  : static_cast<std::uint64_t>(INT64_MAX) + 1;
    return mag_[0] <= limit;
}

BigInt BigInt::abs() const {
    BigInt out = *this;
    if (out.sign_ < 0) out.sign_ = 1;
    return out;
}

BigInt BigInt::operator-() const {
    BigInt out = *this;
    return out.negate();
}

BigInt operator+(const BigInt& a, const BigInt& b) {
    if (a.sign_ == 0) return b;
    if (b.sign_ == 0) return a;
    if (a.sign_ == b.sign_) {
        return BigInt::from_parts(a.sign_, detail::add(a.mag_, b.mag_));
    }
    const int c = detail::cmp(a.mag_, b.mag_);
    if (c == 0) return BigInt{};
    if (c > 0) return BigInt::from_parts(a.sign_, detail::sub(a.mag_, b.mag_));
    return BigInt::from_parts(b.sign_, detail::sub(b.mag_, a.mag_));
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt& BigInt::add_signed(const BigInt& o, int os) {
    if (os == 0) return *this;
    if (sign_ == 0) {
        mag_ = o.mag_;
        sign_ = os;
        return *this;
    }
    if (sign_ == os) {
        detail::add_into(mag_, o.mag_);
        return *this;
    }
    const int c = detail::cmp(mag_, o.mag_);
    if (c == 0) {
        sign_ = 0;
        mag_.clear();
        return *this;
    }
    if (c > 0) {
        detail::sub_into(mag_, o.mag_);
        return *this;
    }
    detail::rsub_into(mag_, o.mag_.data(), o.mag_.size());
    sign_ = os;
    return *this;
}

BigInt& BigInt::operator+=(const BigInt& o) { return add_signed(o, o.sign_); }

BigInt& BigInt::operator-=(const BigInt& o) { return add_signed(o, -o.sign_); }

BigInt& BigInt::operator*=(const BigInt& o) {
    if (sign_ == 0) return *this;
    if (o.sign_ == 0) {
        sign_ = 0;
        mag_.clear();
        return *this;
    }
    detail::ArenaScope scope;
    const std::size_t pn = mag_.size() + o.mag_.size();
    std::uint64_t* p = scope.alloc(pn);
    detail::mul_to(p, mag_.data(), mag_.size(), o.mag_.data(), o.mag_.size());
    std::size_t n = pn;
    while (n > 0 && p[n - 1] == 0) --n;
    mag_.assign(p, p + n);
    sign_ *= o.sign_;
    return *this;
}

BigInt& BigInt::operator<<=(std::size_t b) {
    if (sign_ != 0) detail::shl_into(mag_, b);
    return *this;
}

BigInt& BigInt::operator>>=(std::size_t b) {
    if (sign_ != 0) {
        detail::shr_into(mag_, b);
        if (mag_.empty()) sign_ = 0;
    }
    return *this;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
    BigInt out;
    mul_into(out, a, b);
    return out;
}

void mul_into(BigInt& out, const BigInt& a, const BigInt& b) {
    detail::mul_into(out.mag_, a.mag_, b.mag_);
    out.sign_ = out.mag_.empty() ? 0 : a.sign_ * b.sign_;
}

BigInt BigInt::operator<<(std::size_t bits) const {
    if (sign_ == 0) return {};
    return from_parts(sign_, detail::shl(mag_, bits));
}

BigInt BigInt::operator>>(std::size_t bits) const {
    if (sign_ == 0) return {};
    return from_parts(sign_, detail::shr(mag_, bits));
}

int BigInt::compare(const BigInt& a, const BigInt& b) {
    if (a.sign_ != b.sign_) return a.sign_ < b.sign_ ? -1 : 1;
    const int c = detail::cmp(a.mag_, b.mag_);
    return a.sign_ >= 0 ? c : -c;
}

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r) {
    if (b.sign_ == 0) throw std::domain_error("BigInt division by zero");
    detail::Limbs qm, rm;
    detail::divmod(a.mag_, b.mag_, qm, rm);
    q = from_parts(a.sign_ * b.sign_, std::move(qm));
    r = from_parts(a.sign_, std::move(rm));
}

BigInt operator/(const BigInt& a, const BigInt& b) {
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
    BigInt q, r;
    BigInt::divmod(a, b, q, r);
    return r;
}

BigInt BigInt::mod_floor(const BigInt& a, const BigInt& m) {
    BigInt r = a % m;
    if (r.is_negative()) r += m.abs();
    return r;
}

BigInt BigInt::divexact(const BigInt& d) const {
    BigInt q, r;
    divmod(*this, d, q, r);
    assert(r.is_zero() && "divexact: division was not exact");
    return q;
}

BigInt& BigInt::divexact_inplace(const BigInt& d) {
    if (d.sign_ == 0) throw std::domain_error("BigInt division by zero");
    if (sign_ == 0) return *this;
    if (d.mag_.size() == 1) {
        detail::divexact_small(mag_, d.mag_[0]);
        sign_ *= d.sign_;
        return *this;
    }
    return *this = divexact(d);
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
    a = a.abs();
    b = b.abs();
    while (!b.is_zero()) {
        BigInt r = a % b;
        a = std::move(b);
        b = std::move(r);
    }
    return a;
}

BigInt BigInt::pow(std::uint64_t e) const {
    BigInt result{1};
    BigInt base = *this;
    while (e != 0) {
        if (e & 1u) result *= base;
        base *= base;
        e >>= 1u;
    }
    return result;
}

BigInt BigInt::extract_bits(std::size_t lo, std::size_t len) const {
    BigInt out;
    out.assign_bits(*this, lo, len);
    return out;
}

BigInt& BigInt::assign_bits(const BigInt& src, std::size_t lo,
                            std::size_t len) {
    assert(&src != this);
    sign_ = 0;
    mag_.clear();
    const detail::Limbs& in = src.mag_;
    if (len == 0 || src.sign_ == 0) return *this;
    const std::size_t limb_shift = lo / 64;
    if (limb_shift >= in.size()) return *this;
    // Copy only the limbs of the window instead of shifting the whole tail
    // down (the old `shr(mag_, lo)` touched O(bit_length - lo) limbs per
    // digit, making digit splitting quadratic). The charge stays what the
    // full-tail shift cost: the normalized size of |src| >> lo.
    const std::size_t bl = detail::bit_length(in);
    const std::size_t shr_size = bl > lo ? (bl - lo + 63) / 64 : 0;
    OpsCounter::add(shr_size);
    if (lo >= bl) return *this;
    const std::size_t keep_limbs = (len + 63) / 64;
    const std::size_t out_n = std::min(keep_limbs, shr_size);
    mag_.assign(out_n, 0);
    const unsigned s = static_cast<unsigned>(lo % 64);
    if (s == 0) {
        for (std::size_t i = 0; i < out_n; ++i) mag_[i] = in[limb_shift + i];
    } else {
        for (std::size_t i = 0; i < out_n; ++i) {
            const std::uint64_t hi =
                (limb_shift + i + 1 < in.size()) ? in[limb_shift + i + 1] : 0;
            mag_[i] = (in[limb_shift + i] >> s) | (hi << (64 - s));
        }
    }
    const unsigned top_bits = static_cast<unsigned>(len % 64);
    if (top_bits != 0 && out_n == keep_limbs) {
        mag_.back() &= (~std::uint64_t{0}) >> (64 - top_bits);
    }
    detail::normalize(mag_);
    sign_ = mag_.empty() ? 0 : 1;
    return *this;
}

void add_scaled(BigInt& acc, const BigInt& x, std::int64_t c) {
    if (c == 0 || x.is_zero()) return;
    if (c == 1) {
        acc += x;
        return;
    }
    if (c == -1) {
        acc -= x;
        return;
    }
    const int term_sign = c > 0 ? x.sign_ : -x.sign_;
    const std::uint64_t mag =
        c > 0 ? static_cast<std::uint64_t>(c)
              : ~static_cast<std::uint64_t>(c) + 1;  // |c|, INT64_MIN-safe
    if (acc.sign_ == 0) {
        detail::mul_small_into(acc.mag_, x.mag_, mag);
        acc.sign_ = term_sign;
        return;
    }
    if (acc.sign_ == term_sign) {
        // Fast path: magnitudes accumulate in place.
        detail::addmul_small(acc.mag_, x.mag_, mag);
        return;
    }
    add_mul(acc, x, BigInt{c});
}

void add_mul(BigInt& acc, const BigInt& x, const BigInt& y) {
    if (x.sign_ == 0 || y.sign_ == 0) return;
    detail::ArenaScope scope;
    const std::size_t pn = x.mag_.size() + y.mag_.size();
    std::uint64_t* p = scope.alloc(pn);
    detail::mul_to(p, x.mag_.data(), x.mag_.size(), y.mag_.data(),
                   y.mag_.size());
    std::size_t n = pn;
    while (n > 0 && p[n - 1] == 0) --n;
    const int ps = x.sign_ * y.sign_;
    if (acc.sign_ == 0) {
        acc.mag_.assign(p, p + n);
        acc.sign_ = ps;
        return;
    }
    if (acc.sign_ == ps) {
        detail::add_into(acc.mag_, p, n);
        return;
    }
    const int c = detail::cmp(acc.mag_.data(), acc.mag_.size(), p, n);
    if (c == 0) {
        acc.sign_ = 0;
        acc.mag_.clear();
        return;
    }
    if (c > 0) {
        detail::sub_into(acc.mag_, p, n);
        return;
    }
    detail::rsub_into(acc.mag_, p, n);
    acc.sign_ = ps;
}

}  // namespace ftmul
