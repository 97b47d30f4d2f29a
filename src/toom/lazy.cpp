#include "toom/lazy.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "bigint/limb_arena.hpp"
#include "bigint/ops_counter.hpp"
#include "toom/digits.hpp"

namespace ftmul {

std::size_t lazy_result_len(int k, std::size_t len, std::size_t base_len) {
    const auto uk = static_cast<std::size_t>(k);
    if (len <= base_len || len < uk || len % uk != 0) return 2 * len - 1;
    return (2 * uk - 1) * lazy_result_len(k, len / uk, base_len);
}

std::vector<BigInt> lazy_convolve(const ToomPlan& plan,
                                  std::span<const BigInt> a,
                                  std::span<const BigInt> b,
                                  std::size_t base_len) {
    assert(a.size() == b.size() && !a.empty());
    const auto k = static_cast<std::size_t>(plan.k());
    const std::size_t len = a.size();
    // Lengths that are small or not divisible by k fall back to the direct
    // convolution (the generalized "fits one operation" base case).
    if (len <= base_len || len < k || len % k != 0) {
        return convolve_schoolbook(a, b);
    }

    const std::size_t m = len / k;
    const std::size_t npts = plan.num_base_points();

    std::vector<BigInt> ea(npts * m), eb(npts * m);
    plan.evaluate_blocks(a, ea, m);  // the 2k-1 base points
    plan.evaluate_blocks(b, eb, m);

    std::vector<BigInt> children;
    std::size_t child_len = 0;
    for (std::size_t i = 0; i < npts; ++i) {
        auto child = lazy_convolve(
            plan, std::span<const BigInt>(ea).subspan(i * m, m),
            std::span<const BigInt>(eb).subspan(i * m, m), base_len);
        child_len = child.size();
        children.insert(children.end(),
                        std::make_move_iterator(child.begin()),
                        std::make_move_iterator(child.end()));
    }

    std::vector<BigInt> out(npts * child_len);
    plan.interpolation().apply_blocks(children, out, child_len);
    return out;
}

BigInt lazy_recompose(const ToomPlan& plan, std::span<const BigInt> coeffs,
                      std::size_t digit_bits, std::size_t input_len,
                      std::size_t base_len) {
    const auto k = static_cast<std::size_t>(plan.k());
    if (input_len <= base_len || input_len < k || input_len % k != 0) {
        assert(coeffs.size() == 2 * input_len - 1);
        return recompose_digits(coeffs, digit_bits);
    }
    const std::size_t m = input_len / k;
    const std::size_t npts = plan.num_base_points();
    assert(coeffs.size() % npts == 0);
    const std::size_t child_len = coeffs.size() / npts;

    BigInt acc;
    for (std::size_t i = npts; i-- > 0;) {
        // Horner over the level variable y = B^m.
        acc <<= m * digit_bits;
        acc += lazy_recompose(plan, coeffs.subspan(i * child_len, child_len),
                              digit_bits, m, base_len);
    }
    return acc;
}

namespace {

void check_operands(std::span<const BigInt> a, std::span<const BigInt> b) {
    if (a.empty() || b.empty()) {
        throw std::invalid_argument("toom_convolve: empty operand");
    }
    if (a.size() != b.size()) {
        throw std::invalid_argument("toom_convolve: operand lengths differ");
    }
}

/// Positional Toom-Cook convolution: interpolation results are overlap-added
/// into positional coefficients at every level (the same carry-free fold as
/// the distributed algorithm), so lengths that are not multiples of k can be
/// zero-padded per level and truncated afterwards at no structural cost.
std::vector<BigInt> convolve_rec(const ToomPlan& plan,
                                 std::span<const BigInt> a,
                                 std::span<const BigInt> b,
                                 std::size_t base_len) {
    const auto k = static_cast<std::size_t>(plan.k());
    const std::size_t len = a.size();
    if (len <= base_len || len < k) return convolve_schoolbook(a, b);
    if (len % k != 0) {
        const std::size_t padded = (len / k + 1) * k;
        std::vector<BigInt> ap(a.begin(), a.end()), bp(b.begin(), b.end());
        ap.resize(padded);
        bp.resize(padded);
        auto out = convolve_rec(plan, ap, bp, base_len);
        out.resize(2 * len - 1);  // trailing coefficients are zero
        return out;
    }

    const std::size_t m = len / k;
    const std::size_t npts = plan.num_base_points();

    std::vector<BigInt> ea(npts * m), eb(npts * m);
    plan.evaluate_blocks(a, ea, m);  // the 2k-1 base points
    plan.evaluate_blocks(b, eb, m);

    const std::size_t rc = 2 * m;  // padded child result length
    std::vector<BigInt> children(npts * rc);
    for (std::size_t i = 0; i < npts; ++i) {
        auto child = convolve_rec(
            plan, std::span<const BigInt>(ea).subspan(i * m, m),
            std::span<const BigInt>(eb).subspan(i * m, m), base_len);
        for (std::size_t t = 0; t < child.size(); ++t) {
            children[i * rc + t] = std::move(child[t]);
        }
    }

    std::vector<BigInt> coeffs(npts * rc);
    plan.interpolation().apply_blocks(children, coeffs, rc);

    std::vector<BigInt> out(2 * len - 1);
    for (std::size_t i = 0; i < npts; ++i) {
        const std::size_t limit = std::min(rc, out.size() - i * m);
        for (std::size_t t = 0; t < limit; ++t) {
            out[i * m + t] += coeffs[i * rc + t];
        }
    }
    return out;
}

}  // namespace

std::vector<BigInt> toom_convolve_reference(const ToomPlan& plan,
                                            std::span<const BigInt> a,
                                            std::span<const BigInt> b,
                                            std::size_t base_len) {
    check_operands(a, b);
    return convolve_rec(plan, a, b, base_len);
}

// Flat leaf: convolve_rec on fixed-width words. Every coefficient is W limbs
// of two's complement in one arena buffer, with W fixed at compile time by a
// growth bound on the operands and the plan, so each primitive is a short
// carry chain that cannot overflow. Each primitive charges OpsCounter what
// the BigInt kernel it replaces charges, from the normalized limb count |v|
// of its operands' magnitudes:
//   acc += t            0 if t = 0, acc = 0 or acc = -t; else max(|acc|, |t|)
//   acc += c*x, |c|>=2  0 if x = 0; |x| if acc = 0 or acc has c*x's sign;
//                       else |x|, plus max(|acc|, |c*x|) unless acc = -c*x
//   acc += x*y          0 if x = 0 or y = 0; else |x|*|y|, plus
//                       max(|acc|, |x*y|) unless acc = 0 or acc = -x*y
//   v / d, d != 1       0 if v = 0; else |v/d| + 1
// (add_signed, add_scaled, add_mul and divexact_inplace in bigint.cpp).

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// One coefficient in registers: W little-endian limbs, two's complement.
/// In the arena buffer a word is W consecutive limbs.
template <int W>
struct Word {
    u64 l[W];
};

template <int W>
Word<W> load(const u64* p) {
    Word<W> v;
    for (int i = 0; i < W; ++i) v.l[i] = p[i];
    return v;
}

template <int W>
void store(u64* p, const Word<W>& v) {
    for (int i = 0; i < W; ++i) p[i] = v.l[i];
}

template <int W>
bool is_zero(const Word<W>& v) {
    u64 any = 0;
    for (int i = 0; i < W; ++i) any |= v.l[i];
    return any == 0;
}

template <int W>
bool is_negative(const Word<W>& v) {
    return (v.l[W - 1] >> 63) != 0;
}

// Two-limb words use the compiler's 128-bit arithmetic.
u128 as_u128(const Word<2>& v) {
    return static_cast<u128>(v.l[1]) << 64 | v.l[0];
}

Word<2> from_u128(u128 v) {
    return {{static_cast<u64>(v), static_cast<u64>(v >> 64)}};
}

template <int W>
Word<W> add(const Word<W>& a, const Word<W>& b) {
    if constexpr (W == 2) return from_u128(as_u128(a) + as_u128(b));
    Word<W> r;
    u64 carry = 0;
    for (int i = 0; i < W; ++i) {
        const u128 s = static_cast<u128>(a.l[i]) + b.l[i] + carry;
        r.l[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    return r;
}

template <int W>
Word<W> negate(const Word<W>& v) {
    if constexpr (W == 2) return from_u128(u128{0} - as_u128(v));
    Word<W> r;
    u64 carry = 1;
    for (int i = 0; i < W; ++i) {
        const u128 s = static_cast<u128>(~v.l[i]) + carry;
        r.l[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    return r;
}

/// |v|, computed without branches: v ^ s - s for s the sign mask.
template <int W>
Word<W> magnitude(const Word<W>& v) {
    if constexpr (W == 2) {
        const u128 x = as_u128(v);
        const auto s = static_cast<u128>(static_cast<__int128>(x) >> 127);
        return from_u128((x ^ s) - s);
    }
    const u64 s = u64{0} - (v.l[W - 1] >> 63);
    Word<W> m;
    u64 carry = s & 1;
    for (int i = 0; i < W; ++i) {
        const u128 t = static_cast<u128>(v.l[i] ^ s) + carry;
        m.l[i] = static_cast<u64>(t);
        carry = static_cast<u64>(t >> 64);
    }
    return m;
}

/// The limb count of v's normalized magnitude, BigInt::limb_count().
template <int W>
u64 limbs(const Word<W>& v) {
    const Word<W> m = magnitude(v);
    u64 n = 0;
    for (int i = 0; i < W; ++i) n = m.l[i] != 0 ? static_cast<u64>(i + 1) : n;
    return n;
}

/// v * m mod 2^(64W).
template <int W>
Word<W> mul_u64(const Word<W>& v, u64 m) {
    if constexpr (W == 2) return from_u128(as_u128(v) * m);
    Word<W> r;
    u64 carry = 0;
    for (int i = 0; i < W; ++i) {
        const u128 t = static_cast<u128>(v.l[i]) * m + carry;
        r.l[i] = static_cast<u64>(t);
        carry = static_cast<u64>(t >> 64);
    }
    return r;
}

/// x * y mod 2^(64W), which is the signed product whenever it fits.
template <int W>
Word<W> mul(const Word<W>& x, const Word<W>& y) {
    if constexpr (W == 2) return from_u128(as_u128(x) * as_u128(y));
    Word<W> r{};
    for (int i = 0; i < W; ++i) {
        u64 carry = 0;
        for (int j = 0; i + j < W; ++j) {
            const u128 t =
                static_cast<u128>(x.l[i]) * y.l[j] + r.l[i + j] + carry;
            r.l[i + j] = static_cast<u64>(t);
            carry = static_cast<u64>(t >> 64);
        }
    }
    return r;
}

// The charge rules as primitives that add their charge to @p tally. Only the
// charge depends on which case applies; the sum is formed the same way in
// every case. They are forced inline: as calls, each one sends its words
// and the tally through memory, which costs more than the arithmetic.

/// acc += t.
template <int W>
[[gnu::always_inline]] inline void add_to(Word<W>& acc, const Word<W>& t,
                                          u64& tally) {
    const Word<W> s = add(acc, t);
    const bool charged = !is_zero(t) && !is_zero(acc) && !is_zero(s);
    tally += charged ? std::max(limbs(acc), limbs(t)) : 0;
    acc = s;
}

/// acc += c * x for a plan coefficient c (two's complement in a u64).
template <int W>
[[gnu::always_inline]] inline void add_scaled(Word<W>& acc, const Word<W>& x,
                                              u64 c, u64& tally) {
    if (c == 0) return;
    if (c == 1) {
        add_to(acc, x, tally);
        return;
    }
    if (c == ~u64{0}) {
        add_to(acc, negate(x), tally);
        return;
    }
    const bool c_neg = (c >> 63) != 0;
    Word<W> cx = mul_u64(x, c_neg ? ~c + 1 : c);
    if (c_neg) cx = negate(cx);
    const Word<W> s = add(acc, cx);
    const bool opposite = !is_zero(cx) && !is_zero(acc) &&
                          is_negative(acc) != is_negative(cx);
    tally += limbs(x) +
             (opposite && !is_zero(s) ? std::max(limbs(acc), limbs(cx)) : 0);
    acc = s;
}

/// c * x as the first term of a sum that starts at zero (add_scaled on a
/// zero acc).
template <int W>
[[gnu::always_inline]] inline Word<W> scaled(const Word<W>& x, u64 c,
                                             u64& tally) {
    if (c == 1) return x;
    if (c == ~u64{0}) return negate(x);
    const bool c_neg = (c >> 63) != 0;
    const Word<W> cx = mul_u64(x, c_neg ? ~c + 1 : c);
    tally += limbs(x);
    return c_neg ? negate(cx) : cx;
}

/// acc += x * y, with xn = |x|.
template <int W>
[[gnu::always_inline]] inline void add_mul(Word<W>& acc, const Word<W>& x,
                                           u64 xn, const Word<W>& y,
                                           u64& tally) {
    const Word<W> p = mul(x, y);
    const Word<W> s = add(acc, p);
    const bool charged = !is_zero(p) && !is_zero(acc) && !is_zero(s);
    tally += xn * limbs(y) + (charged ? std::max(limbs(acc), limbs(p)) : 0);
    acc = s;
}

/// v / (odd * 2^shift) for a division the recursion makes exact, with inv
/// = odd^-1 mod 2^64. The remainder is checked like
/// BigInt::divexact_inplace's.
template <int W>
[[gnu::always_inline]] inline Word<W> div_exact(const Word<W>& v, u64 odd,
                                                u64 inv, unsigned shift,
                                                u64& tally) {
    Word<W> u = magnitude(v);
    [[maybe_unused]] const u64 low = u.l[0] & ((u64{1} << shift) - 1);
    if (shift != 0) {
        for (int j = 0; j < W; ++j) {
            const u64 hi = j + 1 < W ? u.l[j + 1] : 0;
            u.l[j] = (u.l[j] >> shift) | (hi << (64 - shift));
        }
    }
    // Hensel division by the odd part: q = u * inv limb by limb, and the
    // final carry is zero exactly when odd divides u.
    Word<W> q;
    u64 carry = 0;
    for (int j = 0; j < W; ++j) {
        const u64 borrow = u.l[j] < carry ? 1 : 0;
        q.l[j] = (u.l[j] - carry) * inv;
        carry = static_cast<u64>((static_cast<u128>(q.l[j]) * odd) >> 64) +
                borrow;
    }
    assert(low == 0 && carry == 0 && "divexact: division was not exact");
    tally += is_zero(v) ? 0 : limbs(q) + 1;
    return is_negative(v) ? negate(q) : q;
}

template <int W>
Word<W> to_word(const BigInt& v) {
    Word<W> w{};
    const detail::Limbs& mag = v.magnitude();
    assert(mag.size() <= static_cast<std::size_t>(W));
    for (std::size_t i = 0; i < mag.size(); ++i) w.l[i] = mag[i];
    return v.is_negative() ? negate(w) : w;
}

template <int W>
BigInt to_bigint(const Word<W>& w) {
    const Word<W> m = magnitude(w);
    return BigInt::from_parts(is_negative(w) ? -1 : 1,
                              detail::Limbs(m.l, m.l + limbs(m)));
}

/// ceil(log2(x)), 0 for x <= 1.
unsigned ceil_log2(u128 x) {
    if (x <= 1) return 0;
    const u128 y = x - 1;
    const auto hi = static_cast<u64>(y >> 64);
    return hi != 0 ? 64 + static_cast<unsigned>(std::bit_width(hi))
                   : static_cast<unsigned>(std::bit_width(static_cast<u64>(y)));
}

/// What the word kernel reads of a plan, copied into arena limbs once per
/// call. Coefficients are stored as their two's-complement u64.
struct FlatPlan {
    std::size_t k = 0;
    std::size_t npts = 0;
    std::size_t base_len = 0;
    const u64* eval = nullptr;  ///< npts x k base evaluation rows
    const u64* num = nullptr;   ///< npts x npts interpolation numerators
    /// Per row: the denominator d, its odd part d >> shift, the odd part's
    /// inverse mod 2^64, and shift.
    const u64* den = nullptr;
    unsigned eval_bits = 0;  ///< ceil(log2(largest evaluation-row L1 norm))
    unsigned num_bits = 0;   ///< ceil(log2(largest numerator-row L1 norm))
};

/// Fills @p fp from @p plan; false when an interpolation numerator or
/// denominator does not fit one machine word.
bool read_plan(const ToomPlan& plan, std::size_t base_len,
               detail::ArenaScope& scope, FlatPlan& fp) {
    const InterpOperator& interp = plan.interpolation();
    if (!interp.small_coefficients()) return false;
    for (const BigInt& d : interp.denominators()) {
        if (d.limb_count() != 1) return false;
    }
    const auto k = static_cast<std::size_t>(plan.k());
    const std::size_t npts = plan.num_base_points();
    fp.k = k;
    fp.npts = npts;
    fp.base_len = base_len;
    u64* eval = scope.alloc(npts * k + npts * npts + 4 * npts);
    u64* num = eval + npts * k;
    u64* den = num + npts * npts;

    u128 eval_l1 = 0;
    for (std::size_t r = 0; r < npts; ++r) {
        u128 l1 = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const std::int64_t c = plan.eval_matrix()(r, j);
            eval[r * k + j] = static_cast<u64>(c);
            l1 += c < 0 ? ~static_cast<u64>(c) + 1 : static_cast<u64>(c);
        }
        eval_l1 = std::max(eval_l1, l1);
    }
    u128 num_l1 = 0;
    for (std::size_t i = 0; i < npts; ++i) {
        u128 l1 = 0;
        for (std::size_t j = 0; j < npts; ++j) {
            const BigInt& c = interp.numerators()(i, j);
            num[i * npts + j] = static_cast<u64>(c.to_int64());
            if (!c.is_zero()) l1 += c.magnitude()[0];
        }
        num_l1 = std::max(num_l1, l1);

        const u64 d = interp.denominators()[i].magnitude()[0];
        const auto shift = static_cast<unsigned>(std::countr_zero(d));
        const u64 odd = d >> shift;
        den[4 * i] = d;
        den[4 * i + 1] = odd;
        den[4 * i + 2] = detail::inverse_odd(odd);
        den[4 * i + 3] = shift;
    }
    fp.eval = eval;
    fp.num = num;
    fp.den = den;
    fp.eval_bits = ceil_log2(eval_l1);
    fp.num_bits = ceil_log2(num_l1);
    return true;
}

/// Limbs per word that hold every value the recursion forms on @p a and
/// @p b. The operands are below 2^bits, and each of the depth levels
/// multiplies that by at most 2^eval_bits, so leaf inputs are below
/// 2^(bits + depth * eval_bits) =: A. Every later value (schoolbook sums,
/// interpolation numerator sums, quotients and overlap-added coefficients)
/// is at most 2 * N1 * Lmax * A^2, where N1 <= 2^num_bits and Lmax is the
/// longest padded length at any level; one more bit holds the sign.
std::size_t flat_width(const FlatPlan& fp, std::span<const BigInt> a,
                       std::span<const BigInt> b) {
    std::size_t bits = 0;
    for (const BigInt& v : a) bits = std::max(bits, v.bit_length());
    for (const BigInt& v : b) bits = std::max(bits, v.bit_length());
    std::size_t depth = 0;
    std::size_t longest = a.size();
    for (std::size_t n = a.size(); n > fp.base_len && n >= fp.k; n /= fp.k) {
        if (n % fp.k != 0) n = (n / fp.k + 1) * fp.k;
        longest = std::max(longest, n);
        ++depth;
    }
    const std::size_t need = 2 * (bits + depth * fp.eval_bits) +
                             ceil_log2(longest) + fp.num_bits + 2;
    return (need + 63) / 64;
}

/// Index of the first nonzero coefficient of a plan row (every row of an
/// evaluation or interpolation matrix has one).
std::size_t first_nonzero(const u64* row, std::size_t n) {
    std::size_t j = 0;
    while (j < n && row[j] == 0) ++j;
    assert(j < n && "a plan row is all zero");
    return j;
}

/// convolve_rec over W-limb words, with the charge tally kept in ops.
template <int W>
class FlatLeaf {
public:
    explicit FlatLeaf(const FlatPlan& p) : p_(p) {}

    /// Scratch limbs convolve() needs below a call of length len.
    std::size_t scratch(std::size_t len) const {
        const std::size_t k = p_.k;
        if (len <= p_.base_len || len < k) return 0;
        if (len % k != 0) {
            const std::size_t padded = (len / k + 1) * k;
            return W * (4 * padded - 1) + scratch(padded);
        }
        const std::size_t m = len / k;
        return W * 4 * p_.npts * m + scratch(m);
    }

    /// out[0, 2*len-1) = a * b, using s as scratch(len) limbs of scratch.
    void convolve(const u64* a, const u64* b, std::size_t len, u64* out,
                  u64* s) {
        const std::size_t k = p_.k;
        if (len <= p_.base_len || len < k) {
            schoolbook(a, b, len, out);
            return;
        }
        if (len % k != 0) {
            // Zero-pad to the next multiple of k; the padded product's
            // trailing coefficients are zero.
            const std::size_t padded = (len / k + 1) * k;
            u64* ap = s;
            u64* bp = ap + W * padded;
            u64* op = bp + W * padded;
            std::copy_n(a, W * len, ap);
            std::fill(ap + W * len, ap + W * padded, u64{0});
            std::copy_n(b, W * len, bp);
            std::fill(bp + W * len, bp + W * padded, u64{0});
            convolve(ap, bp, padded, op, op + W * (2 * padded - 1));
            std::copy_n(op, W * (2 * len - 1), out);
            return;
        }
        const std::size_t m = len / k;
        const std::size_t npts = p_.npts;
        const std::size_t rc = 2 * m;  // padded child result length
        u64* ea = s;
        u64* eb = ea + W * npts * m;
        u64* children = eb + W * npts * m;
        u64* rest = children + W * npts * rc;
        evaluate(a, ea, m);
        evaluate(b, eb, m);
        for (std::size_t i = 0; i < npts; ++i) {
            u64* child = children + W * i * rc;
            convolve(ea + W * i * m, eb + W * i * m, m, child, rest);
            store(child + W * (rc - 1), Word<W>{});
        }
        interpolate_add(children, m, out, 2 * len - 1);
    }

    u64 ops = 0;

private:
    /// convolve_schoolbook: out[0, 2*len-1) = a * b.
    void schoolbook(const u64* a, const u64* b, std::size_t len, u64* out) {
        // out[i + j] is first written by i = 0 or by j = len - 1; a first
        // write is add_mul on a zero acc.
        u64 tally = 0;
        for (std::size_t i = 0; i < len; ++i) {
            const Word<W> x = load<W>(a + W * i);
            const u64 xn = limbs(x);
            for (std::size_t j = 0; j < len; ++j) {
                const Word<W> y = load<W>(b + W * j);
                u64* o = out + W * (i + j);
                if (i == 0 || j == len - 1) {
                    tally += xn * limbs(y);
                    store(o, mul(x, y));
                    continue;
                }
                Word<W> acc = load<W>(o);
                add_mul(acc, x, xn, y, tally);
                store(o, acc);
            }
        }
        ops += tally;
    }

    /// evaluate_blocks over the base rows: k blocks of m words in, npts out.
    void evaluate(const u64* in, u64* out, std::size_t m) {
        const std::size_t k = p_.k;
        u64 tally = 0;
        for (std::size_t r = 0; r < p_.npts; ++r) {
            const u64* row = p_.eval + r * k;
            const std::size_t j0 = first_nonzero(row, k);
            for (std::size_t t = 0; t < m; ++t) {
                Word<W> acc = scaled(load<W>(in + W * (j0 * m + t)),
                                     row[j0], tally);
                for (std::size_t j = j0 + 1; j < k; ++j) {
                    add_scaled(acc, load<W>(in + W * (j * m + t)), row[j],
                               tally);
                }
                store(out + W * (r * m + t), acc);
            }
        }
        ops += tally;
    }

    /// apply_blocks on the npts child results (2m words apart), each row's
    /// coefficients overlap-added at offset i*m into out's out_len words as
    /// soon as they are formed. Every coefficient of out still receives its
    /// terms in convolve_rec's order, row 0 first, and its first term is
    /// stored, as adding it to convolve_rec's zero would be.
    void interpolate_add(const u64* children, std::size_t m, u64* out,
                         std::size_t out_len) {
        const std::size_t npts = p_.npts;
        const std::size_t rc = 2 * m;
        u64 tally = 0;
        for (std::size_t i = 0; i < npts; ++i) {
            const u64* row = p_.num + i * npts;
            const std::size_t j0 = first_nonzero(row, npts);
            const u64* den = p_.den + 4 * i;
            const auto shift = static_cast<unsigned>(den[3]);
            for (std::size_t t = 0; t < rc; ++t) {
                Word<W> acc = scaled(load<W>(children + W * (j0 * rc + t)),
                                     row[j0], tally);
                for (std::size_t j = j0 + 1; j < npts; ++j) {
                    add_scaled(acc, load<W>(children + W * (j * rc + t)),
                               row[j], tally);
                }
                if (den[0] != 1) {
                    acc = div_exact(acc, den[1], den[2], shift, tally);
                }
                if (i * m + t >= out_len) continue;
                // Row i writes coefficients i*m .. i*m + 2m - 1; the first
                // m of them row i - 1 wrote before, the rest are new.
                u64* o = out + W * (i * m + t);
                if (i == 0 || t >= m) {
                    store(o, acc);
                    continue;
                }
                Word<W> sum = load<W>(o);
                add_to(sum, acc, tally);
                store(o, sum);
            }
        }
        ops += tally;
    }

    const FlatPlan& p_;
};

template <int W>
void run_flat(const FlatPlan& fp, std::span<const BigInt> a,
              std::span<const BigInt> b, std::span<BigInt> out,
              detail::ArenaScope& scope) {
    FlatLeaf<W> leaf(fp);
    const std::size_t len = a.size();
    const std::size_t rlen = 2 * len - 1;
    u64* wa = scope.alloc(W * (2 * len + rlen) + leaf.scratch(len));
    u64* wb = wa + W * len;
    u64* wout = wb + W * len;
    for (std::size_t i = 0; i < len; ++i) {
        store(wa + W * i, to_word<W>(a[i]));
        store(wb + W * i, to_word<W>(b[i]));
    }
    leaf.convolve(wa, wb, len, wout, wout + W * rlen);
    for (std::size_t t = 0; t < rlen; ++t) {
        out[t] = to_bigint(load<W>(wout + W * t));
    }
    OpsCounter::add(leaf.ops);
}

/// The word width toom_convolve uses for these operands: 2 or 3 limbs, or 0
/// for the BigInt recursion. Fills @p fp when it is not 0.
std::size_t word_limbs(const ToomPlan& plan, std::span<const BigInt> a,
                       std::span<const BigInt> b, std::size_t base_len,
                       detail::ArenaScope& scope, FlatPlan& fp) {
    if (!read_plan(plan, base_len, scope, fp)) return 0;
    const std::size_t w = flat_width(fp, a, b);
    return w <= 2 ? 2 : (w == 3 ? 3 : 0);
}

}  // namespace

std::size_t detail::toom_convolve_word_limbs(const ToomPlan& plan,
                                             std::span<const BigInt> a,
                                             std::span<const BigInt> b,
                                             std::size_t base_len) {
    check_operands(a, b);
    detail::ArenaScope scope;
    FlatPlan fp;
    return word_limbs(plan, a, b, base_len, scope, fp);
}

void toom_convolve_into(const ToomPlan& plan, std::span<const BigInt> a,
                        std::span<const BigInt> b, std::size_t base_len,
                        std::span<BigInt> out) {
    check_operands(a, b);
    const std::size_t rlen = 2 * a.size() - 1;
    if (out.size() < rlen) {
        throw std::invalid_argument(
            "toom_convolve_into: output shorter than 2 * len - 1");
    }
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(rlen), out.end(),
              BigInt{});
    const std::span<BigInt> head = out.first(rlen);

    detail::ArenaScope scope;
    FlatPlan fp;
    switch (word_limbs(plan, a, b, base_len, scope, fp)) {
        case 2:
            run_flat<2>(fp, a, b, head, scope);
            return;
        case 3:
            run_flat<3>(fp, a, b, head, scope);
            return;
        default:
            break;
    }
    std::vector<BigInt> ref = convolve_rec(plan, a, b, base_len);
    std::move(ref.begin(), ref.end(), head.begin());
}

std::vector<BigInt> toom_convolve(const ToomPlan& plan,
                                  std::span<const BigInt> a,
                                  std::span<const BigInt> b,
                                  std::size_t base_len) {
    check_operands(a, b);
    std::vector<BigInt> out(2 * a.size() - 1);
    toom_convolve_into(plan, a, b, base_len, out);
    return out;
}

BigInt toom_multiply_lazy(const BigInt& a, const BigInt& b,
                          const ToomPlan& plan, const LazyOptions& opts) {
    if (a.is_zero() || b.is_zero()) return {};
    const auto k = static_cast<std::size_t>(plan.k());
    const std::size_t n = std::max(a.bit_length(), b.bit_length());

    // Smallest k^l digit count that fits both inputs.
    std::size_t count = 1;
    while (count * opts.digit_bits < n) count *= k;

    const std::vector<BigInt> da =
        split_digits_abs(a, opts.digit_bits, count);
    const std::vector<BigInt> db =
        split_digits_abs(b, opts.digit_bits, count);
    const std::vector<BigInt> coeffs =
        lazy_convolve(plan, da, db, opts.base_len);
    BigInt result =
        lazy_recompose(plan, coeffs, opts.digit_bits, count, opts.base_len);
    assert(!result.is_negative());
    return a.sign() * b.sign() < 0 ? -result : result;
}

}  // namespace ftmul
