#include "bigint/limb_ops.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <new>
#include <utility>

#include "bigint/limb_arena.hpp"
#include "bigint/ops_counter.hpp"

namespace ftmul::detail {

namespace {

// Kernel batch-size histograms (see kernel_stats in the header). Plain
// process-wide relaxed atomics so the bigint layer stays free of any
// runtime/metrics dependency; the registry pulls these via a collector.
std::atomic<bool> g_kernel_stats_enabled{false};
using KernelHist = std::array<std::atomic<std::uint64_t>, kernel_stats::kBuckets>;
KernelHist g_mul_rows{};
KernelHist g_addmul_rows{};
KernelHist g_add_rows{};

inline void record_row(KernelHist& h, std::size_t len) noexcept {
    if (!g_kernel_stats_enabled.load(std::memory_order_relaxed)) [[likely]] {
        return;
    }
    if (len == 0) return;
    std::size_t b = static_cast<std::size_t>(std::bit_width(len)) - 1;
    if (b >= kernel_stats::kBuckets) b = kernel_stats::kBuckets - 1;
    h[b].fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace kernel_stats {

void set_enabled(bool on) noexcept {
    g_kernel_stats_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept {
    return g_kernel_stats_enabled.load(std::memory_order_relaxed);
}

void reset() noexcept {
    for (auto* h : {&g_mul_rows, &g_addmul_rows, &g_add_rows}) {
        for (auto& c : *h) c.store(0, std::memory_order_relaxed);
    }
}

Snapshot snapshot() noexcept {
    Snapshot s{};
    for (std::size_t i = 0; i < kBuckets; ++i) {
        s.mul_rows[i] = g_mul_rows[i].load(std::memory_order_relaxed);
        s.addmul_rows[i] = g_addmul_rows[i].load(std::memory_order_relaxed);
        s.add_rows[i] = g_add_rows[i].load(std::memory_order_relaxed);
    }
    return s;
}

}  // namespace kernel_stats

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// ---------------------------------------------------------------------------
// Schoolbook multiply core.
//
// Three row kernels, picked at runtime:
//   - addmul_1x4_adx: hand-written mulx/adcx/adox loop keeping two carry
//     chains live across a 4-limb unrolled body (the GMP addmul_1 shape).
//     Used when the CPU reports ADX+BMI2. Compiler-generated code (both the
//     u128 pattern and the _addcarryx_u64 intrinsics) serializes the carries
//     into a single flag chain, which is what caps it near 3-4 cycles per
//     limb product; the asm loop runs close to the multiplier throughput.
//   - addmul_4: portable 4x outer-unrolled u128 pipeline; wins on long rows
//     by quartering destination loads/stores per limb product.
//   - addmul_1: plain u128 row loop; fastest portable choice on short rows,
//     where addmul_4's pipeline setup outweighs its memory savings.
// The b-loop is additionally blocked so the multiplier chunk stays
// L1-resident for all rows of a pass.
// ---------------------------------------------------------------------------

/// dst[0..] += carry, propagating until the carry dies. The caller
/// guarantees the running partial sum fits its buffer, so this never runs
/// off the end.
inline void propagate_carry(u64* dst, u64 c) {
    for (std::size_t j = 0; c != 0; ++j) {
        const u128 s = static_cast<u128>(dst[j]) + c;
        dst[j] = static_cast<u64>(s);
        c = static_cast<u64>(s >> 64);
    }
}

/// dst[0..m+4) += (a0 + a1 B + a2 B^2 + a3 B^3) * b[0..m).
inline void addmul_4(u64* dst, const u64* b, std::size_t m, u64 a0, u64 a1,
                     u64 a2, u64 a3) {
    u64 c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    for (std::size_t j = 0; j < m; ++j) {
        const u64 bj = b[j];
        const u128 s0 = static_cast<u128>(a0) * bj + dst[j] + c0;
        dst[j] = static_cast<u64>(s0);
        const u128 s1 =
            static_cast<u128>(a1) * bj + c1 + static_cast<u64>(s0 >> 64);
        c0 = static_cast<u64>(s1);
        const u128 s2 =
            static_cast<u128>(a2) * bj + c2 + static_cast<u64>(s1 >> 64);
        c1 = static_cast<u64>(s2);
        const u128 s3 =
            static_cast<u128>(a3) * bj + c3 + static_cast<u64>(s2 >> 64);
        c2 = static_cast<u64>(s3);
        c3 = static_cast<u64>(s3 >> 64);
    }
    // Fold the carry pipeline into dst[m..m+4) and ripple any overflow.
    u128 t = static_cast<u128>(dst[m]) + c0;
    dst[m] = static_cast<u64>(t);
    t = static_cast<u128>(dst[m + 1]) + c1 + static_cast<u64>(t >> 64);
    dst[m + 1] = static_cast<u64>(t);
    t = static_cast<u128>(dst[m + 2]) + c2 + static_cast<u64>(t >> 64);
    dst[m + 2] = static_cast<u64>(t);
    t = static_cast<u128>(dst[m + 3]) + c3 + static_cast<u64>(t >> 64);
    dst[m + 3] = static_cast<u64>(t);
    propagate_carry(dst + m + 4, static_cast<u64>(t >> 64));
}

/// dst[0..m+1) += a0 * b[0..m).
inline void addmul_1(u64* dst, const u64* b, std::size_t m, u64 a0) {
    u64 carry = 0;
    for (std::size_t j = 0; j < m; ++j) {
        const u128 t = static_cast<u128>(a0) * b[j] + dst[j] + carry;
        dst[j] = static_cast<u64>(t);
        carry = static_cast<u64>(t >> 64);
    }
    const u128 t = static_cast<u128>(dst[m]) + carry;
    dst[m] = static_cast<u64>(t);
    propagate_carry(dst + m + 1, static_cast<u64>(t >> 64));
}

#if defined(__x86_64__) && defined(__GNUC__)

/// dst[0..4*blocks) += a * b[0..4*blocks); returns the carry limb.
/// Requires blocks > 0 and an ADX+BMI2 CPU. Dual carry chains: adox
/// accumulates the high-limb ripple, adcx folds into the destination; lea
/// and jrcxz steer the loop without touching either flag.
inline u64 addmul_1x4_adx(u64* dst, const u64* b, std::size_t blocks, u64 a) {
    u64 carry;
    asm volatile(
        "xor %%eax, %%eax\n\t"  // carry reg = 0, clears CF and OF
        "1:\n\t"
        "mulx 0(%[b]), %%r8, %%r9\n\t"
        "mulx 8(%[b]), %%r10, %%r11\n\t"
        "adox %%rax, %%r8\n\t"
        "adox %%r9, %%r10\n\t"
        "mulx 16(%[b]), %%r12, %%r13\n\t"
        "adox %%r11, %%r12\n\t"
        "mulx 24(%[b]), %%r14, %%rax\n\t"
        "adox %%r13, %%r14\n\t"
        "adcx 0(%[dst]), %%r8\n\t"
        "mov %%r8, 0(%[dst])\n\t"
        "adcx 8(%[dst]), %%r10\n\t"
        "mov %%r10, 8(%[dst])\n\t"
        "adcx 16(%[dst]), %%r12\n\t"
        "mov %%r12, 16(%[dst])\n\t"
        "adcx 24(%[dst]), %%r14\n\t"
        "mov %%r14, 24(%[dst])\n\t"
        "lea 32(%[b]), %[b]\n\t"
        "lea 32(%[dst]), %[dst]\n\t"
        "lea -1(%[cnt]), %[cnt]\n\t"
        "jrcxz 2f\n\t"
        "jmp 1b\n\t"
        "2:\n\t"
        // The true carry limb is rax + OF + CF; it cannot wrap because the
        // mathematical carry of dst += a*b fits one limb.
        "mov $0, %%r8d\n\t"
        "adox %%r8, %%rax\n\t"
        "adcx %%r8, %%rax\n\t"
        : [dst] "+r"(dst), [b] "+r"(b), [cnt] "+c"(blocks), "=&a"(carry)
        : "d"(a)
        : "r8", "r9", "r10", "r11", "r12", "r13", "r14", "cc", "memory");
    return carry;
}

/// dst[0..m+1) += a0 * b[0..m) via the ADX block kernel plus a u128 tail.
inline void addmul_1_adx(u64* dst, const u64* b, std::size_t m, u64 a0) {
    const std::size_t blocks = m / 4;
    u64 carry = 0;
    std::size_t j = 0;
    if (blocks != 0) {
        carry = addmul_1x4_adx(dst, b, blocks, a0);
        j = blocks * 4;
    }
    for (; j < m; ++j) {
        const u128 t = static_cast<u128>(a0) * b[j] + dst[j] + carry;
        dst[j] = static_cast<u64>(t);
        carry = static_cast<u64>(t >> 64);
    }
    const u128 t = static_cast<u128>(dst[m]) + carry;
    dst[m] = static_cast<u64>(t);
    propagate_carry(dst + m + 1, static_cast<u64>(t >> 64));
}

inline bool cpu_has_adx() {
    static const bool ok =
        __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
    return ok;
}

#endif  // __x86_64__ && __GNUC__

// ---------------------------------------------------------------------------
// Carry-chain add/sub cores. dst may alias either input: each limb is read
// before dst[i] is stored and iteration is forward. On x86-64 these are adc /
// sbb chains (baseline ISA, no dispatch needed) — the portable u128/borrow
// pattern compiles to a setc/movzx serialization that runs 3-4x slower.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) && defined(__GNUC__)

/// dst[0..n) = a[0..n) + b[0..n); returns the carry out.
inline u64 add_n(u64* dst, const u64* a, const u64* b, std::size_t n) {
    u64 carry = 0;
    std::size_t blocks = n / 4;
    std::size_t rem = n;
    if (blocks != 0) {
        // The lea steps below advance dst/a/b to the tail as a side effect.
        rem = n % 4;
        asm volatile(
            "xor %%eax, %%eax\n\t"  // clears CF
            "1:\n\t"
            "mov 0(%[a]), %%r8\n\t"
            "adc 0(%[b]), %%r8\n\t"
            "mov %%r8, 0(%[dst])\n\t"
            "mov 8(%[a]), %%r9\n\t"
            "adc 8(%[b]), %%r9\n\t"
            "mov %%r9, 8(%[dst])\n\t"
            "mov 16(%[a]), %%r10\n\t"
            "adc 16(%[b]), %%r10\n\t"
            "mov %%r10, 16(%[dst])\n\t"
            "mov 24(%[a]), %%r11\n\t"
            "adc 24(%[b]), %%r11\n\t"
            "mov %%r11, 24(%[dst])\n\t"
            "lea 32(%[a]), %[a]\n\t"
            "lea 32(%[b]), %[b]\n\t"
            "lea 32(%[dst]), %[dst]\n\t"
            "dec %[cnt]\n\t"  // dec leaves CF intact
            "jnz 1b\n\t"
            "setc %%al\n\t"
            "movzx %%al, %%rax\n\t"
            : [dst] "+r"(dst), [a] "+r"(a), [b] "+r"(b), [cnt] "+r"(blocks),
              "=&a"(carry)
            :
            : "r8", "r9", "r10", "r11", "cc", "memory");
    }
    for (std::size_t j = 0; j < rem; ++j) {
        const u128 s = static_cast<u128>(a[j]) + b[j] + carry;
        dst[j] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    return carry;
}

/// dst[0..n) = a[0..n) - b[0..n); returns the borrow out.
inline u64 sub_n(u64* dst, const u64* a, const u64* b, std::size_t n) {
    u64 borrow = 0;
    std::size_t blocks = n / 4;
    std::size_t rem = n;
    if (blocks != 0) {
        // The lea steps below advance dst/a/b to the tail as a side effect.
        rem = n % 4;
        asm volatile(
            "xor %%eax, %%eax\n\t"
            "1:\n\t"
            "mov 0(%[a]), %%r8\n\t"
            "sbb 0(%[b]), %%r8\n\t"
            "mov %%r8, 0(%[dst])\n\t"
            "mov 8(%[a]), %%r9\n\t"
            "sbb 8(%[b]), %%r9\n\t"
            "mov %%r9, 8(%[dst])\n\t"
            "mov 16(%[a]), %%r10\n\t"
            "sbb 16(%[b]), %%r10\n\t"
            "mov %%r10, 16(%[dst])\n\t"
            "mov 24(%[a]), %%r11\n\t"
            "sbb 24(%[b]), %%r11\n\t"
            "mov %%r11, 24(%[dst])\n\t"
            "lea 32(%[a]), %[a]\n\t"
            "lea 32(%[b]), %[b]\n\t"
            "lea 32(%[dst]), %[dst]\n\t"
            "dec %[cnt]\n\t"
            "jnz 1b\n\t"
            "setc %%al\n\t"
            "movzx %%al, %%rax\n\t"
            : [dst] "+r"(dst), [a] "+r"(a), [b] "+r"(b), [cnt] "+r"(blocks),
              "=&a"(borrow)
            :
            : "r8", "r9", "r10", "r11", "cc", "memory");
    }
    for (std::size_t j = 0; j < rem; ++j) {
        const u64 t = a[j] - b[j];
        const u64 b1 = t > a[j];
        const u64 t2 = t - borrow;
        const u64 b2 = t2 > t;
        dst[j] = t2;
        borrow = b1 | b2;
    }
    return borrow;
}

#else

inline u64 add_n(u64* dst, const u64* a, const u64* b, std::size_t n) {
    u64 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const u128 s = static_cast<u128>(a[j]) + b[j] + carry;
        dst[j] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    return carry;
}

inline u64 sub_n(u64* dst, const u64* a, const u64* b, std::size_t n) {
    u64 borrow = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const u64 t = a[j] - b[j];
        const u64 b1 = t > a[j];
        const u64 t2 = t - borrow;
        const u64 b2 = t2 > t;
        dst[j] = t2;
        borrow = b1 | b2;
    }
    return borrow;
}

#endif  // __x86_64__ && __GNUC__

/// Multiplier limbs per blocked pass; 2048 limbs = 16 KiB, comfortably
/// L1-resident together with the destination window it streams over.
constexpr std::size_t kMulBlockLimbs = 2048;

/// Rows shorter than this run the plain addmul_1 loop in the portable path;
/// addmul_4's pipeline only pays for itself on longer streams.
constexpr std::size_t kAddmul4MinRow = 128;

}  // namespace

Limbs::Limbs(std::vector<u64>&& v) : Limbs() {
    if (v.size() > kInline) {
        const std::size_t n = v.size();
        set_heap(std::move(v));
        size_ = n;
    } else {
        assign(v.data(), v.data() + v.size());
    }
}

void Limbs::grow(std::size_t n) {
    reserve(std::max(n, 2 * capacity()));
}

void Limbs::reserve(std::size_t n) {
    if (n <= capacity()) return;
    std::vector<u64> buf;
    buf.reserve(n);
    buf.assign(data_, data_ + size_);
    buf.resize(n);
    set_heap(std::move(buf));
}

void Limbs::assign_spill(std::size_t n, u64 v) {
    set_heap(std::vector<u64>(n, v));
    size_ = n;
}

void Limbs::assign_spill(const u64* first, std::size_t n) {
    // Copy before the old block goes: the range may lie inside it.
    set_heap(std::vector<u64>(first, first + n));
    size_ = n;
}

void normalize(Limbs& a) {
    while (!a.empty() && a.back() == 0) a.pop_back();
}

int cmp(const Limbs& a, const Limbs& b) {
    if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
    for (std::size_t i = a.size(); i-- > 0;) {
        if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

int cmp(const u64* a, std::size_t an, const u64* b, std::size_t bn) {
    while (an > 0 && a[an - 1] == 0) --an;
    while (bn > 0 && b[bn - 1] == 0) --bn;
    if (an != bn) return an < bn ? -1 : 1;
    for (std::size_t i = an; i-- > 0;) {
        if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

Limbs add(const Limbs& a, const Limbs& b) {
    const Limbs& lo = a.size() >= b.size() ? b : a;
    const Limbs& hi = a.size() >= b.size() ? a : b;
    // Exact pre-sizing: the sum has hi.size() limbs unless the top carries,
    // and then the top limb is 1 — no over-allocation, no normalize pass.
    Limbs out(hi.size());
    u64 carry = add_n(out.data(), hi.data(), lo.data(), lo.size());
    std::size_t i = lo.size();
    for (; carry != 0 && i < hi.size(); ++i) {
        const u128 s = static_cast<u128>(hi[i]) + carry;
        out[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    if (i < hi.size()) {
        std::memcpy(out.data() + i, hi.data() + i,
                    (hi.size() - i) * sizeof(u64));
    }
    if (carry != 0) out.push_back(carry);
    OpsCounter::add(hi.size());
    return out;
}

Limbs sub(const Limbs& a, const Limbs& b) {
    assert(cmp(a, b) >= 0);
    Limbs out(a.size());
    // Any b limbs beyond a.size() must be zero (a >= b), so clamp.
    const std::size_t bn = std::min(a.size(), b.size());
    u64 borrow = sub_n(out.data(), a.data(), b.data(), bn);
    std::size_t i = bn;
    for (; borrow != 0 && i < a.size(); ++i) {
        const u64 t = a[i] - borrow;
        borrow = t > a[i];
        out[i] = t;
    }
    if (i < a.size()) {
        std::memcpy(out.data() + i, a.data() + i, (a.size() - i) * sizeof(u64));
    }
    assert(borrow == 0);
    normalize(out);
    OpsCounter::add(a.size());
    return out;
}

void mul_to(u64* out, const u64* a, std::size_t an, const u64* b,
            std::size_t bn) {
    assert(an > 0 && bn > 0);
    // Rows come from the shorter operand so the streamed inner loops are as
    // long as possible.
    if (an > bn) {
        std::swap(a, b);
        std::swap(an, bn);
    }
    record_row(g_mul_rows, bn);
    std::memset(out, 0, (an + bn) * sizeof(u64));
    OpsCounter::add(an * bn);
#if defined(__x86_64__) && defined(__GNUC__)
    if (cpu_has_adx()) {
        for (std::size_t jb = 0; jb < bn; jb += kMulBlockLimbs) {
            const std::size_t len = std::min(kMulBlockLimbs, bn - jb);
            for (std::size_t i = 0; i < an; ++i) {
                addmul_1_adx(out + i + jb, b + jb, len, a[i]);
            }
        }
        return;
    }
#endif
    for (std::size_t jb = 0; jb < bn; jb += kMulBlockLimbs) {
        const std::size_t len = std::min(kMulBlockLimbs, bn - jb);
        std::size_t i = 0;
        if (len >= kAddmul4MinRow) {
            for (; i + 4 <= an; i += 4) {
                addmul_4(out + i + jb, b + jb, len, a[i], a[i + 1], a[i + 2],
                         a[i + 3]);
            }
        }
        for (; i < an; ++i) {
            addmul_1(out + i + jb, b + jb, len, a[i]);
        }
    }
}

Limbs mul(const Limbs& a, const Limbs& b) {
    Limbs out;
    mul_into(out, a, b);
    return out;
}

void mul_into(Limbs& out, const Limbs& a, const Limbs& b) {
    assert(&out != &a && &out != &b);
    if (a.empty() || b.empty()) {
        out.clear();
        return;
    }
    const std::size_t pn = a.size() + b.size();
    if (pn <= Limbs::kInline + 1) {
        // A 2+2- or 1+3-limb product may normalize to kInline limbs; sizing
        // out for pn first would spill such a value to the heap.
        u64 buf[Limbs::kInline + 1];
        mul_to(buf, a.data(), a.size(), b.data(), b.size());
        std::size_t n = pn;
        while (n > 0 && buf[n - 1] == 0) --n;
        out.assign(buf, buf + n);
        return;
    }
    out.assign(pn, 0);
    mul_to(out.data(), a.data(), a.size(), b.data(), b.size());
    normalize(out);
}

Limbs mul_small(const Limbs& a, u64 m) {
    Limbs out;
    mul_small_into(out, a, m);
    return out;
}

void mul_small_into(Limbs& out, const Limbs& a, u64 m) {
    assert(&out != &a);
    if (a.empty() || m == 0) {
        out.clear();
        return;
    }
    out.assign(a.size(), 0);
    u64 carry = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const u128 t = static_cast<u128>(a[i]) * m + carry;
        out[i] = static_cast<u64>(t);
        carry = static_cast<u64>(t >> 64);
    }
    if (carry != 0) out.push_back(carry);
    OpsCounter::add(a.size());
}

void addmul_small(Limbs& acc, const Limbs& x, u64 m) {
    if (x.empty() || m == 0) return;
    record_row(g_addmul_rows, x.size());
    if (acc.size() < x.size() + 1) acc.resize(x.size() + 1, 0);
    u64 carry = 0;
    std::size_t i = 0;
    for (; i < x.size(); ++i) {
        const u128 t = static_cast<u128>(x[i]) * m + acc[i] + carry;
        acc[i] = static_cast<u64>(t);
        carry = static_cast<u64>(t >> 64);
    }
    for (; carry != 0; ++i) {
        if (i == acc.size()) acc.push_back(0);
        const u128 t = static_cast<u128>(acc[i]) + carry;
        acc[i] = static_cast<u64>(t);
        carry = static_cast<u64>(t >> 64);
    }
    normalize(acc);
    OpsCounter::add(x.size());
}

void add_into(Limbs& acc, const Limbs& b) {
    record_row(g_add_rows, b.size());
    OpsCounter::add(std::max(acc.size(), b.size()));
    // Self-addition (doubling) is safe: sizes are equal so no resize happens,
    // and add_n reads each limb pair before storing.
    if (acc.size() < b.size()) acc.resize(b.size(), 0);
    u64 carry = add_n(acc.data(), acc.data(), b.data(), b.size());
    std::size_t i = b.size();
    for (; carry != 0 && i < acc.size(); ++i) {
        const u128 s = static_cast<u128>(acc[i]) + carry;
        acc[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    if (carry != 0) acc.push_back(carry);
}

void add_into(Limbs& acc, const u64* b, std::size_t bn) {
    assert(bn == 0 || b + bn <= acc.data() || b >= acc.data() + acc.size());
    record_row(g_add_rows, bn);
    OpsCounter::add(std::max(acc.size(), bn));
    if (acc.size() < bn) acc.resize(bn, 0);
    u64 carry = add_n(acc.data(), acc.data(), b, bn);
    std::size_t i = bn;
    for (; carry != 0 && i < acc.size(); ++i) {
        const u128 s = static_cast<u128>(acc[i]) + carry;
        acc[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    if (carry != 0) acc.push_back(carry);
}

namespace {

/// acc[0..an) -= b[0..bn) with bn <= an; returns nothing, asserts no final
/// borrow. Shared body of the sub_into overloads.
inline void sub_into_raw(u64* acc, std::size_t an, const u64* b,
                         std::size_t bn) {
    assert(bn <= an);
    u64 borrow = sub_n(acc, acc, b, bn);
    for (std::size_t i = bn; borrow != 0 && i < an; ++i) {
        const u64 t = acc[i] - borrow;
        borrow = t > acc[i];
        acc[i] = t;
    }
    assert(borrow == 0);
}

}  // namespace

void sub_into(Limbs& acc, const Limbs& b) {
    assert(cmp(acc, b) >= 0);
    OpsCounter::add(acc.size());
    sub_into_raw(acc.data(), acc.size(), b.data(), b.size());
    normalize(acc);
}

void sub_into(Limbs& acc, const u64* b, std::size_t bn) {
    assert(cmp(acc.data(), acc.size(), b, bn) >= 0);
    OpsCounter::add(acc.size());
    sub_into_raw(acc.data(), acc.size(), b, bn);
    normalize(acc);
}

void rsub_into(Limbs& acc, const u64* b, std::size_t bn) {
    assert(cmp(b, bn, acc.data(), acc.size()) >= 0);
    OpsCounter::add(bn);
    acc.resize(bn, 0);
    // dst aliases the subtrahend; sub_n reads both limbs before storing.
    const u64 borrow = sub_n(acc.data(), b, acc.data(), bn);
    assert(borrow == 0);
    (void)borrow;
    normalize(acc);
}

Limbs shl(const Limbs& a, std::size_t bits) {
    Limbs out = a;
    shl_into(out, bits);
    return out;
}

void shl_into(Limbs& a, std::size_t bits) {
    if (a.empty()) return;
    const std::size_t limb_shift = bits / 64;
    const unsigned bit_shift = static_cast<unsigned>(bits % 64);
    const std::size_t n = a.size();
    OpsCounter::add(n);
    if (bit_shift == 0) {
        if (limb_shift == 0) return;
        a.resize(n + limb_shift);
        for (std::size_t i = n; i-- > 0;) a[i + limb_shift] = a[i];
        std::fill_n(a.begin(), limb_shift, 0);
        return;
    }
    const u64 top = a[n - 1] >> (64 - bit_shift);
    a.resize(n + limb_shift + (top != 0 ? 1 : 0));
    if (top != 0) a[n + limb_shift] = top;
    for (std::size_t i = n - 1; i > 0; --i) {
        a[i + limb_shift] = (a[i] << bit_shift) | (a[i - 1] >> (64 - bit_shift));
    }
    a[limb_shift] = a[0] << bit_shift;
    std::fill_n(a.begin(), limb_shift, 0);
}

Limbs shr(const Limbs& a, std::size_t bits) {
    const std::size_t limb_shift = bits / 64;
    if (limb_shift >= a.size()) return {};
    const unsigned bit_shift = static_cast<unsigned>(bits % 64);
    Limbs out(a.size() - limb_shift, 0);
    if (bit_shift == 0) {
        for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i + limb_shift];
    } else {
        for (std::size_t i = 0; i < out.size(); ++i) {
            const u64 hi = (i + limb_shift + 1 < a.size()) ? a[i + limb_shift + 1] : 0;
            out[i] = (a[i + limb_shift] >> bit_shift) | (hi << (64 - bit_shift));
        }
    }
    normalize(out);
    OpsCounter::add(out.size());
    return out;
}

void shr_into(Limbs& a, std::size_t bits) {
    const std::size_t limb_shift = bits / 64;
    if (limb_shift >= a.size()) {
        a.clear();
        return;
    }
    const unsigned bit_shift = static_cast<unsigned>(bits % 64);
    const std::size_t out_n = a.size() - limb_shift;
    if (bit_shift == 0) {
        if (limb_shift != 0) {
            for (std::size_t i = 0; i < out_n; ++i) a[i] = a[i + limb_shift];
        }
    } else {
        for (std::size_t i = 0; i < out_n; ++i) {
            const u64 hi = (i + limb_shift + 1 < a.size()) ? a[i + limb_shift + 1] : 0;
            a[i] = (a[i + limb_shift] >> bit_shift) | (hi << (64 - bit_shift));
        }
    }
    a.resize(out_n);
    normalize(a);
    OpsCounter::add(a.size());
}

std::uint64_t divmod_small(Limbs& a, u64 d) {
    assert(d != 0);
    u64 rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
        const u128 cur = (static_cast<u128>(rem) << 64) | a[i];
        a[i] = static_cast<u64>(cur / d);
        rem = static_cast<u64>(cur % d);
    }
    normalize(a);
    OpsCounter::add(a.size() + 1);
    return rem;
}

void divexact_small(Limbs& a, u64 d) {
    assert(d != 0);
    const auto shift = static_cast<unsigned>(std::countr_zero(d));
    const u64 odd = d >> shift;
    const u64 inv = inverse_odd(odd);
    const std::size_t n = a.size();
    assert(n == 0 || (a[0] & ((u64{1} << shift) - 1)) == 0);
    // One pass: limb i of a >> shift is read before limb i is overwritten,
    // and q_i = (u_i - carry) * inv makes q_i * odd agree with u_i - carry
    // mod 2^64; the high half of q_i * odd carries into the next limb, and
    // the final carry is zero exactly when odd divides the value.
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        u64 u = a[i];
        if (shift != 0) {
            const u64 hi = i + 1 < n ? a[i + 1] : 0;
            u = (u >> shift) | (hi << (64 - shift));
        }
        const u64 borrow = u < carry ? 1 : 0;
        const u64 q = (u - carry) * inv;
        a[i] = q;
        carry = static_cast<u64>((static_cast<u128>(q) * odd) >> 64) + borrow;
    }
    assert(carry == 0 && "divexact: division was not exact");
    normalize(a);
    OpsCounter::add(a.size() + 1);
}

void divmod(const Limbs& a, const Limbs& b, Limbs& q, Limbs& r) {
    assert(!b.empty());
    if (cmp(a, b) < 0) {
        q.clear();
        r = a;
        return;
    }
    if (b.size() == 1) {
        q = a;
        const u64 rem = divmod_small(q, b[0]);
        r = rem ? Limbs{rem} : Limbs{};
        return;
    }

    // Knuth TAOCP vol.2 Algorithm D with the usual normalization so the
    // divisor's top limb has its high bit set. The normalized copies vn/un
    // are scratch that dies with the call — arena words, not vectors, so
    // repeated divisions (radix conversion, recovery-path rationals)
    // allocate nothing after warmup. Charges replicate the old
    // shl/shl/shr-based path exactly.
    const unsigned s = static_cast<unsigned>(std::countl_zero(b.back()));
    const std::size_t n = b.size();
    const std::size_t usize = a.size();
    const std::size_t m = usize - n;
    ArenaScope scope;
    u64* vn = scope.alloc(n);
    u64* un = scope.alloc(usize + 1);
    if (s == 0) {
        std::copy(b.begin(), b.end(), vn);
        std::copy(a.begin(), a.end(), un);
        un[usize] = 0;
    } else {
        u64 carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            vn[i] = (b[i] << s) | carry;
            carry = b[i] >> (64 - s);
        }
        assert(carry == 0);  // s = clz(b.back()) leaves no spill
        carry = 0;
        for (std::size_t i = 0; i < usize; ++i) {
            un[i] = (a[i] << s) | carry;
            carry = a[i] >> (64 - s);
        }
        un[usize] = carry;
    }
    OpsCounter::add(n);      // matches the former shl(b, s)
    OpsCounter::add(usize);  // matches the former shl(a, s)

    q.assign(m + 1, 0);
    for (std::size_t j = m + 1; j-- > 0;) {
        const u64 u2 = un[j + n];
        const u64 u1 = un[j + n - 1];
        const u64 u0 = un[j + n - 2];
        const u128 num = (static_cast<u128>(u2) << 64) | u1;

        u128 qhat = num / vn[n - 1];
        u128 rhat = num % vn[n - 1];
        while (qhat >= (static_cast<u128>(1) << 64) ||
               qhat * vn[n - 2] > ((rhat << 64) | u0)) {
            --qhat;
            rhat += vn[n - 1];
            if (rhat >= (static_cast<u128>(1) << 64)) break;
        }
        u64 qh = static_cast<u64>(qhat);

        // Multiply-and-subtract qh * vn from un[j .. j+n].
        u64 mul_carry = 0;
        u64 borrow = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const u128 p = static_cast<u128>(qh) * vn[i] + mul_carry;
            mul_carry = static_cast<u64>(p >> 64);
            const u64 plo = static_cast<u64>(p);
            const u64 ui = un[j + i];
            const u64 t = ui - plo;
            const u64 b1 = t > ui;
            const u64 t2 = t - borrow;
            const u64 b2 = t2 > t;
            un[j + i] = t2;
            borrow = b1 + b2;  // never both 1: t == 0 forces b1 == 0
        }
        const u64 top = un[j + n];
        const u128 need = static_cast<u128>(mul_carry) + borrow;
        if (static_cast<u128>(top) < need) {
            // qh was one too large: wraparound-subtract, then add back vn.
            un[j + n] = top - static_cast<u64>(need);
            --qh;
            u64 c = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const u128 ssum = static_cast<u128>(un[j + i]) + vn[i] + c;
                un[j + i] = static_cast<u64>(ssum);
                c = static_cast<u64>(ssum >> 64);
            }
            un[j + n] += c;  // wraps back to the correct limb
        } else {
            un[j + n] = top - static_cast<u64>(need);
        }
        q[j] = qh;
    }

    // r = un[0..n) >> s, written straight into the caller's vector with the
    // former shr()'s charge (its post-normalize size).
    r.resize(n);
    if (s == 0) {
        std::copy(un, un + n, r.begin());
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            const u64 hi = i + 1 < n ? un[i + 1] : 0;
            r[i] = (un[i] >> s) | (hi << (64 - s));
        }
    }
    normalize(r);
    OpsCounter::add(r.size());
    normalize(q);
    OpsCounter::add((m + 1) * n);
}

std::size_t bit_length(const Limbs& a) {
    if (a.empty()) return 0;
    return 64 * a.size() - static_cast<std::size_t>(std::countl_zero(a.back()));
}

bool get_bit(const Limbs& a, std::size_t i) {
    const std::size_t limb = i / 64;
    if (limb >= a.size()) return false;
    return (a[limb] >> (i % 64)) & 1u;
}

// ---------------------------------------------------------------------------
// Reference kernels — the pre-optimization implementations, verbatim.
// ---------------------------------------------------------------------------

Limbs add_reference(const Limbs& a, const Limbs& b) {
    const Limbs& lo = a.size() >= b.size() ? b : a;
    const Limbs& hi = a.size() >= b.size() ? a : b;
    Limbs out(hi.size() + 1, 0);
    u64 carry = 0;
    std::size_t i = 0;
    for (; i < lo.size(); ++i) {
        const u128 s = static_cast<u128>(hi[i]) + lo[i] + carry;
        out[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    for (; i < hi.size(); ++i) {
        const u128 s = static_cast<u128>(hi[i]) + carry;
        out[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
    }
    out[hi.size()] = carry;
    normalize(out);
    OpsCounter::add(hi.size());
    return out;
}

Limbs sub_reference(const Limbs& a, const Limbs& b) {
    assert(cmp(a, b) >= 0);
    Limbs out(a.size(), 0);
    u64 borrow = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const u64 bi = i < b.size() ? b[i] : 0;
        const u64 t = a[i] - bi;
        const u64 b1 = t > a[i];
        const u64 t2 = t - borrow;
        const u64 b2 = t2 > t;
        out[i] = t2;
        borrow = b1 | b2;
    }
    assert(borrow == 0);
    normalize(out);
    OpsCounter::add(a.size());
    return out;
}

Limbs mul_reference(const Limbs& a, const Limbs& b) {
    if (a.empty() || b.empty()) return {};
    Limbs out(a.size() + b.size(), 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        u64 carry = 0;
        const u64 ai = a[i];
        for (std::size_t j = 0; j < b.size(); ++j) {
            const u128 t = static_cast<u128>(ai) * b[j] + out[i + j] + carry;
            out[i + j] = static_cast<u64>(t);
            carry = static_cast<u64>(t >> 64);
        }
        out[i + b.size()] = carry;
    }
    normalize(out);
    OpsCounter::add(a.size() * b.size());
    return out;
}

void divmod_reference(const Limbs& a, const Limbs& b, Limbs& q, Limbs& r) {
    assert(!b.empty());
    if (cmp(a, b) < 0) {
        q.clear();
        r = a;
        return;
    }
    if (b.size() == 1) {
        q = a;
        const u64 rem = divmod_small(q, b[0]);
        r = rem ? Limbs{rem} : Limbs{};
        return;
    }
    const unsigned s = static_cast<unsigned>(std::countl_zero(b.back()));
    Limbs vn = shl(b, s);
    Limbs un = shl(a, s);
    const std::size_t n = vn.size();
    const std::size_t usize = a.size();
    un.resize(usize + 1, 0);
    const std::size_t m = usize - n;

    q.assign(m + 1, 0);
    for (std::size_t j = m + 1; j-- > 0;) {
        const u64 u2 = un[j + n];
        const u64 u1 = un[j + n - 1];
        const u64 u0 = un[j + n - 2];
        const u128 num = (static_cast<u128>(u2) << 64) | u1;

        u128 qhat = num / vn[n - 1];
        u128 rhat = num % vn[n - 1];
        while (qhat >= (static_cast<u128>(1) << 64) ||
               qhat * vn[n - 2] > ((rhat << 64) | u0)) {
            --qhat;
            rhat += vn[n - 1];
            if (rhat >= (static_cast<u128>(1) << 64)) break;
        }
        u64 qh = static_cast<u64>(qhat);

        u64 mul_carry = 0;
        u64 borrow = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const u128 p = static_cast<u128>(qh) * vn[i] + mul_carry;
            mul_carry = static_cast<u64>(p >> 64);
            const u64 plo = static_cast<u64>(p);
            const u64 ui = un[j + i];
            const u64 t = ui - plo;
            const u64 b1 = t > ui;
            const u64 t2 = t - borrow;
            const u64 b2 = t2 > t;
            un[j + i] = t2;
            borrow = b1 + b2;
        }
        const u64 top = un[j + n];
        const u128 need = static_cast<u128>(mul_carry) + borrow;
        if (static_cast<u128>(top) < need) {
            un[j + n] = top - static_cast<u64>(need);
            --qh;
            u64 c = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const u128 ssum = static_cast<u128>(un[j + i]) + vn[i] + c;
                un[j + i] = static_cast<u64>(ssum);
                c = static_cast<u64>(ssum >> 64);
            }
            un[j + n] += c;
        } else {
            un[j + n] = top - static_cast<u64>(need);
        }
        q[j] = qh;
    }

    un.resize(n);
    r = shr(un, s);
    normalize(q);
    OpsCounter::add((m + 1) * n);
}

Limbs shl_reference(const Limbs& a, std::size_t bits) {
    if (a.empty()) return {};
    const std::size_t limb_shift = bits / 64;
    const unsigned bit_shift = static_cast<unsigned>(bits % 64);
    Limbs out(a.size() + limb_shift + 1, 0);
    if (bit_shift == 0) {
        for (std::size_t i = 0; i < a.size(); ++i) out[i + limb_shift] = a[i];
    } else {
        u64 carry = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            out[i + limb_shift] = (a[i] << bit_shift) | carry;
            carry = a[i] >> (64 - bit_shift);
        }
        out[a.size() + limb_shift] = carry;
    }
    normalize(out);
    OpsCounter::add(a.size());
    return out;
}

}  // namespace ftmul::detail
