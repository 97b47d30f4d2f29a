#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace ftmul::detail {

/// Magnitude of a big integer: little-endian 64-bit limbs, normalized so the
/// most significant limb is nonzero. The empty buffer represents zero.
///
/// A vector-like limb buffer with small-buffer storage: up to kInline limbs
/// live inside the object, larger values spill to a heap std::vector. Toom
/// digit coefficients are one to three limbs, and giving each its own heap
/// block made malloc the hot path of every leaf (docs/PERFORMANCE.md,
/// "Small-buffer limbs").
///
/// Semantics follow std::vector<std::uint64_t> wherever the kernels can see
/// them: value-initializing constructors and resize(), contiguous storage,
/// capacity kept across shrinking, and copies and assign() that allocate
/// exactly the size they need. Growth through resize()/push_back() is
/// geometric. Moving a spilled buffer transfers its heap block; moving an
/// inline one copies its limbs. Either way the source is left empty. A
/// spilled buffer stays on the heap until it is moved from or destroyed.
class Limbs {
public:
    using value_type = std::uint64_t;
    using iterator = std::uint64_t*;
    using const_iterator = const std::uint64_t*;
    using const_reverse_iterator = std::reverse_iterator<const_iterator>;

    /// Limbs held without a heap allocation. Three limbs take exactly the
    /// space of the std::vector they share a union with, so the third costs
    /// nothing over two. They hold every Toom leaf coefficient at 32- and
    /// 64-bit digits.
    static constexpr std::size_t kInline = 3;

    Limbs() noexcept : data_(inline_) {}
    explicit Limbs(std::size_t n, std::uint64_t v = 0) : Limbs() { assign(n, v); }
    Limbs(std::initializer_list<std::uint64_t> il) : Limbs() {
        assign(il.begin(), il.end());
    }
    template <std::contiguous_iterator It>
    Limbs(It first, It last) : Limbs() {
        assign(std::to_address(first), std::to_address(last));
    }
    /// Takes over @p v's heap block when it is larger than kInline limbs
    /// (no copy); shorter vectors are copied inline.
    explicit Limbs(std::vector<std::uint64_t>&& v);

    Limbs(const Limbs& o) : Limbs() { assign(o.begin(), o.end()); }
    Limbs(Limbs&& o) noexcept : Limbs() { take(o); }
    Limbs& operator=(const Limbs& o) {
        if (this != &o) assign(o.begin(), o.end());
        return *this;
    }
    Limbs& operator=(Limbs&& o) noexcept {
        if (this != &o) take(o);
        return *this;
    }
    ~Limbs() {
        if (on_heap()) heap_.~vector();
    }

    std::uint64_t* data() noexcept { return data_; }
    const std::uint64_t* data() const noexcept { return data_; }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::size_t capacity() const noexcept {
        return on_heap() ? heap_.size() : kInline;
    }
    /// True when the limbs live in a heap block rather than in the object.
    bool on_heap() const noexcept { return data_ != inline_; }

    std::uint64_t& operator[](std::size_t i) noexcept { return data_[i]; }
    const std::uint64_t& operator[](std::size_t i) const noexcept { return data_[i]; }
    std::uint64_t& back() noexcept { return data_[size_ - 1]; }
    const std::uint64_t& back() const noexcept { return data_[size_ - 1]; }

    iterator begin() noexcept { return data_; }
    iterator end() noexcept { return data_ + size_; }
    const_iterator begin() const noexcept { return data_; }
    const_iterator end() const noexcept { return data_ + size_; }
    const_reverse_iterator rbegin() const noexcept {
        return const_reverse_iterator(end());
    }
    const_reverse_iterator rend() const noexcept {
        return const_reverse_iterator(begin());
    }

    void clear() noexcept { size_ = 0; }
    void pop_back() noexcept { --size_; }
    void push_back(std::uint64_t v) {
        if (size_ == capacity()) grow(size_ + 1);
        data_[size_++] = v;
    }
    /// New limbs are set to @p v.
    void resize(std::size_t n, std::uint64_t v = 0) {
        if (n > size_) {
            if (n > capacity()) grow(n);
            std::fill(data_ + size_, data_ + n, v);
        }
        size_ = n;
    }
    /// Capacity of exactly @p n limbs when more than the current one.
    void reserve(std::size_t n);
    void assign(std::size_t n, std::uint64_t v) {
        if (n > capacity()) {
            assign_spill(n, v);
            return;
        }
        std::fill_n(data_, n, v);
        size_ = n;
    }
    /// [first, last) may lie inside this buffer.
    void assign(const std::uint64_t* first, const std::uint64_t* last) {
        const auto n = static_cast<std::size_t>(last - first);
        if (n > capacity()) {
            assign_spill(first, n);
            return;
        }
        // A range inside this buffer starts at or after data_, so a forward
        // copy is safe.
        for (std::size_t i = 0; i < n; ++i) data_[i] = first[i];
        size_ = n;
    }

    friend bool operator==(const Limbs& a, const Limbs& b) noexcept {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

private:
    /// Geometric growth to at least @p n limbs, keeping the contents.
    void grow(std::size_t n);
    /// Make @p buf the heap block; buf.size() becomes the capacity.
    void set_heap(std::vector<std::uint64_t>&& buf) noexcept {
        if (on_heap()) {
            heap_ = std::move(buf);
        } else {
            new (&heap_) std::vector<std::uint64_t>(std::move(buf));
        }
        data_ = heap_.data();
    }
    /// Move-assign body: steal o's heap block or copy its inline limbs.
    void take(Limbs& o) noexcept {
        if (o.on_heap()) {
            set_heap(std::move(o.heap_));
            size_ = o.size_;
            o.heap_.~vector();
            o.data_ = o.inline_;
        } else {
            // o.size_ <= kInline <= capacity(): no allocation.
            for (std::size_t i = 0; i < o.size_; ++i) data_[i] = o.data_[i];
            size_ = o.size_;
        }
        o.size_ = 0;
    }
    /// assign() of n > capacity() limbs into an exact-size heap block.
    void assign_spill(const std::uint64_t* first, std::size_t n);
    void assign_spill(std::size_t n, std::uint64_t v);

    std::uint64_t* data_;  // inline_ or heap_.data()
    std::size_t size_ = 0;
    union {
        std::uint64_t inline_[kInline];
        // Active iff on_heap(); its size() is the capacity, not size_.
        std::vector<std::uint64_t> heap_;
    };
};

/// Drop trailing (most-significant) zero limbs.
void normalize(Limbs& a);

/// Three-way magnitude comparison: negative / zero / positive.
int cmp(const Limbs& a, const Limbs& b);

/// Raw-span magnitude comparison; operands need not be normalized.
int cmp(const std::uint64_t* a, std::size_t an, const std::uint64_t* b,
        std::size_t bn);

/// a + b.
Limbs add(const Limbs& a, const Limbs& b);

/// a - b; requires cmp(a, b) >= 0.
Limbs sub(const Limbs& a, const Limbs& b);

/// Schoolbook product, Theta(|a|*|b|) limb multiplications. The inner loop
/// is cache-blocked and processes four multiplier limbs per pass (see
/// docs/PERFORMANCE.md). A wrapper over mul_into.
Limbs mul(const Limbs& a, const Limbs& b);

/// a * m for a single-limb multiplier. A wrapper over mul_small_into.
Limbs mul_small(const Limbs& a, std::uint64_t m);

/// acc += x * m in place (single-limb multiplier) — the fused kernel behind
/// the evaluation/interpolation linear maps; avoids two temporaries per
/// accumulation.
void addmul_small(Limbs& acc, const Limbs& x, std::uint64_t m);

/// a << bits.
Limbs shl(const Limbs& a, std::size_t bits);

/// a >> bits (toward zero).
Limbs shr(const Limbs& a, std::size_t bits);

/// In-place divide by a single limb d != 0; a becomes the quotient and the
/// remainder is returned.
std::uint64_t divmod_small(Limbs& a, std::uint64_t d);

/// odd^-1 mod 2^64 for an odd @p odd: the multiplier of Hensel (exact)
/// division. odd * odd == 1 mod 8, and each Newton step doubles the number
/// of correct low bits: 3, 6, 12, 24, 48, 96.
constexpr std::uint64_t inverse_odd(std::uint64_t odd) noexcept {
    std::uint64_t inv = odd;
    for (int step = 0; step < 5; ++step) inv *= 2 - odd * inv;
    return inv;
}

/// In-place exact division by a single limb d != 0, which must divide a
/// (asserted): d's power of two is shifted out and the odd part divided by
/// multiplying each limb by inverse_odd, with no hardware divide. Charges
/// what divmod_small charges, |a / d| + 1.
void divexact_small(Limbs& a, std::uint64_t d);

/// Knuth Algorithm D long division: computes q, r with a = q*b + r and
/// 0 <= r < b. Requires b nonzero.
void divmod(const Limbs& a, const Limbs& b, Limbs& q, Limbs& r);

/// Number of significant bits (0 for zero).
std::size_t bit_length(const Limbs& a);

/// Value of bit i (false beyond the top).
bool get_bit(const Limbs& a, std::size_t i);

// ---------------------------------------------------------------------------
// Destination-passing kernels (the allocation-free hot path).
//
// Every kernel below writes into caller-provided storage and charges
// OpsCounter exactly like its allocating counterpart above, so the modeled
// arithmetic cost F is unchanged by routing through them. Contracts are
// documented per kernel and in docs/PERFORMANCE.md.
// ---------------------------------------------------------------------------

/// acc += b in place. Self-addition (&acc == &b) is allowed.
void add_into(Limbs& acc, const Limbs& b);

/// acc += b[0..bn) in place; b must not alias acc's storage.
void add_into(Limbs& acc, const std::uint64_t* b, std::size_t bn);

/// acc -= b in place; requires cmp(acc, b) >= 0.
void sub_into(Limbs& acc, const Limbs& b);

/// acc -= b[0..bn) in place; requires acc >= b; no aliasing.
void sub_into(Limbs& acc, const std::uint64_t* b, std::size_t bn);

/// acc = b - acc in place; requires b >= acc; no aliasing.
void rsub_into(Limbs& acc, const std::uint64_t* b, std::size_t bn);

/// out[0..an+bn) = a * b. out must not overlap either input; it is fully
/// overwritten (no pre-zeroing needed) and is NOT normalized — the top limb
/// may be zero. Charges an*bn like mul(). Requires an, bn > 0.
void mul_to(std::uint64_t* out, const std::uint64_t* a, std::size_t an,
            const std::uint64_t* b, std::size_t bn);

/// out = a * b through mul_to, in out's storage when it fits; out must not
/// alias a or b. A product of kInline + 1 limbs is formed on the stack, so
/// one that normalizes to kInline limbs stays inline.
void mul_into(Limbs& out, const Limbs& a, const Limbs& b);

/// out = a * m in out's storage when it fits; out must not alias a.
/// Charges |a| like mul_small.
void mul_small_into(Limbs& out, const Limbs& a, std::uint64_t m);

/// a <<= bits in place.
void shl_into(Limbs& a, std::size_t bits);

/// a >>= bits in place (toward zero).
void shr_into(Limbs& a, std::size_t bits);

// ---------------------------------------------------------------------------
// Reference kernels: the original out-of-place implementations, kept
// verbatim as the oracle for randomized differential tests
// (fuzz_differential_test) and as the baseline rows of bench_kernels. They
// charge OpsCounter identically to the optimized kernels.
// ---------------------------------------------------------------------------

Limbs add_reference(const Limbs& a, const Limbs& b);
Limbs sub_reference(const Limbs& a, const Limbs& b);
Limbs mul_reference(const Limbs& a, const Limbs& b);
Limbs shl_reference(const Limbs& a, std::size_t bits);
void divmod_reference(const Limbs& a, const Limbs& b, Limbs& q, Limbs& r);

// ---------------------------------------------------------------------------
// Kernel batch-size statistics.
//
// When enabled, the batched kernels record the length of each streamed row
// (the inner-loop trip count) into power-of-two histograms — the data that
// tells whether a workload's kernel calls are long enough to amortize the
// 4-way unrolled / ADX paths. Disabled by default: the only cost on the hot
// path is one relaxed atomic load and a predicted-untaken branch per kernel
// call. The MetricsRegistry collector publishes nonzero buckets as
// ftmul_kernel_rows{kernel=...,ge=...} gauges when metrics are on.
// ---------------------------------------------------------------------------
namespace kernel_stats {

/// Bucket k counts rows of length in [2^k, 2^(k+1)); the last bucket
/// absorbs everything longer.
inline constexpr std::size_t kBuckets = 24;

void set_enabled(bool on) noexcept;
bool enabled() noexcept;
void reset() noexcept;

struct Snapshot {
    std::array<std::uint64_t, kBuckets> mul_rows;     ///< mul_to inner rows
    std::array<std::uint64_t, kBuckets> addmul_rows;  ///< addmul_small rows
    std::array<std::uint64_t, kBuckets> add_rows;     ///< add_into rows
};
Snapshot snapshot() noexcept;

}  // namespace kernel_stats

}  // namespace ftmul::detail
