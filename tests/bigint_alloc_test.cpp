// Heap-allocation counts of the BigInt hot paths. This file replaces the
// global operator new with a counting one, so it must stay its own test
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bigint/bigint.hpp"
#include "bigint/random.hpp"
#include "toom/lazy.hpp"
#include "toom/plan.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ftmul {
namespace {

/// Heap allocations made while f() runs.
template <class F>
std::size_t allocations(F&& f) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    f();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(BigIntAlloc, InlineOperandsDoNotAllocate) {
    Rng rng{42};
    for (int trial = 0; trial < 16; ++trial) {
        // |a| < 2^100 and |b| < 2^20 keep every operand and result below
        // 2^125: two limbs, within detail::Limbs::kInline. Random signs
        // reach the add, subtract and reverse-subtract paths.
        const BigInt a = random_signed_bits(rng, 100);
        const BigInt b = random_signed_bits(rng, 20);
        BigInt c;
        auto ops = [&] {
            c = a + b;
            c = a - b;
            c += a;
            c -= b;
            c *= b;
            add_scaled(c, a, -3);
            add_scaled(c, b, 5);
            add_mul(c, a, b);
        };
        ops();  // warm-up: the thread's LimbArena slabs exist from here on
        EXPECT_EQ(allocations(ops), 0u) << "trial " << trial;
    }
}

TEST(BigIntAlloc, WarmLeafAllocatesOnlyItsResult) {
    // Leaves of chaos_recovery requests (k = 2, 32-bit digits): 72 digits
    // and 261 digits. Once the thread's LimbArena has grown, the word
    // kernel's scratch comes from it, so a call allocates only its result
    // vector, whatever the length.
    const ToomPlan& plan = ToomPlan::make(2);
    auto warm_leaf_allocations = [&](std::size_t len) {
        Rng rng{len};
        std::vector<BigInt> a, b;
        for (std::size_t i = 0; i < len; ++i) {
            a.push_back(random_below_2pow(rng, 32));
            b.push_back(random_below_2pow(rng, 32));
        }
        (void)toom_convolve(plan, a, b, 4);  // warm-up: arena slabs
        return allocations([&] { (void)toom_convolve(plan, a, b, 4); });
    };
    EXPECT_EQ(warm_leaf_allocations(72), 1u);
    EXPECT_EQ(warm_leaf_allocations(261), 1u);
}

}  // namespace
}  // namespace ftmul
