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

TEST(BigIntAlloc, LeafConvolveAllocatesOnlyItsContainers) {
    // A leaf of a 32768-bit chaos_recovery request (k = 2 on 9 ranks):
    // 261 digits of 32 bits.
    const ToomPlan& plan = ToomPlan::make(2);
    Rng rng{261};
    std::vector<BigInt> a, b;
    for (int i = 0; i < 261; ++i) a.push_back(random_below_2pow(rng, 32));
    for (int i = 0; i < 261; ++i) b.push_back(random_below_2pow(rng, 32));
    const std::vector<BigInt> zeros(261);
    (void)toom_convolve(plan, a, b, 4);  // warm-up

    // The recursion's shape depends only on the length, and a zero digit
    // has no limbs: the all-zero convolution allocates exactly the
    // std::vector containers, so the seeded one may allocate no more.
    const std::size_t containers =
        allocations([&] { (void)toom_convolve(plan, zeros, zeros, 4); });
    const std::size_t seeded =
        allocations([&] { (void)toom_convolve(plan, a, b, 4); });
    EXPECT_GT(containers, 0u);
    EXPECT_LE(seeded, containers);
}

}  // namespace
}  // namespace ftmul
