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
#include "toom/sequential.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
// Not inlined: GCC 12 otherwise sees free() of memory from the replaced
// operator new where gtest inlines a delete, and warns
// -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

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
        // Two limbs each, with a product of three: the 2+2-limb product
        // buffer must not spill to the heap.
        const BigInt x = random_signed_bits(rng, 90);
        const BigInt y = random_signed_bits(rng, 90);
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
            c = x * y;
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

TEST(BigIntAlloc, WarmToomMultiplyAllocatesOnlyItsProduct) {
    // Once the thread's level workspaces and LimbArena have grown, a call
    // allocates only its product, however deep the recursion goes.
    struct Case {
        const char* name;
        int k;
        std::size_t threshold_bits;
        std::size_t a_bits, b_bits;
        bool negative;
    };
    const Case cases[] = {
        {"schoolbook", 3, 2048, 1500, 1200, false},
        {"one Toom-3 level", 3, 2048, 3500, 3000, false},
        {"two Toom-3 levels", 3, 512, 3500, 3000, false},
        {"Toom-2 down to 64 bits", 2, 64, 4000, 3900, false},
        {"negative result", 3, 2048, 4000, 2500, true},
    };
    for (const Case& c : cases) {
        Rng rng{c.a_bits + c.b_bits};
        const BigInt a = random_bits(rng, c.a_bits);
        const BigInt b = c.negative ? -random_bits(rng, c.b_bits)
                                    : random_bits(rng, c.b_bits);
        const ToomPlan& plan = ToomPlan::make(c.k);
        ToomOptions opts;
        opts.threshold_bits = c.threshold_bits;
        BigInt p = toom_multiply(a, b, plan, opts);  // warm-up
        EXPECT_EQ(allocations([&] { p = toom_multiply(a, b, plan, opts); }),
                  1u)
            << c.name;
        EXPECT_EQ(p, a * b) << c.name;
    }
}

}  // namespace
}  // namespace ftmul
