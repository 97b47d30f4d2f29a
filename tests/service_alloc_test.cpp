// Heap-allocation count of one steady-state MultiplyService round trip. This
// file replaces the global operator new with a counting one, so it must
// stay its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bigint/random.hpp"
#include "service/service.hpp"
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

/// Heap allocations made while f() runs, on any thread.
template <class F>
std::size_t allocations(F&& f) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    f();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ServiceAlloc, RoundTripAddsOnlyThePromiseToTheMultiply) {
    // A warm submit -> get round trip allocates what the multiply itself
    // allocates, plus the promise's two blocks (its shared state and its
    // result). The admission queue reuses its map nodes, and the stats
    // shard, the batch vector and the spare-node list are warm.
    ServiceConfig cfg;
    cfg.executors = 1;
    MultiplyService service(cfg);
    const ToomPlan& plan = ToomPlan::make(3);
    Rng rng{2024};
    for (int i = 0; i < 20; ++i) {
        MultiplyRequest req;
        req.a = random_bits(rng, 90 + 40 * static_cast<std::size_t>(i % 4));
        req.b = random_bits(rng, 90);
        const std::size_t multiply =
            allocations([&] { (void)toom_multiply(req.a, req.b, plan); });
        MultiplyOutcome out;
        const std::size_t round_trip = allocations(
            [&] { out = service.submit(std::move(req)).get(); });
        ASSERT_EQ(out.status, OutcomeStatus::Completed) << out.error;
        if (i < 4) continue;  // warm-up: one request of each size
        EXPECT_EQ(round_trip, multiply + 2) << "request " << i;
    }
}

}  // namespace
}  // namespace ftmul
