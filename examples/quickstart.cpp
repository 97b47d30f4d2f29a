// Quickstart: multiply two long integers with every engine in the library —
// sequential Toom-Cook-k (Algorithm 1), lazy interpolation (Algorithm 2),
// the parallel BFS-DFS algorithm (Section 3) and the fault-tolerant variant
// (Section 4) — and check they all agree.
//
//   ./quickstart [bits]

#include <cstdio>
#include <cstdlib>

#include "bigint/random.hpp"
#include "core/ft_poly.hpp"
#include "core/parallel.hpp"
#include "toom/lazy.hpp"
#include "toom/sequential.hpp"

int main(int argc, char** argv) {
    using namespace ftmul;
    const std::size_t bits =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1 << 15;

    // Deterministic random operands.
    Rng rng{2024};
    const BigInt a = random_bits(rng, bits);
    const BigInt b = random_bits(rng, bits);
    std::printf("multiplying two %zu-bit integers\n", bits);
    std::printf("a = %.40s... (%zu bits)\n", a.to_hex().c_str(), a.bit_length());
    std::printf("b = %.40s... (%zu bits)\n", b.to_hex().c_str(), b.bit_length());

    // Oracle: schoolbook multiplication on the bignum substrate.
    const BigInt expect = a * b;

    // 1. Sequential Toom-Cook-3 (paper Algorithm 1).
    const ToomPlan& plan3 = ToomPlan::make(3);
    const BigInt r1 = toom_multiply(a, b, plan3);
    std::printf("Toom-3 (Algorithm 1):            %s\n",
                r1 == expect ? "ok" : "MISMATCH");

    // 2. Toom-Cook-3 with lazy interpolation (paper Algorithm 2).
    const BigInt r2 = toom_multiply_lazy(a, b, plan3);
    std::printf("Toom-3 lazy (Algorithm 2):       %s\n",
                r2 == expect ? "ok" : "MISMATCH");

    // 3. Parallel Toom-Cook-2 on a simulated 9-processor machine.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    auto par = parallel_toom_multiply(a, b, cfg);
    std::printf("parallel Toom-2, P=9:            %s   (critical path: "
                "%llu flops, %llu words, %llu rounds)\n",
                par.product == expect ? "ok" : "MISMATCH",
                static_cast<unsigned long long>(par.stats.critical.flops),
                static_cast<unsigned long long>(par.stats.critical.words),
                static_cast<unsigned long long>(par.stats.critical.latency));

    // 4. Fault-tolerant run: one redundant evaluation point, and a processor
    //    actually dies during the multiplication phase.
    FtPolyConfig ft{cfg, /*faults=*/1};
    FaultPlan plan;
    plan.add("mul", 0);  // kill rank 0 (and thus its grid column)
    auto ftr = ft_poly_multiply(a, b, ft, plan);
    std::printf("FT Toom-2, 1 fault injected:     %s   (+%d code processors)\n",
                ftr.product == expect ? "ok" : "MISMATCH",
                ftr.extra_processors);

    return (r1 == expect && r2 == expect && par.product == expect &&
            ftr.product == expect)
               ? 0
               : 1;
}
