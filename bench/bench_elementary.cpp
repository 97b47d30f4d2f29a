// Elementary functions riding fast multiplication (the paper's opening
// motivation): Newton-reciprocal division vs the Knuth word algorithm,
// integer square root, and product-tree factorials with a Toom kernel.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.hpp"

#include "bigint/random.hpp"
#include "funcs/elementary.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

BigInt toom_mul(const BigInt& x, const BigInt& y) {
    ToomOptions opts;
    opts.threshold_bits = 3072;
    return toom_multiply(x, y, ToomPlan::make(3), opts);
}

void BM_DivKnuth(benchmark::State& state) {
    Rng rng{7};
    const auto bits = static_cast<std::size_t>(state.range(0));
    const BigInt a = random_bits(rng, 2 * bits);
    const BigInt b = random_bits(rng, bits);
    for (auto _ : state) {
        BigInt q, r;
        BigInt::divmod(a, b, q, r);
        benchmark::DoNotOptimize(q);
    }
}
BENCHMARK(BM_DivKnuth)->RangeMultiplier(4)->Range(1 << 12, 1 << 19);

void BM_DivNewtonToom(benchmark::State& state) {
    Rng rng{7};
    const auto bits = static_cast<std::size_t>(state.range(0));
    const BigInt a = random_bits(rng, 2 * bits);
    const BigInt b = random_bits(rng, bits);
    for (auto _ : state) {
        BigInt q, r;
        newton_divmod(a, b, q, r, toom_mul);
        benchmark::DoNotOptimize(q);
    }
}
BENCHMARK(BM_DivNewtonToom)->RangeMultiplier(4)->Range(1 << 12, 1 << 19);

void BM_Isqrt(benchmark::State& state) {
    Rng rng{8};
    const BigInt a = random_bits(rng, static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(isqrt(a));
    }
}
BENCHMARK(BM_Isqrt)->Arg(1 << 12)->Arg(1 << 15);

void BM_FactorialSchoolbook(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(factorial(
            static_cast<std::uint64_t>(state.range(0))));
    }
}
BENCHMARK(BM_FactorialSchoolbook)->Arg(2000)->Arg(20000);

void BM_FactorialToom(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(factorial(
            static_cast<std::uint64_t>(state.range(0)), toom_mul));
    }
}
BENCHMARK(BM_FactorialToom)->Arg(2000)->Arg(20000);

}  // namespace
}  // namespace ftmul

int main(int argc, char** argv) {
    return ftmul::bench::run_gbench_to_json(argc, argv, "elementary");
}
