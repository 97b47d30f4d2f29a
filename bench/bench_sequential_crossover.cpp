// A4: the practical motivation for Toom-Cook (paper Section 1: "Toom-Cook
// algorithms are often favored for a large range of inputs"): wall-clock
// crossover of schoolbook vs Toom-2/3/4 on this machine's bignum kernel.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.hpp"

#include "bigint/random.hpp"
#include "toom/lazy.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

BigInt input_a(std::size_t bits) {
    Rng rng{1234};
    return random_bits(rng, bits);
}
BigInt input_b(std::size_t bits) {
    Rng rng{5678};
    return random_bits(rng, bits);
}

void BM_Schoolbook(benchmark::State& state) {
    const auto bits = static_cast<std::size_t>(state.range(0));
    const BigInt a = input_a(bits), b = input_b(bits);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a * b);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Schoolbook)->RangeMultiplier(4)->Range(1 << 10, 1 << 20)->Complexity();

template <int K>
void BM_ToomK(benchmark::State& state) {
    const auto bits = static_cast<std::size_t>(state.range(0));
    const BigInt a = input_a(bits), b = input_b(bits);
    const ToomPlan& plan = ToomPlan::make(K);
    ToomOptions opts;
    opts.threshold_bits = 3072;
    for (auto _ : state) {
        benchmark::DoNotOptimize(toom_multiply(a, b, plan, opts));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ToomK<2>)->RangeMultiplier(4)->Range(1 << 10, 1 << 20)->Complexity();
BENCHMARK(BM_ToomK<3>)->RangeMultiplier(4)->Range(1 << 10, 1 << 20)->Complexity();
BENCHMARK(BM_ToomK<4>)->RangeMultiplier(4)->Range(1 << 12, 1 << 20)->Complexity();

void BM_ToomLazy(benchmark::State& state) {
    const auto bits = static_cast<std::size_t>(state.range(0));
    const BigInt a = input_a(bits), b = input_b(bits);
    const ToomPlan& plan = ToomPlan::make(3);
    LazyOptions opts;
    opts.digit_bits = 512;
    opts.base_len = 3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(toom_multiply_lazy(a, b, plan, opts));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ToomLazy)->RangeMultiplier(4)->Range(1 << 12, 1 << 20)->Complexity();

void BM_HybridThreshold(benchmark::State& state) {
    // The hybrid standard/fast algorithm (De Stefani, paper reference [19]):
    // Toom-Cook recursion switching to schoolbook below a threshold. The
    // sweep locates the practical crossover on this bignum kernel.
    const auto threshold = static_cast<std::size_t>(state.range(0));
    const BigInt a = input_a(1 << 18), b = input_b(1 << 18);
    const ToomPlan& plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = threshold;
    for (auto _ : state) {
        benchmark::DoNotOptimize(toom_multiply(a, b, plan, opts));
    }
}
BENCHMARK(BM_HybridThreshold)->RangeMultiplier(4)->Range(256, 1 << 16);

}  // namespace
}  // namespace ftmul

int main(int argc, char** argv) {
    return ftmul::bench::run_gbench_to_json(argc, argv, "sequential_crossover");
}
