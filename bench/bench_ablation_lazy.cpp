// A2: standard recursion (Algorithm 1, carries at every level) vs Lazy
// Interpolation (Algorithm 2, one deferred carry pass) — the time/memory
// trade-off of Bermudo Mera et al. that makes the parallel algorithm's
// linear phase structure possible.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.hpp"

#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "toom/lazy.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

void BM_Algorithm1(benchmark::State& state) {
    Rng rng{9};
    const auto bits = static_cast<std::size_t>(state.range(0));
    const BigInt a = random_bits(rng, bits);
    const BigInt b = random_bits(rng, bits);
    const ToomPlan& plan = ToomPlan::make(3);
    ToomOptions opts;
    opts.threshold_bits = 2048;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        OpsCounter::reset();
        benchmark::DoNotOptimize(toom_multiply(a, b, plan, opts));
        ops = OpsCounter::get();
    }
    state.counters["limb_ops"] = static_cast<double>(ops);
}
BENCHMARK(BM_Algorithm1)->RangeMultiplier(4)->Range(1 << 12, 1 << 19);

void BM_Algorithm2_Lazy(benchmark::State& state) {
    Rng rng{9};
    const auto bits = static_cast<std::size_t>(state.range(0));
    const BigInt a = random_bits(rng, bits);
    const BigInt b = random_bits(rng, bits);
    const ToomPlan& plan = ToomPlan::make(3);
    LazyOptions opts;
    opts.digit_bits = 512;
    opts.base_len = 3;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        OpsCounter::reset();
        benchmark::DoNotOptimize(toom_multiply_lazy(a, b, plan, opts));
        ops = OpsCounter::get();
    }
    state.counters["limb_ops"] = static_cast<double>(ops);
}
BENCHMARK(BM_Algorithm2_Lazy)->RangeMultiplier(4)->Range(1 << 12, 1 << 19);

}  // namespace
}  // namespace ftmul

int main(int argc, char** argv) {
    return ftmul::bench::run_gbench_to_json(argc, argv, "ablation_lazy");
}
