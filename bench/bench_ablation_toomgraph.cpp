// A3: interpolation via a Toom-Graph inversion sequence (Bodrato-Zanoni,
// paper Definition 2.3 / Remark 4.1) vs the dense inverse-matrix
// application, on both isolated interpolation instances and end-to-end
// multiplications.

#include <benchmark/benchmark.h>

#include "bench/gbench_json.hpp"

#include <cstdio>

#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "toom/points.hpp"
#include "toom/sequential.hpp"
#include "toom/toom_graph.hpp"

namespace ftmul {
namespace {

std::vector<BigInt> interpolation_instance(const ToomPlan& plan,
                                           std::size_t value_bits,
                                           std::uint64_t seed) {
    Rng rng{seed};
    const std::size_t deg = static_cast<std::size_t>(2 * plan.k() - 2);
    std::vector<BigInt> coeffs(deg + 1);
    for (auto& c : coeffs) c = random_signed_bits(rng, value_bits);
    std::vector<EvalPoint> base(plan.points().begin(),
                                plan.points().begin() + 2 * plan.k() - 1);
    return evaluation_matrix(base, deg).apply(coeffs);
}

template <int K>
void BM_InterpDense(benchmark::State& state) {
    const ToomPlan& plan = ToomPlan::make(K);
    const auto vals =
        interpolation_instance(plan, static_cast<std::size_t>(state.range(0)), 3);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        OpsCounter::reset();
        benchmark::DoNotOptimize(plan.interpolation().apply(vals));
        ops = OpsCounter::get();
    }
    state.counters["limb_ops"] = static_cast<double>(ops);
}
BENCHMARK(BM_InterpDense<2>)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_InterpDense<3>)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_InterpDense<4>)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_InterpDense<5>)->Arg(1 << 10)->Arg(1 << 14);

template <int K>
void BM_InterpToomGraph(benchmark::State& state) {
    const ToomPlan& plan = ToomPlan::make(K);
    const InversionSequence seq = inversion_sequence_for(plan);
    const auto vals =
        interpolation_instance(plan, static_cast<std::size_t>(state.range(0)), 3);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        auto work = vals;
        OpsCounter::reset();
        seq.apply(work);
        ops = OpsCounter::get();
        benchmark::DoNotOptimize(work);
    }
    state.counters["limb_ops"] = static_cast<double>(ops);
    state.counters["seq_ops"] = static_cast<double>(seq.ops.size());
    state.counters["seq_cost"] = seq.total_cost();
}
BENCHMARK(BM_InterpToomGraph<2>)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_InterpToomGraph<3>)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_InterpToomGraph<4>)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_InterpToomGraph<5>)->Arg(1 << 10)->Arg(1 << 14);

template <int K>
void BM_MultiplyDenseInterp(benchmark::State& state) {
    Rng rng{31};
    const BigInt a = random_bits(rng, 1 << 17);
    const BigInt b = random_bits(rng, 1 << 17);
    const ToomPlan& plan = ToomPlan::make(K);
    ToomOptions opts;
    opts.threshold_bits = 2048;
    for (auto _ : state) {
        benchmark::DoNotOptimize(toom_multiply(a, b, plan, opts));
    }
}
BENCHMARK(BM_MultiplyDenseInterp<3>);
BENCHMARK(BM_MultiplyDenseInterp<4>);

template <int K>
void BM_MultiplyToomGraph(benchmark::State& state) {
    Rng rng{31};
    const BigInt a = random_bits(rng, 1 << 17);
    const BigInt b = random_bits(rng, 1 << 17);
    const ToomPlan& plan = ToomPlan::make(K);
    const InversionSequence seq = inversion_sequence_for(plan);
    ToomOptions opts;
    opts.threshold_bits = 2048;
    opts.custom_interpolation = [&seq](std::vector<BigInt>& v) { seq.apply(v); };
    for (auto _ : state) {
        benchmark::DoNotOptimize(toom_multiply(a, b, plan, opts));
    }
}
BENCHMARK(BM_MultiplyToomGraph<3>);
BENCHMARK(BM_MultiplyToomGraph<4>);

}  // namespace
}  // namespace ftmul

int main(int argc, char** argv) {
    return ftmul::bench::run_gbench_to_json(argc, argv, "ablation_toomgraph");
}
