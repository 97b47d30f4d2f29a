// Microbenchmarks for the allocation-free hot paths: the limb kernels
// behind BigInt, the sequential Toom leaf path they serve, the parallel
// engines' leaf convolution, and the Machine's persistent thread-pool
// executor.
//
// Every optimized kernel is timed against its *_reference twin — the
// pre-optimization implementation kept verbatim in limb_ops.cpp, or
// toom_convolve_reference for the leaf convolution — inside
// one process, interleaved round-robin with min-of-rounds, so the reported
// ratios hold up even on noisy shared machines. The cost-model charge (F)
// of each pair is measured through the OpsCounter and reported alongside:
// optimized and reference rows must charge identically, which is the
// no-behavioral-drift contract of this optimization layer (the model
// charges schoolbook cost regardless of how fast the kernel runs).
//
// The end-to-end table also carries the pre-PR wall-clock of the full
// sequential Toom path measured on the reference machine before the kernel
// rewrite (committed constant, labeled as such), since the original BigInt
// internals no longer exist in this binary to time live.
//
// Usage: bench_kernels [--smoke]   (--smoke = tiny sizes for CI)

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "bigint/bigint.hpp"
#include "bigint/limb_ops.hpp"
#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "core/config.hpp"
#include "runtime/machine.hpp"
#include "toom/digits.hpp"
#include "toom/lazy.hpp"
#include "toom/plan.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

using Clock = std::chrono::steady_clock;

/// Pre-PR wall-clock of toom_multiply (k=2, 4096-limb balanced operands) on
/// the reference machine, measured at commit 16d8342 with the same probe
/// this bench uses. See docs/PERFORMANCE.md for the measurement protocol.
constexpr double kPrePrToomSeqNs = 8.827e6;

void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Best per-op wall-clock of each candidate over @p rounds rounds of
/// @p iters calls. With several candidates the rounds alternate between
/// them, in argument order, so a load spike hits every candidate;
/// min-of-rounds discards it.
template <typename... Fs>
std::array<double, sizeof...(Fs)> best_of_rounds_ns(int iters, int rounds,
                                                    Fs&&... fs) {
    std::array<double, sizeof...(Fs)> best;
    best.fill(1e300);
    for (int r = 0; r < rounds; ++r) {
        std::size_t i = 0;
        const auto time = [&](auto& f) {
            const auto t0 = Clock::now();
            for (int it = 0; it < iters; ++it) f();
            const auto t1 = Clock::now();
            best[i] = std::min(
                best[i],
                std::chrono::duration<double, std::nano>(t1 - t0).count() /
                    iters);
            ++i;
        };
        (time(fs), ...);
    }
    return best;
}

/// F charged by one invocation, via the thread-local OpsCounter.
template <typename F>
std::uint64_t charged_flops(F&& f) {
    const std::uint64_t before = OpsCounter::get();
    f();
    return OpsCounter::get() - before;
}

detail::Limbs random_limbs(Rng& rng, std::size_t n) {
    detail::Limbs v(n);
    for (auto& x : v) x = rng.next_u64();
    v.back() |= 1ull << 63;  // full length
    return v;
}

bench::Row kernel_row(const std::string& name, double wall_ns,
                      std::uint64_t flops, bool ok) {
    bench::Row r;
    r.name = name;
    r.crit.flops = flops;
    r.agg.flops = flops;
    r.wall_ns = wall_ns;
    r.ok = ok;
    return r;
}

/// Reference vs optimized rows for one kernel pair; baseline is the
/// reference row, so the printed F/base column doubles as the
/// charge-identity check (must be 1.000).
template <typename FRef, typename FOpt>
void ab_rows(std::vector<bench::Row>& rows, const std::string& name,
             FRef&& fref, FOpt&& fopt, int iters, int rounds, bool ok) {
    const std::uint64_t fr = charged_flops(fref);
    const std::uint64_t fo = charged_flops(fopt);
    const auto [ref_ns, opt_ns] = best_of_rounds_ns(iters, rounds, fref, fopt);
    rows.push_back(kernel_row(name + "/reference", ref_ns, fr, ok));
    rows.push_back(kernel_row(name + "/optimized", opt_ns, fo, ok && fo == fr));
    std::printf("%-28s ref %12.1f ns  opt %12.1f ns  speedup %5.2fx  F %s\n",
                name.c_str(), ref_ns, opt_ns, ref_ns / opt_ns,
                fo == fr ? "identical" : "DRIFT");
}

void leaf_path_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("sequential Toom leaf path: balanced schoolbook multiply");
    Rng rng{11};
    std::vector<bench::Row> rows;
    struct Case { std::size_t n; int iters; };
    const std::vector<Case> cases =
        smoke ? std::vector<Case>{{32, 2000}}
              : std::vector<Case>{{32, 20000}, {256, 1500}, {1024, 120}, {4096, 12}};
    const int rounds = smoke ? 3 : 5;
    for (const auto& [n, iters] : cases) {
        const detail::Limbs a = random_limbs(rng, n);
        const detail::Limbs b = random_limbs(rng, n);
        const bool ok = detail::cmp(detail::mul(a, b),
                                    detail::mul_reference(a, b)) == 0;
        ab_rows(
            rows, "mul/" + std::to_string(n),
            [&] { detail::Limbs r = detail::mul_reference(a, b); keep(r.data()); },
            [&] { detail::Limbs r = detail::mul(a, b); keep(r.data()); },
            iters, rounds, ok);
    }
    bench::print_rows(rows, 0);
    report.add_table("leaf path: balanced schoolbook multiply (limbs)", rows, 0);
}

void leaf_convolve_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("parallel leaf: toom_convolve (k=2, 32-bit digits)");
    // The leaf of a 32768-bit chaos_recovery request on 9 ranks: 261 digits,
    // at the paper benches' base 4 and at ParallelConfig's default base, the
    // one every service plan runs. The same rows run in smoke mode, so
    // bench_diff checks their F and ok flags (coefficients and charge
    // identical) on every push; the default-base rows keep their name when
    // the default moves, so a rise in its F fails that check.
    const ToomPlan& plan = ToomPlan::make(2);
    Rng rng{261};
    const std::vector<BigInt> a = random_digits(rng, 261, 32);
    const std::vector<BigInt> b = random_digits(rng, 261, 32);
    std::vector<bench::Row> rows;
    const std::pair<const char*, std::size_t> bases[] = {
        {"toom_convolve/261", 4},
        {"toom_convolve/261/default_base", ParallelConfig{}.base_len}};
    for (const auto& [name, base] : bases) {
        const bool ok = toom_convolve(plan, a, b, base) ==
                        toom_convolve_reference(plan, a, b, base);
        ab_rows(
            rows, name,
            [&] {
                auto r = toom_convolve_reference(plan, a, b, base);
                keep(r.data());
            },
            [&] { auto r = toom_convolve(plan, a, b, base); keep(r.data()); },
            smoke ? 3 : 40, smoke ? 3 : 5, ok);
    }
    bench::print_rows(rows, 0);
    report.add_table("parallel leaf: toom_convolve (k=2, 32-bit digits)", rows,
                     0);
}

void leaf_base_sweep_table(bench::JsonReport& report) {
    // Where the leaf's recursion stops: toom_convolve at bases 4, 8, 12 and
    // 16 on four leaf lengths the service plans form, from the smallest (72
    // digits) to the largest on 9 ranks (261). One table per length, base 4
    // first, so the printed F/base column is each base's F against base
    // 4's. Full runs only: the committed baseline keeps these rows for the
    // record, and no CI gate reads them.
    const ToomPlan& plan = ToomPlan::make(2);
    const std::size_t bases[] = {4, 8, 12, 16};
    for (const std::size_t len : {72, 117, 144, 261}) {
        const std::string title = "parallel leaf base sweep: toom_convolve/" +
                                  std::to_string(len) +
                                  " (k=2, 32-bit digits)";
        bench::print_header(title);
        Rng rng{len};
        const std::vector<BigInt> a = random_digits(rng, len, 32);
        const std::vector<BigInt> b = random_digits(rng, len, 32);
        const std::vector<BigInt> want = convolve_schoolbook(a, b);
        const auto at = [&](std::size_t base) {
            return [&, base] {
                auto out = toom_convolve(plan, a, b, base);
                keep(out.data());
            };
        };
        const auto ns = best_of_rounds_ns(
            static_cast<int>(4'000'000 / (len * len)), 5, at(bases[0]),
            at(bases[1]), at(bases[2]), at(bases[3]));
        std::vector<bench::Row> rows;
        for (std::size_t i = 0; i < std::size(bases); ++i) {
            std::vector<BigInt> out;
            const std::uint64_t f = charged_flops(
                [&] { out = toom_convolve(plan, a, b, bases[i]); });
            rows.push_back(kernel_row("toom_convolve/" + std::to_string(len) +
                                          "/base" + std::to_string(bases[i]),
                                      ns[i], f, out == want));
            std::printf("%-28s %12.1f ns  F %llu\n", rows.back().name.c_str(),
                        ns[i], static_cast<unsigned long long>(f));
        }
        bench::print_rows(rows, 0);
        report.add_table(title, rows, 0);
    }
}

void addsub_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("carry-chain kernels: add / sub / shl");
    Rng rng{13};
    const std::size_t n = smoke ? 512 : 4096;
    const int iters = smoke ? 4000 : 3000;
    const int rounds = smoke ? 3 : 5;
    const detail::Limbs a = random_limbs(rng, n);
    const detail::Limbs b = random_limbs(rng, n);
    std::vector<bench::Row> rows;
    {
        const bool ok = detail::cmp(detail::add(a, b),
                                    detail::add_reference(a, b)) == 0;
        ab_rows(
            rows, "add/" + std::to_string(n),
            [&] { detail::Limbs r = detail::add_reference(a, b); keep(r.data()); },
            [&] { detail::Limbs r = detail::add(a, b); keep(r.data()); },
            iters, rounds, ok);
    }
    {
        const detail::Limbs big = detail::cmp(a, b) >= 0 ? a : b;
        const detail::Limbs sml = detail::cmp(a, b) >= 0 ? b : a;
        const bool ok = detail::cmp(detail::sub(big, sml),
                                    detail::sub_reference(big, sml)) == 0;
        ab_rows(
            rows, "sub/" + std::to_string(n),
            [&] { detail::Limbs r = detail::sub_reference(big, sml); keep(r.data()); },
            [&] { detail::Limbs r = detail::sub(big, sml); keep(r.data()); },
            iters, rounds, ok);
    }
    {
        const bool ok =
            detail::cmp(detail::shl(a, 17), detail::shl_reference(a, 17)) == 0;
        ab_rows(
            rows, "shl/" + std::to_string(n),
            [&] { detail::Limbs r = detail::shl_reference(a, 17); keep(r.data()); },
            [&] { detail::Limbs r = detail::shl(a, 17); keep(r.data()); },
            iters, rounds, ok);
    }
    bench::print_rows(rows, 0);
    report.add_table("carry-chain kernels (limbs)", rows, 0);
}

void toom_end_to_end_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("sequential Toom end-to-end (k=2)");
    Rng rng{7};
    const std::size_t limbs = smoke ? 512 : 4096;
    const BigInt a = random_bits(rng, limbs * 64);
    const BigInt b = random_bits(rng, limbs * 64);
    const ToomPlan& plan = ToomPlan::make(2);
    const ToomOptions opts;
    BigInt r = toom_multiply(a, b, plan, opts);  // warmup
    const bool ok = r == a * b;
    const int iters = smoke ? 2 : 6;
    const int rounds = smoke ? 2 : 8;
    const std::uint64_t flops =
        charged_flops([&] { r = toom_multiply(a, b, plan, opts); });
    const double wall = best_of_rounds_ns(iters, rounds, [&] {
        r = toom_multiply(a, b, plan, opts);
        keep(&r);
    })[0];
    std::vector<bench::Row> rows;
    std::size_t baseline = 0;
    if (!smoke) {
        // Committed pre-PR measurement (same machine, same probe shape);
        // the pre-rewrite BigInt internals no longer exist to time live.
        rows.push_back(kernel_row("toom_seq/4096/pre_pr(committed)",
                                  kPrePrToomSeqNs, flops, true));
    }
    rows.push_back(kernel_row(
        "toom_seq/" + std::to_string(limbs) + "/current",
        wall, flops, ok));
    std::printf("toom_seq %zu limbs: %.3f ms/op%s\n", limbs,
                wall / 1e6,
                smoke ? ""
                      : (" (pre-PR committed " +
                         std::to_string(kPrePrToomSeqNs / 1e6) + " ms)")
                            .c_str());
    bench::print_rows(rows, baseline);
    report.add_table("sequential Toom end-to-end (k=2)", rows, baseline);
}

void machine_reuse_table(bench::JsonReport& report, bool smoke) {
    bench::print_header("Machine executor: rank fibers on carrier threads");
    const int world = 9;
    const int runs = smoke ? 20 : 60;
    const int rounds = smoke ? 3 : 5;
    const auto body = [](Rank& rank) {
        rank.phase("work");
        BigInt x{rank.id() + 1};
        for (int i = 0; i < 8; ++i) x += x;
        rank.note_memory(8);
    };
    Machine machine(world);
    const double run_ns =
        best_of_rounds_ns(runs, rounds, [&] { machine.run(body); })[0];
    bench::Row row = kernel_row("machine_run/fibers", run_ns,
                                machine.stats().aggregate.flops, true);
    row.processors = world;
    const std::vector<bench::Row> rows{row};
    std::printf("machine run (world=%d): fibers %10.1f ns\n", world, run_ns);
    bench::print_rows(rows, 0);
    report.add_table("Machine executor: run reuse", rows, 0);
}

}  // namespace
}  // namespace ftmul

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    }
    ftmul::bench::JsonReport report("kernels");
    ftmul::leaf_path_table(report, smoke);
    ftmul::leaf_convolve_table(report, smoke);
    if (!smoke) ftmul::leaf_base_sweep_table(report);
    ftmul::addsub_table(report, smoke);
    ftmul::toom_end_to_end_table(report, smoke);
    ftmul::machine_reuse_table(report, smoke);
    report.write();
    return 0;
}
