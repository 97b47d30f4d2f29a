// The serving layer's planner, benched as a table: for each reliability
// class x operand size, the engine plan_multiply selects, its deterministic
// cost-model charge, and the measured machine counters of executing that
// plan fault-free — the numbers a capacity planner would read to size a
// deployment. Every product is verified against the sequential oracle, and
// everything in the report is a pure function of the grid, so the emitted
// BENCH_service.json is byte-stable and diffable in CI like the paper
// tables.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"

#include "bigint/random.hpp"
#include "core/parallel.hpp"
#include "core/resilient.hpp"
#include "bigint/ops_counter.hpp"
#include "service/planner.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

/// Execute a plan exactly as the service would on a fault-free day and
/// return its measured stats (sequential plans charge through OpsCounter,
/// machine plans through their Machine's ledger).
RunStats execute_plan(const MultiplyPlan& plan, const BigInt& a,
                      const BigInt& b, const BigInt& expect, bool& ok) {
    RunStats stats;
    if (!plan.machine) {
        const ToomPlan& tplan = ToomPlan::make(3);
        OpsCounter::reset();
        const BigInt p = toom_multiply(a, b, tplan);
        CostCounters c;
        c.flops = OpsCounter::get();
        OpsCounter::reset();
        stats.world = 1;
        stats.critical = c;
        stats.aggregate = c;
        ok = p == expect;
        return stats;
    }
    if (plan.engine == "parallel") {
        const ParallelRunResult r = parallel_toom_multiply(a, b, plan.resilient.base);
        ok = r.product == expect;
        return r.stats;
    }
    const ResilientResult r = resilient_multiply(a, b, plan.resilient, {});
    ok = r.product == expect;
    return r.stats;
}

void run_grid(bench::JsonReport& report) {
    const std::vector<std::size_t> sizes = {1024, 4096, 16384, 65536};
    const std::vector<ReliabilityClass> classes = {
        ReliabilityClass::Fast, ReliabilityClass::FastRedundant,
        ReliabilityClass::Verified};
    const PlannerPolicy policy;

    std::vector<bench::Row> rows;
    for (ReliabilityClass cls : classes) {
        for (std::size_t bits : sizes) {
            Rng rng{bits ^ 0xb3};
            const BigInt a = random_bits(rng, bits);
            const BigInt b = random_bits(rng, bits);
            const BigInt expect = a * b;

            const MultiplyPlan plan = plan_multiply(bits, bits, cls, policy);
            bool ok = false;
            const RunStats stats = execute_plan(plan, a, b, expect, ok);

            char name[96];
            std::snprintf(name, sizeof(name), "%s %6zub -> %s",
                          to_string(cls), bits, plan.engine.c_str());
            bench::Row row = bench::stats_row(
                name, stats, plan.world, plan.world - policy.processors,
                policy.faults, ok);
            rows.push_back(row);
        }
    }
    bench::print_header("planner engine selection (fault-free execution)");
    bench::print_rows(rows, 0);
    report.add_table("planner engine selection (fault-free execution)", rows,
                     0);

    // The planner's own charge estimates, as a second diffable table: a
    // drift in the closed-form cost model shows up here even when the
    // executed counters above do not move.
    std::vector<bench::Row> model_rows;
    for (ReliabilityClass cls : classes) {
        for (std::size_t bits : sizes) {
            const MultiplyPlan plan = plan_multiply(bits, bits, cls, policy);
            char name[96];
            std::snprintf(name, sizeof(name), "%s %6zub -> %s",
                          to_string(cls), bits, plan.engine.c_str());
            bench::Row row;
            row.name = name;
            row.crit = plan.charge;
            row.agg = plan.charge;
            row.peak_mem = plan.modeled_us;  // modeled-us rides this column
            row.processors = plan.world;
            row.tolerance = policy.faults;
            row.ok = true;
            model_rows.push_back(row);
        }
    }
    bench::print_header("planner cost-model charges (modeled_us as peak_mem)");
    bench::print_rows(model_rows, 0);
    report.add_table("planner cost-model charges (modeled_us as peak_mem)",
                     model_rows, 0);
}

}  // namespace
}  // namespace ftmul

int main() {
    ftmul::bench::JsonReport report("service");
    ftmul::run_grid(report);
    return report.write() ? 0 : 1;
}
