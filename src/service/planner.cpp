#include "service/planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ftmul {

namespace {

/// Closed-form sequential Toom-k work on m digits, in word-operations:
/// T(m) = (2k-1) T(ceil(m/k)) + c*m with a schoolbook base case. Integer
/// arithmetic only, so the estimate is identical on every platform — the
/// property the service_report's deterministic percentiles require. The
/// constants are calibrated for ordering, not absolute accuracy: the
/// planner needs "bigger input costs more" and "engine A beats engine B",
/// both of which the recurrence preserves.
std::uint64_t seq_work(std::uint64_t digits, int k) {
    if (digits == 0) return 0;
    if (digits <= 8) return digits * digits + 4 * digits;
    const std::uint64_t child = (digits + static_cast<std::uint64_t>(k) - 1) /
                                static_cast<std::uint64_t>(k);
    return static_cast<std::uint64_t>(2 * k - 1) * seq_work(child, k) +
           12 * digits;
}

/// Ceil of modeled_time in microseconds, floored at 1 (a zero-cost plan
/// would make every deadline "possible" vacuously).
std::uint64_t modeled_us_of(const CostCounters& charge, const CostModel& m) {
    const double secs = m.alpha * static_cast<double>(charge.latency) +
                        m.beta * static_cast<double>(charge.words) +
                        m.gamma * static_cast<double>(charge.flops);
    const double us = std::ceil(secs * 1e6);
    if (us < 1.0) return 1;
    return static_cast<std::uint64_t>(us);
}

ResilientConfig base_resilient(const PlannerPolicy& p) {
    ResilientConfig rc;
    rc.base.k = p.k;
    rc.base.processors = p.processors;
    rc.base.digit_bits = p.digit_bits;
    rc.faults = p.faults;
    rc.max_engine_retries = p.max_engine_retries;
    return rc;
}

/// Critical-path charge of one machine plan. `work` is the sequential work
/// on the machine's digit size; the engines differ in how much of it lands
/// on the critical path and what the coding adds per level.
CostCounters estimate_machine(const PlannerPolicy& p, FtEngine engine,
                              bool plain_parallel, std::uint64_t digits) {
    const int npts = 2 * p.k - 1;
    const int P = p.processors;
    const int f = p.faults;
    const int bfs = core_detail::exact_log(static_cast<std::uint64_t>(P),
                                           static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "planner: processors must be a positive power of 2k-1");
    }
    const std::uint64_t work = seq_work(digits, p.k);
    const std::uint64_t per_rank =
        work / static_cast<std::uint64_t>(P) + 8 * digits;
    const std::uint64_t level_words =
        2 * static_cast<std::uint64_t>(bfs) * static_cast<std::uint64_t>(npts) *
            (digits / static_cast<std::uint64_t>(P) + 1) +
        16;

    CostCounters charge;
    charge.flops = per_rank;
    charge.words = level_words;
    charge.msgs = static_cast<std::uint64_t>(bfs) *
                  static_cast<std::uint64_t>(npts) * 2;
    charge.latency = 4 * static_cast<std::uint64_t>(bfs) + 4;
    if (plain_parallel) return charge;
    switch (engine) {
        case FtEngine::Poly:
            // Redundant evaluation points widen each grid row from npts to
            // npts+f columns; per-rank work is unchanged, traffic scales
            // with the row width and decoding adds one interpolation pass.
            charge.flops += 2 * digits;
            charge.words = charge.words *
                           static_cast<std::uint64_t>(npts + f) /
                           static_cast<std::uint64_t>(npts);
            charge.latency += 2;
            break;
        case FtEngine::Linear:
            // A Vandermonde code per phase: f*npts code processors, an
            // encode/decode pass at every level boundary.
            charge.flops += 2 * digits * static_cast<std::uint64_t>(bfs);
            charge.words = charge.words *
                           static_cast<std::uint64_t>(npts + f) /
                           static_cast<std::uint64_t>(npts);
            charge.latency += 2 * static_cast<std::uint64_t>(bfs);
            break;
        case FtEngine::Mixed:
            // Linear + polynomial combined: the widest world, both coding
            // costs.
            charge.flops +=
                2 * digits * (static_cast<std::uint64_t>(bfs) + 1);
            charge.words = charge.words *
                           static_cast<std::uint64_t>(npts + f + 1) /
                           static_cast<std::uint64_t>(npts);
            charge.latency += 2 * static_cast<std::uint64_t>(bfs) + 2;
            break;
        case FtEngine::Replication:
            // f+1 replicas run the plain algorithm side by side; the
            // critical path gains only the agreement round.
            charge.words += digits / static_cast<std::uint64_t>(P) + 1;
            charge.latency += 2;
            break;
        default:
            break;  // plan_multiply plans no other engine
    }
    return charge;
}

MultiplyPlan machine_plan(const PlannerPolicy& p, FtEngine engine,
                          bool plain_parallel, std::uint64_t digits) {
    MultiplyPlan plan;
    plan.machine = true;
    plan.batchable = false;
    plan.resilient = base_resilient(p);
    plan.resilient.engine = engine;
    plan.engine = plain_parallel ? "parallel" : to_string(engine);
    plan.charge = estimate_machine(p, engine, plain_parallel, digits);
    plan.world =
        plain_parallel ? p.processors : fault_surface(plan.resilient).world;
    plan.modeled_us = modeled_us_of(plan.charge, p.cost_model);
    return plan;
}

}  // namespace

MultiplyPlan plan_multiply(std::size_t bits_a, std::size_t bits_b,
                           ReliabilityClass cls,
                           const PlannerPolicy& policy) {
    const std::size_t bits = std::max<std::size_t>(
        1, std::max(bits_a, bits_b));

    // Tiny operands: the machine's per-run setup dwarfs any parallel win,
    // so every class runs sequential Toom-3 — the only batchable plan.
    if (bits < policy.sequential_cutoff_bits) {
        MultiplyPlan plan;
        plan.engine = "sequential";
        plan.machine = false;
        plan.batchable = true;
        plan.world = 1;
        plan.resilient = base_resilient(policy);
        const std::uint64_t words = (bits + 63) / 64;
        plan.charge.flops = seq_work(words, 3);
        plan.modeled_us = modeled_us_of(plan.charge, policy.cost_model);
        return plan;
    }

    const std::uint64_t digits =
        (bits + policy.digit_bits - 1) / policy.digit_bits;
    switch (cls) {
        case ReliabilityClass::Fast:
            return machine_plan(policy, FtEngine::Poly, /*plain=*/true,
                                digits);
        case ReliabilityClass::FastRedundant:
            return machine_plan(policy, FtEngine::Replication, false, digits);
        case ReliabilityClass::Verified: {
            // The cheapest FT-coded engine under the policy's cost model;
            // candidate order breaks modeled-time ties deterministically.
            MultiplyPlan best;
            for (FtEngine candidate :
                 {FtEngine::Poly, FtEngine::Linear, FtEngine::Mixed}) {
                MultiplyPlan plan = machine_plan(policy, candidate, false,
                                                 digits);
                if (best.engine.empty() || plan.modeled_us < best.modeled_us) {
                    best = std::move(plan);
                }
            }
            return best;
        }
    }
    throw std::invalid_argument("plan_multiply: unknown reliability class");
}

}  // namespace ftmul
