#include "core/resilient.hpp"

#include <stdexcept>
#include <utility>

#include "bigint/ops_counter.hpp"
#include "core/checkpoint.hpp"
#include "core/driver.hpp"
#include "core/ft_linear.hpp"
#include "core/ft_mixed.hpp"
#include "core/ft_multistep.hpp"
#include "core/ft_soft.hpp"
#include "core/replication.hpp"
#include "runtime/metrics.hpp"
#include "toom/sequential.hpp"

namespace ftmul {

namespace {

std::vector<int> iota_ranks(int n) {
    std::vector<int> r(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) r[static_cast<std::size_t>(i)] = i;
    return r;
}

/// Fold one attempt's stats into the accumulated driver total: every rung's
/// work happens in sequence, so critical paths and aggregates add.
void accumulate(RunStats& into, const RunStats& s) {
    if (s.world > into.world) into.world = s.world;
    into.critical += s.critical;
    into.aggregate += s.aggregate;
    for (const auto& [name, c] : s.per_phase) into.per_phase[name] += c;
    for (const auto& [name, c] : s.per_phase_agg) {
        into.per_phase_agg[name] += c;
    }
    if (s.peak_memory_words > into.peak_memory_words) {
        into.peak_memory_words = s.peak_memory_words;
    }
}

/// Rung 4 of both ladders: sequential recompute — immune to the simulated
/// machine's faults, charged to the cost model as one serial phase.
void sequential_rung(const BigInt& a, const BigInt& b,
                     const ResilientConfig& cfg, ResilientResult& result) {
    ResilientAttempt att;
    att.strategy = "sequential-fallback";
    const ToomPlan& tplan = ToomPlan::make(cfg.base.k);
    OpsCounter::reset();
    result.product = toom_multiply(a, b, tplan);
    CostCounters c;
    c.flops = OpsCounter::get();
    OpsCounter::reset();
    att.success = true;
    att.stats.world = 1;
    att.stats.critical = c;
    att.stats.aggregate = c;
    att.stats.per_phase["sequential-fallback"] = c;
    att.stats.per_phase_agg["sequential-fallback"] = c;
    accumulate(result.stats, att.stats);
    if (result.shape.k == 0) {
        result.shape = resolve_shape(cfg.base,
                                     std::max(a.bit_length(), b.bit_length()));
    }
    result.attempts.push_back(std::move(att));
}

/// Ladder telemetry with bounded rung *classes* — retries collapse into one
/// "engine-retry" label so cardinality stays fixed however high
/// max_engine_retries is configured. The cost of the rung that finally
/// succeeded past rung 1 is the ladder's recovery price for this input.
void note_rung(const char* ladder, const char* rung, bool success,
               const RunStats* stats) {
    auto& reg = MetricsRegistry::global();
    if (!reg.enabled()) return;
    reg.counter("ftmul_resilient_attempts_total",
                {{"ladder", ladder},
                 {"rung", rung},
                 {"outcome", success ? "success" : "failed"}},
                "escalation-ladder rungs executed")
        .inc();
    if (success && stats != nullptr &&
        std::string_view(rung) != "engine") {
        reg.histogram("ftmul_resilient_retry_flops", {{"ladder", ladder}},
                      exponential_buckets(100, 4.0, 12),
                      "critical-path flops of the rung that recovered the "
                      "product after rung 1 failed")
            .observe(stats->critical.flops);
    }
}

}  // namespace

const char* to_string(FtEngine engine) {
    switch (engine) {
        case FtEngine::Linear: return "ft_linear";
        case FtEngine::Poly: return "ft_poly";
        case FtEngine::Mixed: return "ft_mixed";
        case FtEngine::Multistep: return "ft_multistep";
        case FtEngine::Replication: return "replication";
        case FtEngine::Checkpoint: return "checkpoint";
    }
    return "unknown";
}

FtEngine ft_engine_from_string(std::string_view name) {
    if (name == "ft_linear") return FtEngine::Linear;
    if (name == "ft_poly") return FtEngine::Poly;
    if (name == "ft_mixed") return FtEngine::Mixed;
    if (name == "ft_multistep") return FtEngine::Multistep;
    if (name == "replication") return FtEngine::Replication;
    if (name == "checkpoint") return FtEngine::Checkpoint;
    throw std::invalid_argument("unknown FT engine name: " +
                                std::string(name));
}

FaultSurface fault_surface(const ResilientConfig& cfg) {
    const core_detail::EngineSpec spec = [&] {
        switch (cfg.engine) {
            case FtEngine::Linear:
                return core_detail::ft_linear_spec({cfg.base, cfg.faults});
            case FtEngine::Poly:
                return core_detail::ft_poly_spec({cfg.base, cfg.faults});
            case FtEngine::Mixed:
                return core_detail::ft_mixed_spec({cfg.base, cfg.faults});
            case FtEngine::Multistep:
                return core_detail::ft_multistep_spec(
                    {cfg.base, cfg.faults, cfg.fused_steps, cfg.point_seed});
            case FtEngine::Replication:
                return core_detail::replication_spec({cfg.base, cfg.faults});
            case FtEngine::Checkpoint:
                return core_detail::checkpoint_spec({cfg.base});
        }
        throw std::invalid_argument("fault_surface: unknown engine");
    }();
    return {spec.world, iota_ranks(spec.surface_ranks), spec.surface_phases};
}

FaultSurface soft_fault_surface(const ResilientConfig& cfg) {
    const core_detail::EngineSpec spec =
        core_detail::ft_soft_spec({cfg.base, cfg.faults});
    return {spec.world, iota_ranks(spec.surface_ranks), spec.surface_phases};
}

FtRunResult run_ft_engine(const BigInt& a, const BigInt& b,
                          const ResilientConfig& cfg, const FaultPlan& plan) {
    switch (cfg.engine) {
        case FtEngine::Linear:
            return ft_linear_multiply(a, b, {cfg.base, cfg.faults}, plan);
        case FtEngine::Poly:
            return ft_poly_multiply(a, b, {cfg.base, cfg.faults}, plan);
        case FtEngine::Mixed:
            return ft_mixed_multiply(a, b, {cfg.base, cfg.faults}, plan);
        case FtEngine::Multistep:
            return ft_multistep_multiply(
                a, b, {cfg.base, cfg.faults, cfg.fused_steps, cfg.point_seed},
                plan);
        case FtEngine::Replication:
            return replicated_toom_multiply(a, b, {cfg.base, cfg.faults}, plan);
        case FtEngine::Checkpoint:
            return checkpoint_toom_multiply(a, b, {cfg.base}, plan);
    }
    throw std::invalid_argument("run_ft_engine: unknown engine");
}

ResilientResult resilient_multiply(const BigInt& a, const BigInt& b,
                                   const ResilientConfig& cfg,
                                   const FaultPlan& first_plan,
                                   const PlanSource& retry_plans) {
    ResilientResult result;
    std::exception_ptr last_error;

    // Escalation rungs run on a fresh interconnect: the data-plane fault
    // model is cleared so a flaky transport cannot sink every retry — the
    // analogue of hard-fault retries running on fresh processors. The
    // frame-integrity guard itself stays as configured.
    ResilientConfig retry_cfg = cfg;
    retry_cfg.base.transport_faults = TransportFaultModel{};

    // Run one rung; record its outcome and fold its cost in. A failed rung
    // contributes whatever the run charged before the engine refused (plan
    // validation refuses up front, so typically nothing — but the audit
    // trail still names the rung and the fault set that sank it). A
    // TransportFault — the guard's NACK/retransmit protocol out of budget —
    // escalates exactly like an UnrecoverableFault.
    auto attempt = [&](const ResilientConfig& c, const std::string& strategy,
                       const char* rung, const FaultPlan& plan) -> bool {
        ResilientAttempt att;
        att.strategy = strategy;
        att.faults_injected = static_cast<int>(plan.total_faults());
        try {
            FtRunResult r = run_ft_engine(a, b, c, plan);
            att.success = true;
            att.stats = r.stats;
            att.transport = r.transport;
            result.transport += r.transport;
            note_rung("hard", rung, true, &r.stats);
            accumulate(result.stats, r.stats);
            result.product = std::move(r.product);
            result.shape = r.shape;
            result.events = std::move(r.events);
            result.attempts.push_back(std::move(att));
            return true;
        } catch (const TransportFault& tf) {
            att.error = tf.what();
            note_rung("hard", rung, false, nullptr);
            result.attempts.push_back(std::move(att));
            last_error = std::current_exception();
            return false;
        } catch (const UnrecoverableFault& uf) {
            att.error = uf.what();
            note_rung("hard", rung, false, nullptr);
            result.attempts.push_back(std::move(att));
            last_error = std::current_exception();
            return false;
        }
    };

    // Rung 1: the configured engine under the trial's fault plan.
    if (attempt(cfg, to_string(cfg.engine), "engine", first_plan)) {
        return result;
    }

    // Every further rung is subject to the caller's escalation gate: a
    // refused rung is simply not run (deadline-bounded drivers refuse
    // recovery work that cannot land in time), and the last typed error
    // surfaces at the bottom.
    auto may_escalate = [&](const std::string& strategy) {
        return !cfg.escalation_gate || cfg.escalation_gate(strategy);
    };

    // Rung 2: bounded re-runs on fresh processors. Without a PlanSource the
    // re-run is fault-free (the faulty processors were replaced).
    for (int i = 1; i <= cfg.max_engine_retries; ++i) {
        const std::string strategy =
            std::string(to_string(cfg.engine)) + "-retry-" + std::to_string(i);
        if (!may_escalate(strategy)) break;
        FaultPlan plan;
        if (retry_plans) plan = retry_plans(strategy, i);
        if (attempt(retry_cfg, strategy, "engine-retry", plan)) return result;
    }

    // Rung 3: rollback recovery via the buddy-checkpoint engine (skipped
    // when it *is* the primary engine — that rerun already happened above).
    if (cfg.checkpoint_fallback && cfg.engine != FtEngine::Checkpoint &&
        may_escalate("checkpoint-fallback")) {
        FaultPlan plan;
        if (retry_plans) plan = retry_plans("checkpoint-fallback", 0);
        ResilientConfig checkpoint_cfg = retry_cfg;
        checkpoint_cfg.engine = FtEngine::Checkpoint;
        if (attempt(checkpoint_cfg, "checkpoint-fallback",
                    "checkpoint-fallback", plan)) {
            return result;
        }
    }

    // Rung 4: sequential recompute.
    if (cfg.sequential_fallback && may_escalate("sequential-fallback")) {
        sequential_rung(a, b, cfg, result);
        note_rung("hard", "sequential-fallback", true,
                  &result.attempts.back().stats);
        return result;
    }

    // Every enabled rung failed: surface the last engine diagnosis.
    if (last_error) std::rethrow_exception(last_error);
    throw std::invalid_argument(
        "resilient_multiply: no escalation rung enabled");
}

ResilientResult resilient_soft_multiply(const BigInt& a, const BigInt& b,
                                        const ResilientConfig& cfg,
                                        const SoftFaultPlan& plan,
                                        const ProductVerifier& verify) {
    ResilientResult result;
    std::exception_ptr last_error;

    FtSoftConfig scfg;
    scfg.base = cfg.base;
    scfg.code_rows = cfg.faults;

    // Run one rung of the soft ladder. Over-budget plans surface as typed
    // UnrecoverableFault; a product the verifier rejects is a soft-fault-
    // induced wrong interpolation — recorded as a failed (recoverable) rung
    // and escalated past, never returned.
    auto attempt = [&](const std::string& strategy, const char* rung,
                       const SoftFaultPlan& p) -> bool {
        ResilientAttempt att;
        att.strategy = strategy;
        att.faults_injected = static_cast<int>(p.total());
        try {
            FtSoftResult r = ft_soft_multiply(a, b, scfg, p);
            accumulate(result.stats, r.stats);
            att.stats = r.stats;
            att.transport = r.transport;
            result.transport += r.transport;
            if (verify && !verify(r.product)) {
                att.error =
                    "ft_soft: wrong interpolation (verifier rejected the "
                    "product)";
                note_rung("soft", rung, false, nullptr);
                result.attempts.push_back(std::move(att));
                last_error = std::make_exception_ptr(UnrecoverableFault(
                    "ft_soft", "", {},
                    "soft faults produced a wrong interpolation the code "
                    "did not correct"));
                return false;
            }
            att.success = true;
            note_rung("soft", rung, true, &r.stats);
            result.product = std::move(r.product);
            result.shape = r.shape;
            result.attempts.push_back(std::move(att));
            return true;
        } catch (const TransportFault& tf) {
            att.error = tf.what();
            note_rung("soft", rung, false, nullptr);
            result.attempts.push_back(std::move(att));
            last_error = std::current_exception();
            return false;
        } catch (const UnrecoverableFault& uf) {
            att.error = uf.what();
            note_rung("soft", rung, false, nullptr);
            result.attempts.push_back(std::move(att));
            last_error = std::current_exception();
            return false;
        }
    };

    // Rung 1: the soft engine under the trial's corruption plan.
    if (attempt("ft_soft", "engine", plan)) return result;

    // Retries run on a fresh interconnect (see resilient_multiply).
    scfg.base.transport_faults = TransportFaultModel{};

    // The soft ladder honors the same escalation gate as the hard one.
    auto may_escalate = [&](const std::string& strategy) {
        return !cfg.escalation_gate || cfg.escalation_gate(strategy);
    };

    // Rung 2: bounded fault-free re-runs on fresh processors. (There is no
    // checkpoint rung: a miscalculating rank corrupts its checkpoint too,
    // so rollback recovery has no leverage against soft faults.)
    for (int i = 1; i <= cfg.max_engine_retries; ++i) {
        const std::string strategy = "ft_soft-retry-" + std::to_string(i);
        if (!may_escalate(strategy)) break;
        if (attempt(strategy, "engine-retry", {})) {
            return result;
        }
    }

    // Rung 4: sequential recompute, still subject to the verifier.
    if (cfg.sequential_fallback && may_escalate("sequential-fallback")) {
        sequential_rung(a, b, cfg, result);
        const bool accepted = !verify || verify(result.product);
        note_rung("soft", "sequential-fallback", accepted,
                  &result.attempts.back().stats);
        if (accepted) return result;
        result.attempts.back().success = false;
        result.attempts.back().error =
            "sequential-fallback: verifier rejected the product";
        last_error = std::make_exception_ptr(UnrecoverableFault(
            "ft_soft", "", {},
            "verifier rejected even the sequential recompute"));
    }

    if (last_error) std::rethrow_exception(last_error);
    throw std::invalid_argument(
        "resilient_soft_multiply: no escalation rung enabled");
}

}  // namespace ftmul
