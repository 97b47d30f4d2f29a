#include "core/resilient.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bigint/random.hpp"

namespace ftmul {
namespace {

ResilientConfig make_cfg(FtEngine engine, int f = 1) {
    ResilientConfig cfg;
    cfg.engine = engine;
    cfg.base.k = 2;
    cfg.base.processors = 9;
    cfg.base.digit_bits = 32;
    cfg.base.base_len = 4;
    cfg.faults = f;
    return cfg;
}

const std::vector<FtEngine> kAllEngines = {
    FtEngine::Linear,     FtEngine::Poly,        FtEngine::Mixed,
    FtEngine::Multistep,  FtEngine::Replication, FtEngine::Checkpoint,
};

TEST(FtEngineNames, RoundTrip) {
    for (FtEngine e : kAllEngines) {
        EXPECT_EQ(ft_engine_from_string(to_string(e)), e) << to_string(e);
    }
    EXPECT_THROW(ft_engine_from_string("ft_imaginary"), std::invalid_argument);
}

TEST(FaultSurface, MatchesEngineGeometry) {
    // k=2 -> npts=3, P=9 -> bfs=2, f=1 throughout.
    const auto linear = fault_surface(make_cfg(FtEngine::Linear));
    EXPECT_EQ(linear.world, 12);  // P + f*npts
    EXPECT_EQ(linear.ranks.size(), 9u);  // data ranks only
    EXPECT_EQ(linear.phases,
              (std::vector<std::string>{"eval-L0", "eval-L1", "leaf-mul",
                                        "interp-L1", "interp-L0"}));

    const auto poly = fault_surface(make_cfg(FtEngine::Poly));
    EXPECT_EQ(poly.world, 12);  // (P/npts) * (npts+f)
    EXPECT_EQ(poly.ranks.size(), 12u);
    EXPECT_EQ(poly.phases, std::vector<std::string>{"mul"});

    const auto mixed = fault_surface(make_cfg(FtEngine::Mixed));
    EXPECT_EQ(mixed.world, 16);          // data world 12 + f*(npts+f)
    EXPECT_EQ(mixed.ranks.size(), 12u);  // data region only
    EXPECT_EQ(mixed.phases,
              (std::vector<std::string>{"eval-L0", "mul", "interp-L0"}));

    const auto multistep = fault_surface(make_cfg(FtEngine::Multistep));
    EXPECT_EQ(multistep.world, 10);  // (P/npts^2) * (npts^2 + f)
    EXPECT_EQ(multistep.ranks.size(), 10u);
    EXPECT_EQ(multistep.phases, std::vector<std::string>{"mul"});

    const auto repl = fault_surface(make_cfg(FtEngine::Replication));
    EXPECT_EQ(repl.world, 18);  // (f+1) * P
    EXPECT_EQ(repl.ranks.size(), 18u);
    EXPECT_EQ(repl.phases, std::vector<std::string>{"split"});

    const auto ckpt = fault_surface(make_cfg(FtEngine::Checkpoint));
    EXPECT_EQ(ckpt.world, 9);
    EXPECT_EQ(ckpt.ranks.size(), 9u);
    EXPECT_EQ(ckpt.phases,
              (std::vector<std::string>{"eval-L0", "leaf-mul", "interp-L0"}));

    auto bad = make_cfg(FtEngine::Multistep);
    bad.fused_steps = 3;  // needs P >= 27
    EXPECT_THROW(fault_surface(bad), std::invalid_argument);
}

// The surface fault_surface() reports is the one each engine's validator
// enforces: same world, every surface site is a real site the engine
// recovers from, and one rank or phase past it is refused.
TEST(FaultSurface, AgreesWithEveryEngineValidator) {
    struct Geometry {
        int k, P, f, l;
    };
    Rng rng{27};
    const BigInt a = random_bits(rng, 900), b = random_bits(rng, 800);
    const BigInt want = a * b;
    for (const Geometry g : {Geometry{2, 9, 1, 2}, Geometry{3, 5, 2, 1}}) {
        for (FtEngine e : kAllEngines) {
            auto cfg = make_cfg(e, g.f);
            cfg.base.k = g.k;
            cfg.base.processors = g.P;
            cfg.base.events = true;
            cfg.fused_steps = g.l;
            const FaultSurface s = fault_surface(cfg);
            const std::string where = std::string(to_string(e)) + " k=" +
                                      std::to_string(g.k) + " P=" +
                                      std::to_string(g.P);
            EXPECT_EQ(run_ft_engine(a, b, cfg, {}).stats.world, s.world)
                << where;
            for (const std::string& phase : s.phases) {
                for (int rank : s.ranks) {
                    FaultPlan plan;
                    plan.add(phase, rank);
                    const FtRunResult r = run_ft_engine(a, b, cfg, plan);
                    EXPECT_EQ(r.product, want) << where << " " << phase << ":"
                                               << rank;
                    // The fault really fired: the site exists in the run.
                    int fired = 0;
                    for (const Event& ev : r.events->for_rank(rank)) {
                        fired += ev.kind == EventKind::Fault;
                    }
                    EXPECT_EQ(fired, 1) << where << " " << phase << ":" << rank;
                }
                FaultPlan past;
                past.add(phase, s.ranks.back() + 1);
                EXPECT_THROW(run_ft_engine(a, b, cfg, past), UnrecoverableFault)
                    << where << " " << phase;
            }
            // Replication accepts any phase by design: a fault anywhere
            // dooms its replica.
            FaultPlan off_phase;
            off_phase.add("xfwd-L0", 0);
            if (e == FtEngine::Replication) {
                EXPECT_EQ(run_ft_engine(a, b, cfg, off_phase).product, want);
            } else {
                EXPECT_THROW(run_ft_engine(a, b, cfg, off_phase),
                             UnrecoverableFault)
                    << where;
            }
        }
    }
}

TEST(RunFtEngine, RejectsKBelowTwo) {
    // k = 1 gives 2k-1 = 1 evaluation point, no base for a processor grid:
    // every engine must refuse the config (exact_log rejects a base below 2)
    // instead of looping.
    for (FtEngine e : kAllEngines) {
        auto cfg = make_cfg(e);
        cfg.base.k = 1;
        EXPECT_THROW(run_ft_engine(BigInt{12345}, BigInt{678}, cfg, {}),
                     std::invalid_argument)
            << to_string(e);
    }
}

TEST(RunFtEngine, FaultFreeProductOnEveryEngine) {
    Rng rng{21};
    const BigInt a = random_bits(rng, 900), b = random_bits(rng, 800);
    const BigInt want = a * b;
    for (FtEngine e : kAllEngines) {
        const auto res = run_ft_engine(a, b, make_cfg(e), {});
        EXPECT_EQ(res.product, want) << to_string(e);
    }
}

TEST(UnrecoverableFault, CarriesEngineDiagnostics) {
    Rng rng{22};
    const BigInt a = random_bits(rng, 400), b = random_bits(rng, 400);

    // ft_poly, f=1: faults in two distinct columns exceed the code budget.
    FaultPlan two_columns;
    two_columns.add("mul", 0);
    two_columns.add("mul", 1);
    try {
        run_ft_engine(a, b, make_cfg(FtEngine::Poly), two_columns);
        FAIL() << "expected UnrecoverableFault";
    } catch (const UnrecoverableFault& uf) {
        EXPECT_EQ(uf.engine(), "ft_poly");
        EXPECT_EQ(uf.phase(), "mul");
        EXPECT_EQ(uf.dead_ranks(), (std::vector<int>{0, 1}));
        EXPECT_NE(std::string(uf.what()).find("unrecoverable"),
                  std::string::npos);
    }

    // Checkpoint: a rank dying with its buddy loses the checkpoint too.
    FaultPlan buddy_pair;
    buddy_pair.add("leaf-mul", 4);
    buddy_pair.add("leaf-mul", 5);  // buddy of 4 is (4+1) % 9
    try {
        run_ft_engine(a, b, make_cfg(FtEngine::Checkpoint), buddy_pair);
        FAIL() << "expected UnrecoverableFault";
    } catch (const UnrecoverableFault& uf) {
        EXPECT_EQ(uf.engine(), "checkpoint");
        EXPECT_EQ(uf.phase(), "leaf-mul");
        EXPECT_EQ(uf.dead_ranks(), (std::vector<int>{4, 5}));
    }

    // Typed errors still satisfy pre-degradation catch sites.
    EXPECT_THROW(run_ft_engine(a, b, make_cfg(FtEngine::Poly), two_columns),
                 std::invalid_argument);
}

TEST(ResilientMultiply, CleanFirstAttemptNeedsNoEscalation) {
    Rng rng{23};
    const BigInt a = random_bits(rng, 700), b = random_bits(rng, 600);
    FaultPlan one_fault;
    one_fault.add("mul", 3);

    const auto res =
        resilient_multiply(a, b, make_cfg(FtEngine::Poly), one_fault);
    EXPECT_EQ(res.product, a * b);
    ASSERT_EQ(res.attempts.size(), 1u);
    EXPECT_EQ(res.attempts[0].strategy, "ft_poly");
    EXPECT_TRUE(res.attempts[0].success);
    EXPECT_EQ(res.attempts[0].faults_injected, 1);
}

TEST(ResilientMultiply, RetriesEngineOnFreshProcessors) {
    Rng rng{24};
    const BigInt a = random_bits(rng, 700), b = random_bits(rng, 600);
    FaultPlan over_budget;
    over_budget.add("mul", 0);
    over_budget.add("mul", 1);

    const auto res =
        resilient_multiply(a, b, make_cfg(FtEngine::Poly), over_budget);
    EXPECT_EQ(res.product, a * b);
    ASSERT_EQ(res.attempts.size(), 2u);
    EXPECT_FALSE(res.attempts[0].success);
    EXPECT_EQ(res.attempts[0].strategy, "ft_poly");
    EXPECT_NE(res.attempts[0].error.find("unrecoverable"), std::string::npos);
    EXPECT_TRUE(res.attempts[1].success);
    EXPECT_EQ(res.attempts[1].strategy, "ft_poly-retry-1");
    EXPECT_EQ(res.attempts[1].faults_injected, 0);
}

TEST(ResilientMultiply, EscalatesToCheckpointThenSequential) {
    Rng rng{25};
    const BigInt a = random_bits(rng, 700), b = random_bits(rng, 600);
    FaultPlan over_budget;
    over_budget.add("mul", 0);
    over_budget.add("mul", 1);

    // Every retry is hit by the same over-budget plan; the checkpoint
    // fallback draws a buddy-pair plan. Only the sequential rung survives.
    const PlanSource doomed_retries = [&](const std::string& strategy,
                                          int) -> FaultPlan {
        if (strategy == "checkpoint-fallback") {
            FaultPlan p;
            p.add("leaf-mul", 0);
            p.add("leaf-mul", 1);
            return p;
        }
        return over_budget;
    };

    auto cfg = make_cfg(FtEngine::Poly);
    cfg.max_engine_retries = 2;
    const auto res = resilient_multiply(a, b, cfg, over_budget, doomed_retries);
    EXPECT_EQ(res.product, a * b);
    ASSERT_EQ(res.attempts.size(), 5u);
    EXPECT_EQ(res.attempts[1].strategy, "ft_poly-retry-1");
    EXPECT_EQ(res.attempts[2].strategy, "ft_poly-retry-2");
    EXPECT_EQ(res.attempts[3].strategy, "checkpoint-fallback");
    EXPECT_FALSE(res.attempts[3].success);
    EXPECT_EQ(res.attempts[4].strategy, "sequential-fallback");
    EXPECT_TRUE(res.attempts[4].success);

    // The recompute is charged to the cost model, not free.
    const auto it = res.stats.per_phase.find("sequential-fallback");
    ASSERT_NE(it, res.stats.per_phase.end());
    EXPECT_GT(it->second.flops, 0u);
    EXPECT_EQ(res.shape.k, 2);
}

TEST(ResilientMultiply, ChargesEveryFailedRungIntoTheTotal) {
    Rng rng{26};
    const BigInt a = random_bits(rng, 700), b = random_bits(rng, 600);
    FaultPlan over_budget;
    over_budget.add("mul", 0);
    over_budget.add("mul", 1);

    const auto clean =
        resilient_multiply(a, b, make_cfg(FtEngine::Poly), {});
    const auto retried =
        resilient_multiply(a, b, make_cfg(FtEngine::Poly), over_budget);
    EXPECT_EQ(retried.product, a * b);
    // The successful re-run alone costs what the clean run costs; the
    // driver's total must include it (failed validation-time rungs add 0).
    EXPECT_GE(retried.stats.critical.flops, clean.stats.critical.flops);
    EXPECT_GE(retried.stats.aggregate.flops, clean.stats.aggregate.flops);
}

TEST(ResilientMultiply, ThrowsWhenEveryRungIsDisabled) {
    Rng rng{27};
    const BigInt a = random_bits(rng, 500), b = random_bits(rng, 500);
    FaultPlan over_budget;
    over_budget.add("mul", 0);
    over_budget.add("mul", 1);

    auto cfg = make_cfg(FtEngine::Poly);
    cfg.max_engine_retries = 0;
    cfg.checkpoint_fallback = false;
    cfg.sequential_fallback = false;
    try {
        resilient_multiply(a, b, cfg, over_budget);
        FAIL() << "expected UnrecoverableFault";
    } catch (const UnrecoverableFault& uf) {
        EXPECT_EQ(uf.engine(), "ft_poly");
        EXPECT_EQ(uf.dead_ranks(), (std::vector<int>{0, 1}));
    }
}

TEST(ResilientMultiply, CheckpointPrimarySkipsCheckpointFallback) {
    Rng rng{28};
    const BigInt a = random_bits(rng, 500), b = random_bits(rng, 500);
    FaultPlan buddy_pair;
    buddy_pair.add("leaf-mul", 0);
    buddy_pair.add("leaf-mul", 1);

    auto cfg = make_cfg(FtEngine::Checkpoint);
    cfg.max_engine_retries = 0;
    const PlanSource same_plan = [&](const std::string&, int) {
        return buddy_pair;
    };
    const auto res = resilient_multiply(a, b, cfg, buddy_pair, same_plan);
    EXPECT_EQ(res.product, a * b);
    ASSERT_EQ(res.attempts.size(), 2u);
    EXPECT_EQ(res.attempts[0].strategy, "checkpoint");
    EXPECT_FALSE(res.attempts[0].success);
    // No redundant "checkpoint-fallback" rung between the failed primary
    // and the sequential recompute.
    EXPECT_EQ(res.attempts[1].strategy, "sequential-fallback");
}

TEST(ResilientMultiply, EscalationGateStopsTheLadder) {
    Rng rng{28};
    const BigInt a = random_bits(rng, 700), b = random_bits(rng, 600);
    FaultPlan over_budget;
    over_budget.add("mul", 0);
    over_budget.add("mul", 1);

    // A gate that always refuses: the first rung fails and the ladder may
    // not spend another rung — the deadline-budget semantics the service
    // layer builds on.
    auto cfg = make_cfg(FtEngine::Poly);
    std::vector<std::string> asked;
    cfg.escalation_gate = [&](const std::string& strategy) {
        asked.push_back(strategy);
        return false;
    };
    const PlanSource same_plan = [&](const std::string&, int) {
        return over_budget;
    };
    try {
        resilient_multiply(a, b, cfg, over_budget, same_plan);
        FAIL() << "expected the primary failure to surface";
    } catch (const UnrecoverableFault& uf) {
        EXPECT_EQ(uf.engine(), "ft_poly");
    }
    // The gate was consulted with the rung it would have run, and refused
    // before any work was charged to that rung.
    ASSERT_FALSE(asked.empty());
    EXPECT_EQ(asked.front(), "ft_poly-retry-1");

    // A permissive gate changes nothing: same ladder as with no gate.
    auto open_cfg = make_cfg(FtEngine::Poly);
    open_cfg.escalation_gate = [](const std::string&) { return true; };
    const auto res = resilient_multiply(a, b, open_cfg, over_budget);
    EXPECT_EQ(res.product, a * b);
    ASSERT_EQ(res.attempts.size(), 2u);
    EXPECT_EQ(res.attempts[1].strategy, "ft_poly-retry-1");
}

}  // namespace
}  // namespace ftmul
