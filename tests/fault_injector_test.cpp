#include "runtime/fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "runtime/machine.hpp"

namespace ftmul {
namespace {

FaultInjectorConfig site_grid() {
    FaultInjectorConfig cfg;
    cfg.phases = {"eval-L0", "mul", "interp-L0"};
    cfg.ranks = {0, 1, 2, 3, 4, 5, 6, 7};
    return cfg;
}

// ---------------------------------------------------------------------------
// FaultPlan (the concrete schedule the injector materializes)
// ---------------------------------------------------------------------------

TEST(FaultPlan, RejectsNegativeRank) {
    FaultPlan plan;
    EXPECT_THROW(plan.add("mul", -1), std::invalid_argument);
    EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, RejectsDuplicateSite) {
    FaultPlan plan;
    plan.add("mul", 3);
    EXPECT_THROW(plan.add("mul", 3), std::invalid_argument);
    // The same rank at a different phase is a distinct fault.
    plan.add("eval-L0", 3);
    EXPECT_EQ(plan.total_faults(), 2u);
}

TEST(FaultPlan, HashedMembershipAndSortedViews) {
    FaultPlan plan;
    plan.add("mul", 5);
    plan.add("mul", 1);
    plan.add("eval-L0", 3);

    EXPECT_TRUE(plan.fails_at("mul", 5));
    EXPECT_TRUE(plan.fails_at("mul", 1));
    EXPECT_FALSE(plan.fails_at("mul", 2));
    EXPECT_FALSE(plan.fails_at("interp-L0", 5));
    // string_view lookups must not allocate a temporary key type mismatch.
    const std::string_view sv = "eval-L0";
    EXPECT_TRUE(plan.fails_at(sv, 3));

    EXPECT_EQ(plan.failing_at("mul"), (std::vector<int>{1, 5}));
    EXPECT_EQ(plan.failing_at("nowhere"), std::vector<int>{});

    const auto all = plan.all();
    const std::vector<std::pair<std::string, int>> want = {
        {"eval-L0", 3}, {"mul", 1}, {"mul", 5}};
    EXPECT_EQ(all, want);
    EXPECT_EQ(plan.total_faults(), 3u);
    EXPECT_FALSE(plan.empty());
}

// ---------------------------------------------------------------------------
// FaultInjector draws
// ---------------------------------------------------------------------------

TEST(FaultInjector, ZeroRatesInjectNothing) {
    const auto faults = FaultInjector(7).draw(site_grid(), 0);
    EXPECT_EQ(faults.total(), 0u);
    EXPECT_TRUE(faults.hard.empty());
    EXPECT_EQ(faults.soft.total(), 0u);
    EXPECT_TRUE(faults.stragglers.empty());
}

TEST(FaultInjector, DrawIsPureFunctionOfSeedAndTrial) {
    auto cfg = site_grid();
    cfg.hard_rate = 0.3;
    cfg.soft_rate = 0.2;
    cfg.straggler_rate = 0.25;

    const FaultInjector inj(42);
    for (std::uint64_t trial : {0ull, 1ull, 731ull}) {
        const auto a = inj.draw(cfg, trial);
        const auto b = inj.draw(cfg, trial);           // same injector
        const auto c = FaultInjector(42).draw(cfg, trial);  // fresh injector
        EXPECT_EQ(a.hard.all(), b.hard.all()) << "trial " << trial;
        EXPECT_EQ(a.hard.all(), c.hard.all()) << "trial " << trial;
        EXPECT_EQ(a.soft.all(), b.soft.all()) << "trial " << trial;
        EXPECT_EQ(a.soft.all(), c.soft.all()) << "trial " << trial;
        EXPECT_EQ(a.stragglers, b.stragglers) << "trial " << trial;
        EXPECT_EQ(a.stragglers, c.stragglers) << "trial " << trial;
    }
}

TEST(FaultInjector, TrialsAndSeedsGiveDistinctSchedules) {
    auto cfg = site_grid();
    cfg.hard_rate = 0.3;

    const FaultInjector inj(1);
    std::set<std::vector<std::pair<std::string, int>>> distinct;
    for (std::uint64_t t = 0; t < 32; ++t) {
        distinct.insert(inj.draw(cfg, t).hard.all());
    }
    EXPECT_GT(distinct.size(), 1u) << "32 trials all drew the same schedule";

    bool seeds_differ = false;
    for (std::uint64_t t = 0; t < 32 && !seeds_differ; ++t) {
        seeds_differ = FaultInjector(1).draw(cfg, t).hard.all() !=
                       FaultInjector(2).draw(cfg, t).hard.all();
    }
    EXPECT_TRUE(seeds_differ) << "seed does not influence the draw";
}

TEST(FaultInjector, RateOneHitsEverySite) {
    auto cfg = site_grid();
    cfg.hard_rate = 1.0;
    cfg.soft_rate = 1.0;
    cfg.straggler_rate = 1.0;
    cfg.straggler_rounds = 11;

    const auto faults = FaultInjector(3).draw(cfg, 5);
    const std::size_t sites = cfg.phases.size() * cfg.ranks.size();
    EXPECT_EQ(faults.hard.total_faults(), sites);
    EXPECT_EQ(faults.soft.total(), sites);
    for (const auto& phase : cfg.phases) {
        for (int r : cfg.ranks) {
            EXPECT_TRUE(faults.hard.fails_at(phase, r));
            EXPECT_TRUE(faults.soft.corrupts_at(phase, r));
        }
    }
    ASSERT_EQ(faults.stragglers.size(), cfg.ranks.size());
    for (const auto& [rank, rounds] : faults.stragglers) {
        EXPECT_EQ(rounds, 11u) << "rank " << rank;
    }
}

TEST(FaultInjector, MaxHardFaultsCapsTheDraw) {
    auto cfg = site_grid();
    cfg.hard_rate = 1.0;
    cfg.max_hard_faults = 3;
    const auto faults = FaultInjector(3).draw(cfg, 5);
    EXPECT_EQ(faults.hard.total_faults(), 3u);
}

TEST(FaultInjector, DrawIsInvariantUnderSiteListReordering) {
    // Site streams are content-addressed: the draw is a pure function of
    // (seed, trial, site), so listing the same phases/ranks in a different
    // order must fire the exact same sites. This was the replayability bug:
    // positional indexing keyed streams by list position.
    auto cfg = site_grid();
    cfg.hard_rate = 0.3;
    cfg.soft_rate = 0.25;
    cfg.straggler_rate = 0.2;

    auto shuffled = cfg;
    shuffled.phases = {"interp-L0", "eval-L0", "mul"};
    shuffled.ranks = {5, 0, 7, 2, 6, 1, 4, 3};

    const FaultInjector inj(2026);
    for (std::uint64_t t = 0; t < 32; ++t) {
        const auto a = inj.draw(cfg, t);
        const auto b = inj.draw(shuffled, t);
        // Schedules materialize in canonical site order, so the comparison
        // is exact — not just set equality.
        EXPECT_EQ(a.hard.all(), b.hard.all()) << "trial " << t;
        EXPECT_EQ(a.soft.all(), b.soft.all()) << "trial " << t;
        EXPECT_EQ(a.stragglers, b.stragglers) << "trial " << t;
    }
}

TEST(FaultInjector, CappedDrawIsInvariantUnderSiteListReordering) {
    // The max_hard_faults cap must select the same survivors however the
    // candidate lists are ordered: the cap ranks fired sites by a
    // deterministic hash of the site content, not by declaration order.
    auto cfg = site_grid();
    cfg.hard_rate = 1.0;  // every site fires; only the cap decides
    cfg.max_hard_faults = 3;

    auto shuffled = cfg;
    shuffled.phases = {"mul", "interp-L0", "eval-L0"};
    shuffled.ranks = {7, 6, 5, 4, 3, 2, 1, 0};

    const FaultInjector inj(17);
    for (std::uint64_t t = 0; t < 16; ++t) {
        const auto a = inj.draw(cfg, t).hard.all();
        const auto b = inj.draw(shuffled, t).hard.all();
        ASSERT_EQ(a.size(), 3u) << "trial " << t;
        EXPECT_EQ(a, b) << "cap picked order-dependent survivors, trial "
                        << t;
    }
}

TEST(FaultInjector, SoftAndStragglerExtremeRates) {
    // Rate 0.0 never fires and 1.0 always fires, independently per
    // category: the taxonomies draw from separate salted streams.
    auto cfg = site_grid();
    cfg.soft_rate = 0.0;
    cfg.straggler_rate = 1.0;
    cfg.straggler_rounds = 5;
    const FaultInjector inj(8);
    for (std::uint64_t t = 0; t < 8; ++t) {
        const auto f = inj.draw(cfg, t);
        EXPECT_TRUE(f.hard.empty());
        EXPECT_EQ(f.soft.total(), 0u);
        EXPECT_EQ(f.stragglers.size(), cfg.ranks.size());
    }

    cfg.soft_rate = 1.0;
    cfg.straggler_rate = 0.0;
    for (std::uint64_t t = 0; t < 8; ++t) {
        const auto f = inj.draw(cfg, t);
        EXPECT_EQ(f.soft.total(), cfg.phases.size() * cfg.ranks.size());
        EXPECT_TRUE(f.stragglers.empty());
    }
}

TEST(FaultInjector, RejectsRatesAboveOne) {
    // Rates are probabilities: values above 1.0 used to be accepted
    // silently (the weighted product just saturated), masking config typos.
    const FaultInjector inj(1);
    for (auto set : {+[](FaultInjectorConfig& c) { c.hard_rate = 1.5; },
                     +[](FaultInjectorConfig& c) { c.soft_rate = 2.0; },
                     +[](FaultInjectorConfig& c) {
                         c.straggler_rate = 1.0001;
                     }}) {
        auto bad = site_grid();
        set(bad);
        EXPECT_THROW(inj.draw(bad, 0), std::invalid_argument);
    }
}

TEST(FaultInjector, RejectsTransportRatesOutsideUnitInterval) {
    const FaultInjector inj(1);
    for (auto set :
         {+[](FaultInjectorConfig& c) { c.msg_corrupt_rate = 1.5; },
          +[](FaultInjectorConfig& c) { c.msg_drop_rate = -0.5; },
          +[](FaultInjectorConfig& c) { c.msg_dup_rate = 2.0; },
          +[](FaultInjectorConfig& c) { c.msg_reorder_rate = 1.0001; }}) {
        auto bad = site_grid();
        set(bad);
        EXPECT_THROW(inj.draw(bad, 0), std::invalid_argument);
    }
}

TEST(FaultInjector, ForwardsTransportModelWithSeedAndTrial) {
    // The transport taxonomy stays probabilistic (the shim draws per
    // frame), but the drawn model must pin (seed, trial) and the rates so
    // a trial's data-plane schedule is replayable like the hard plans.
    auto cfg = site_grid();
    cfg.msg_corrupt_rate = 0.01;
    cfg.msg_drop_rate = 0.02;
    cfg.msg_dup_rate = 0.03;
    cfg.msg_reorder_rate = 0.04;

    const FaultInjector inj(42);
    const InjectedFaults f = inj.draw(cfg, 731);
    EXPECT_EQ(f.transport.seed, 42u);
    EXPECT_EQ(f.transport.trial, 731u);
    EXPECT_DOUBLE_EQ(f.transport.corrupt_rate, 0.01);
    EXPECT_DOUBLE_EQ(f.transport.drop_rate, 0.02);
    EXPECT_DOUBLE_EQ(f.transport.dup_rate, 0.03);
    EXPECT_DOUBLE_EQ(f.transport.reorder_rate, 0.04);
    EXPECT_TRUE(f.transport.active());

    // And the redraw is byte-identical: same (seed, trial) -> same model,
    // whose per-frame draws are themselves pure (see transport tests).
    const InjectedFaults g = inj.draw(cfg, 731);
    EXPECT_EQ(g.transport.seed, f.transport.seed);
    EXPECT_EQ(g.transport.trial, f.transport.trial);
    for (std::uint64_t idx = 0; idx < 32; ++idx) {
        EXPECT_EQ(f.transport.draw(0, 1, idx), g.transport.draw(0, 1, idx));
    }
}

TEST(FaultInjector, WeightedProbabilityClampsAtOne) {
    // rate x weight > 1 clamps to probability 1: the boosted site fires at
    // every trial (it cannot overflow into neighboring streams).
    auto cfg = site_grid();
    cfg.hard_rate = 0.5;
    cfg.rank_weights = {4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};

    const FaultInjector inj(23);
    for (std::uint64_t t = 0; t < 32; ++t) {
        const auto faults = inj.draw(cfg, t);
        for (const auto& phase : cfg.phases) {
            EXPECT_TRUE(faults.hard.fails_at(phase, 0))
                << "clamped-probability site missed at trial " << t;
        }
    }
}

TEST(FaultInjector, ZeroWeightMasksTargets) {
    auto cfg = site_grid();
    cfg.hard_rate = 1.0;
    cfg.rank_weights = {0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    cfg.phase_weights = {1.0, 1.0, 0.0};  // never hit interp-L0

    for (std::uint64_t t = 0; t < 16; ++t) {
        const auto faults = FaultInjector(9).draw(cfg, t);
        for (const auto& [phase, rank] : faults.hard.all()) {
            EXPECT_NE(rank, 0) << "masked rank was hit at trial " << t;
            EXPECT_NE(phase, "interp-L0") << "masked phase hit at trial " << t;
        }
    }
}

TEST(FaultInjector, WeightsSteerWithoutDisturbingOtherSites) {
    // Raising one rank's weight must not change which *other* sites fire:
    // per-site streams are independent of each other and of the weights.
    auto cfg = site_grid();
    cfg.hard_rate = 0.2;
    auto boosted = cfg;
    boosted.rank_weights = {5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};

    const FaultInjector inj(11);
    for (std::uint64_t t = 0; t < 16; ++t) {
        const auto base = inj.draw(cfg, t).hard.all();
        const auto target = inj.draw(boosted, t).hard.all();
        // Every baseline fault survives the boost (probabilities only grew
        // at rank 0, stayed equal elsewhere), and any new fault is at rank 0.
        for (const auto& site : base) {
            EXPECT_TRUE(std::find(target.begin(), target.end(), site) !=
                        target.end());
        }
        for (const auto& [phase, rank] : target) {
            if (std::find(base.begin(), base.end(),
                          std::make_pair(phase, rank)) == base.end()) {
                EXPECT_EQ(rank, 0) << "boost perturbed an unrelated site";
            }
        }
    }
}

TEST(FaultInjector, RejectsMalformedConfigs) {
    const FaultInjector inj(1);
    auto bad = site_grid();
    bad.hard_rate = -0.1;
    EXPECT_THROW(inj.draw(bad, 0), std::invalid_argument);

    bad = site_grid();
    bad.soft_rate = -1.0;
    EXPECT_THROW(inj.draw(bad, 0), std::invalid_argument);

    bad = site_grid();
    bad.rank_weights = {1.0};  // 8 ranks, 1 weight
    EXPECT_THROW(inj.draw(bad, 0), std::invalid_argument);

    bad = site_grid();
    bad.phase_weights = {1.0, 1.0, 1.0, 1.0};  // 3 phases, 4 weights
    EXPECT_THROW(inj.draw(bad, 0), std::invalid_argument);

    bad = site_grid();
    bad.rank_weights = {1, 1, 1, 1, 1, 1, 1, -2};
    EXPECT_THROW(inj.draw(bad, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Deadlock diagnostic (Machine/Mailbox satellite)
// ---------------------------------------------------------------------------

TEST(DeadlockDiagnostic, NamesEveryBlockedRankAndLogsEvent) {
    Machine m(3);
    m.enable_event_log();

    bool deadlocked = false;
    const auto start = std::chrono::steady_clock::now();
    try {
        m.run([](Rank& r) {
            r.phase("stuck");
            // Rank 1 exits immediately; 0 and 2 wait on messages that never
            // arrive — a protocol bug the machine must diagnose, not hang on.
            // The run fails the moment the last runnable rank parks or
            // exits, whatever the order, with both parked ranks named.
            if (r.id() == 0) (void)r.recv(1, 7);
            if (r.id() == 2) (void)r.recv(0, 9);
        });
    } catch (const DeadlockError& e) {
        deadlocked = true;
        const std::string msg = e.what();
        EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
        EXPECT_NE(msg.find("phase \"stuck\""), std::string::npos) << msg;
        EXPECT_NE(msg.find("rank 0 waiting for src=1 tag=7"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("rank 2 waiting for src=0 tag=9"),
                  std::string::npos)
            << msg;
        EXPECT_EQ(msg.find("rank 1 waiting"), std::string::npos) << msg;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(deadlocked) << "expected the run to fail with DeadlockError";
    EXPECT_LT(elapsed, std::chrono::milliseconds(100));

    const auto deadlocks = m.event_log()->of_kind(EventKind::Deadlock);
    ASSERT_EQ(deadlocks.size(), 1u);
    const Event& e = deadlocks.front();
    EXPECT_EQ(e.phase, "stuck");
    EXPECT_EQ(e.rank, 0);
    EXPECT_EQ(e.peer, 1);
    EXPECT_EQ(e.tag, 7);
    EXPECT_EQ(e.ranks, (std::vector<int>{0, 2}));
}

}  // namespace
}  // namespace ftmul
