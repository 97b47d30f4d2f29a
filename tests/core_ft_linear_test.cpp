#include "core/ft_linear.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "bigint/random.hpp"
#include "core/parallel.hpp"

namespace ftmul {
namespace {

FtLinearConfig make_cfg(int k, int P, int f, std::size_t digit_bits = 32) {
    FtLinearConfig cfg;
    cfg.base.k = k;
    cfg.base.processors = P;
    cfg.base.digit_bits = digit_bits;
    cfg.base.base_len = 4;
    cfg.faults = f;
    return cfg;
}

TEST(FtLinear, RejectsBadConfigs) {
    Rng rng{1};
    BigInt a = random_bits(rng, 400), b = random_bits(rng, 400);
    EXPECT_THROW(ft_linear_multiply(a, b, make_cfg(2, 8, 1), {}),
                 std::invalid_argument);
    auto dfs_cfg = make_cfg(2, 9, 1);
    dfs_cfg.base.forced_dfs_steps = 1;
    EXPECT_THROW(ft_linear_multiply(a, b, dfs_cfg, {}), std::invalid_argument);
}

TEST(FtLinear, RejectsUnsupportedFaultPhases) {
    Rng rng{2};
    BigInt a = random_bits(rng, 400), b = random_bits(rng, 400);
    FaultPlan plan;
    plan.add("xfwd-L0", 0);
    EXPECT_THROW(ft_linear_multiply(a, b, make_cfg(2, 9, 1), plan),
                 std::invalid_argument);
    FaultPlan code_fault;
    code_fault.add("eval-L0", 10);  // a code processor
    EXPECT_THROW(ft_linear_multiply(a, b, make_cfg(2, 9, 1), code_fault),
                 std::invalid_argument);
}

TEST(FtLinear, RejectsColumnOverload) {
    Rng rng{3};
    BigInt a = random_bits(rng, 400), b = random_bits(rng, 400);
    FaultPlan plan;
    plan.add("eval-L0", 0);
    plan.add("eval-L0", 3);  // same column (0 and 3 mod 3)
    EXPECT_THROW(ft_linear_multiply(a, b, make_cfg(2, 9, 1), plan),
                 std::invalid_argument);
}

TEST(FtLinear, FaultFreeMatchesSchoolbook) {
    Rng rng{4};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 2500);
    for (int f : {0, 1, 2}) {
        auto res = ft_linear_multiply(a, b, make_cfg(2, 9, f), {});
        EXPECT_EQ(res.product, a * b) << "f=" << f;
        EXPECT_EQ(res.extra_processors, f * 3);  // f * (2k-1)
    }
}

struct FtLinearCase {
    int k;
    int P;
    int f;
    const char* phase;
    std::vector<int> fail_ranks;
    std::size_t bits;
};

class FtLinearFaultSweep : public ::testing::TestWithParam<FtLinearCase> {};

TEST_P(FtLinearFaultSweep, RecoversCorrectProduct) {
    const auto& tc = GetParam();
    Rng rng{static_cast<std::uint64_t>(tc.k * 37 + tc.P + tc.f)};
    BigInt a = random_bits(rng, tc.bits);
    BigInt b = random_bits(rng, tc.bits - 100);
    FaultPlan plan;
    for (int r : tc.fail_ranks) plan.add(tc.phase, r);
    auto res = ft_linear_multiply(a, b, make_cfg(tc.k, tc.P, tc.f), plan);
    EXPECT_EQ(res.product, a * b);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FtLinearFaultSweep,
    ::testing::Values(
        // Evaluation-phase faults (Section 4.1 on-the-fly recovery).
        FtLinearCase{2, 9, 1, "eval-L0", {0}, 2000},
        FtLinearCase{2, 9, 1, "eval-L0", {4}, 2000},
        FtLinearCase{2, 9, 1, "eval-L0", {8}, 2000},
        // Two faults in *different* columns with f=1 (one code row each).
        FtLinearCase{2, 9, 1, "eval-L0", {0, 1}, 2000},
        // Two faults in the same column need f=2.
        FtLinearCase{2, 9, 2, "eval-L0", {0, 3}, 2500},
        FtLinearCase{2, 9, 2, "eval-L0", {0, 3, 7}, 2500},
        // Multiplication-phase faults: decode + recompute.
        FtLinearCase{2, 9, 1, "leaf-mul", {5}, 2000},
        FtLinearCase{2, 9, 2, "leaf-mul", {2, 5}, 2500},
        // Interpolation-phase faults.
        FtLinearCase{2, 9, 1, "interp-L0", {1}, 2000},
        FtLinearCase{2, 9, 2, "interp-L0", {2, 8}, 2500},
        // Other k / deeper machines.
        FtLinearCase{3, 25, 1, "eval-L0", {7}, 4000},
        FtLinearCase{3, 25, 2, "leaf-mul", {3, 13}, 4000},
        FtLinearCase{2, 27, 1, "interp-L0", {11}, 5000},
        FtLinearCase{4, 7, 1, "eval-L0", {2}, 2000}));

struct ColumnCase {
    int k;
    int P;
    const char* phase;
};

void PrintTo(const ColumnCase& c, std::ostream* os) {
    *os << "k=" << c.k << ", P=" << c.P << ", " << c.phase;
}

class FtLinearColumnErasures : public ::testing::TestWithParam<ColumnCase> {};

TEST_P(FtLinearColumnErasures, EveryDeadSetOfOneOrTwoRecovers) {
    // The column code has distance f + 1 (Definition 2.7): with f = 2, every
    // dead set of one or two ranks inside one level-0 column, here the
    // ranks r with r mod (2k-1) = 1, must still yield the exact product.
    const auto [k, P, phase] = GetParam();
    const int q = 2 * k - 1;
    std::vector<int> column;
    for (int r = 1; r < P; r += q) column.push_back(r);
    Rng rng{static_cast<std::uint64_t>(k * 100 + P)};
    const BigInt a = random_bits(rng, 2000 * static_cast<std::size_t>(k));
    const BigInt b = random_bits(rng, 2000 * static_cast<std::size_t>(k) - 100);
    const BigInt expect = a * b;
    std::size_t sets = 0;
    for (std::size_t i = 0; i < column.size(); ++i) {
        for (std::size_t j = i; j < column.size(); ++j) {
            FaultPlan plan;
            plan.add(phase, column[i]);
            if (j != i) plan.add(phase, column[j]);
            EXPECT_EQ(ft_linear_multiply(a, b, make_cfg(k, P, 2), plan).product,
                      expect)
                << phase << " dead {" << column[i] << ", " << column[j] << "}";
            ++sets;
        }
    }
    const std::size_t m = column.size();
    EXPECT_EQ(sets, m + m * (m - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Columns, FtLinearColumnErasures,
    ::testing::Values(ColumnCase{2, 9, "eval-L0"}, ColumnCase{2, 9, "interp-L0"},
                      ColumnCase{3, 25, "eval-L0"},
                      ColumnCase{3, 25, "interp-L0"},
                      ColumnCase{2, 9, "leaf-mul"},
                      ColumnCase{3, 25, "leaf-mul"}),
    [](const auto& info) {
        std::string name = "K";  // appends: GCC 12 -Wrestrict
        name += std::to_string(info.param.k);
        name += "P";
        name += std::to_string(info.param.P);
        name += "_";
        name += info.param.phase;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

struct DeepCase {
    int k;
    int P;
    int f;
    const char* phase;
    std::vector<int> fail_ranks;
};

class FtLinearDeepLevels : public ::testing::TestWithParam<DeepCase> {};

TEST_P(FtLinearDeepLevels, DeeperBoundariesAreProtected) {
    // The paper re-encodes at *every* BFS step; faults at deep evaluation /
    // interpolation boundaries must recover through the level's own column
    // structure (digit-i of the rank label).
    const auto& tc = GetParam();
    Rng rng{static_cast<std::uint64_t>(tc.P + tc.f)};
    BigInt a = random_bits(rng, 3000);
    BigInt b = random_bits(rng, 2800);
    FaultPlan plan;
    for (int r : tc.fail_ranks) plan.add(tc.phase, r);
    auto res = ft_linear_multiply(a, b, make_cfg(tc.k, tc.P, tc.f), plan);
    EXPECT_EQ(res.product, a * b);
}

INSTANTIATE_TEST_SUITE_P(
    DeepLevels, FtLinearDeepLevels,
    ::testing::Values(
        DeepCase{2, 9, 1, "eval-L1", {0}},
        DeepCase{2, 9, 1, "eval-L1", {4}},
        DeepCase{2, 9, 1, "interp-L1", {7}},
        // Level-1 columns group by the second base-3 digit: ranks 0 and 1
        // share digit_1 = 0, so two faults there need f = 2.
        DeepCase{2, 9, 2, "eval-L1", {0, 1}},
        DeepCase{2, 27, 1, "eval-L2", {13}},
        DeepCase{2, 27, 1, "interp-L2", {26}},
        DeepCase{3, 25, 1, "eval-L1", {12}}));

TEST(FtLinear, RejectsLevelBeyondMachine) {
    Rng rng{9};
    BigInt a = random_bits(rng, 400), b = random_bits(rng, 400);
    FaultPlan plan;
    plan.add("eval-L2", 0);  // P=9 has only levels 0 and 1
    EXPECT_THROW(ft_linear_multiply(a, b, make_cfg(2, 9, 1), plan),
                 std::invalid_argument);
}

TEST(FtLinear, FaultsAtEveryLevelInOneRun) {
    Rng rng{10};
    BigInt a = random_bits(rng, 4000), b = random_bits(rng, 3500);
    FaultPlan plan;
    plan.add("eval-L0", 0);
    plan.add("eval-L1", 4);
    plan.add("leaf-mul", 8);
    plan.add("interp-L1", 2);
    plan.add("interp-L0", 6);
    auto res = ft_linear_multiply(a, b, make_cfg(2, 9, 1), plan);
    EXPECT_EQ(res.product, a * b);
    EXPECT_EQ(res.faults_injected, 5);
}

TEST(FtLinear, MixedPhaseFaultsInOneRun) {
    // Independent faults at each protected phase, recovered epoch by epoch
    // thanks to the per-phase re-encoding.
    Rng rng{5};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 2600);
    FaultPlan plan;
    plan.add("eval-L0", 0);
    plan.add("leaf-mul", 4);
    plan.add("interp-L0", 8);
    auto res = ft_linear_multiply(a, b, make_cfg(2, 9, 1), plan);
    EXPECT_EQ(res.product, a * b);
    EXPECT_EQ(res.faults_injected, 3);
}

TEST(FtLinear, RecoveryCostsAreVisible) {
    Rng rng{6};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 3000);
    FaultPlan plan;
    plan.add("leaf-mul", 4);
    auto res = ft_linear_multiply(a, b, make_cfg(2, 9, 1), plan);
    EXPECT_EQ(res.product, a * b);
    ASSERT_TRUE(res.stats.per_phase.count("recover-leaf-mul"));
    // The recomputation (redone leaf product) lands in the post-recovery
    // bucket and is substantial.
    ASSERT_TRUE(res.stats.per_phase.count("leaf-mul+post-recovery"));
    EXPECT_GT(res.stats.per_phase.at("leaf-mul+post-recovery").flops, 0u);
}

TEST(FtLinear, MultFaultRecomputationCostsMoreThanEvalFault) {
    // The Birnbaum-recomputation ablation in miniature: a mult-phase fault
    // must cost more extra arithmetic than an eval-phase fault.
    Rng rng{7};
    BigInt a = random_bits(rng, 32 * 9 * 8), b = random_bits(rng, 32 * 9 * 8);
    auto cfg = make_cfg(2, 9, 1);

    FaultPlan eval_fault;
    eval_fault.add("eval-L0", 4);
    auto with_eval = ft_linear_multiply(a, b, cfg, eval_fault);

    FaultPlan mul_fault;
    mul_fault.add("leaf-mul", 4);
    auto with_mul = ft_linear_multiply(a, b, cfg, mul_fault);

    EXPECT_EQ(with_eval.product, with_mul.product);
    const auto eval_extra =
        with_eval.stats.per_phase.count("eval-L0+post-recovery")
            ? with_eval.stats.per_phase.at("eval-L0+post-recovery").flops
            : 0;
    const auto mul_extra =
        with_mul.stats.per_phase.at("leaf-mul+post-recovery").flops;
    EXPECT_GT(mul_extra, eval_extra);
}

TEST(FtLinear, EventLogAttributesFaultAndRecovery) {
    Rng rng{8};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 3000);
    auto cfg = make_cfg(2, 9, 1);
    cfg.base.events = true;
    FaultPlan plan;
    plan.add("eval-L0", 4);
    auto res = ft_linear_multiply(a, b, cfg, plan);
    EXPECT_EQ(res.product, a * b);
    ASSERT_NE(res.events, nullptr);

    // The scheduled fault fired on rank 4 at the eval-L0 boundary.
    const auto faults = res.events->of_kind(EventKind::Fault);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].rank, 4);
    EXPECT_EQ(faults[0].phase, "eval-L0");

    // Every recovery end names the dead rank and carries a real cost; the
    // column mates of rank 4 (and its code processor) all participate, and
    // between them the Vandermonde decode moves words.
    const auto recs = res.events->of_kind(EventKind::RecoveryEnd);
    ASSERT_GT(recs.size(), 0u);
    std::uint64_t words = 0;
    bool dead_rank_recovered = false;
    for (const Event& e : recs) {
        ASSERT_EQ(e.ranks.size(), 1u);
        EXPECT_EQ(e.ranks[0], 4);
        EXPECT_EQ(e.phase, "recover-eval-L0");
        words += e.counters.words;
        dead_rank_recovered |= e.rank == 4;
    }
    EXPECT_GT(words, 0u);
    EXPECT_TRUE(dead_rank_recovered);
    EXPECT_EQ(res.events->of_kind(EventKind::RecoveryBegin).size(),
              recs.size());
}

TEST(FtLinear, NoEventLogUnlessRequested) {
    Rng rng{9};
    BigInt a = random_bits(rng, 1000), b = random_bits(rng, 1000);
    auto res = ft_linear_multiply(a, b, make_cfg(2, 9, 1), {});
    EXPECT_EQ(res.events, nullptr);
}

}  // namespace
}  // namespace ftmul
