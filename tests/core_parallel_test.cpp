#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "bigint/random.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

TEST(ResolveShape, RejectsBadConfigs) {
    ParallelConfig cfg;
    cfg.k = 1;
    EXPECT_THROW(resolve_shape(cfg, 100), std::invalid_argument);
    cfg.k = 2;
    cfg.processors = 8;  // not a power of 3
    EXPECT_THROW(resolve_shape(cfg, 100), std::invalid_argument);
    cfg.processors = 9;
    cfg.digit_bits = 0;
    EXPECT_THROW(resolve_shape(cfg, 100), std::invalid_argument);
}

TEST(ResolveShape, BasicGeometry) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    auto s = resolve_shape(cfg, 32 * 9 * 4 * 2);  // wants 72 digits
    EXPECT_EQ(s.bfs_steps, 2);
    EXPECT_EQ(s.dfs_steps, 0);
    EXPECT_EQ(s.leaf_len % 9, 0u);
    EXPECT_EQ(s.total_digits, 4 * s.leaf_len);
    EXPECT_GE(s.total_digits * s.digit_bits, 32u * 72u);
}

TEST(ResolveShape, MemoryLimitForcesDfs) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 3;
    cfg.digit_bits = 32;
    const std::size_t n = 32 * 3 * 256;
    auto unlimited = resolve_shape(cfg, n);
    EXPECT_EQ(unlimited.dfs_steps, 0);
    cfg.memory_limit_words = estimate_peak_words(unlimited) / 4;
    auto limited = resolve_shape(cfg, n);
    EXPECT_GT(limited.dfs_steps, 0);
}

TEST(ResolveShape, ForcedDfsHonored) {
    ParallelConfig cfg;
    cfg.k = 3;
    cfg.processors = 5;
    cfg.forced_dfs_steps = 2;
    auto s = resolve_shape(cfg, 10000);
    EXPECT_EQ(s.dfs_steps, 2);
    EXPECT_EQ(s.bfs_steps, 1);
    EXPECT_EQ(s.total_digits, 27 * s.leaf_len);  // k^(dfs+bfs) * leaf
}

struct ParCase {
    int k;
    int P;
    std::size_t bits;
    int forced_dfs;
};

class ParallelSweep : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelSweep, ProductMatchesSchoolbook) {
    const auto [k, P, bits, dfs] = GetParam();
    ParallelConfig cfg;
    cfg.k = k;
    cfg.processors = P;
    cfg.digit_bits = 32;
    cfg.base_len = 4;
    cfg.forced_dfs_steps = dfs;
    Rng rng{static_cast<std::uint64_t>(k * 1000 + P * 10 + dfs)};
    BigInt a = random_bits(rng, bits);
    BigInt b = random_bits(rng, bits - bits / 3);
    auto res = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(res.product, a * b)
        << "k=" << k << " P=" << P << " shape: " << res.shape.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelSweep,
    ::testing::Values(ParCase{2, 3, 2048, 0}, ParCase{2, 9, 4096, 0},
                      ParCase{2, 9, 4096, 2}, ParCase{2, 27, 8192, 0},
                      ParCase{3, 5, 4096, 0}, ParCase{3, 5, 4096, 1},
                      ParCase{3, 25, 10000, 0}, ParCase{4, 7, 6000, 0},
                      ParCase{2, 1, 1024, 0}, ParCase{5, 9, 5000, 0}));

struct LopsidedParCase {
    int k;
    int P;
    std::size_t bits_a;
    std::size_t bits_b;
    int forced_dfs;
};

void PrintTo(const LopsidedParCase& c, std::ostream* os) {
    *os << "k=" << c.k << ", P=" << c.P << ", " << c.bits_a << " x "
        << c.bits_b << " bits, " << c.forced_dfs << " DFS steps";
}

class ParallelLopsidedSweep : public ::testing::TestWithParam<LopsidedParCase> {};

TEST_P(ParallelLopsidedSweep, ProductMatchesSchoolbook) {
    // The digit count follows the longer operand, so the shorter one's
    // block-cyclic slices are mostly, and on some ranks wholly, zero.
    const auto [k, P, bits_a, bits_b, dfs] = GetParam();
    ParallelConfig cfg;
    cfg.k = k;
    cfg.processors = P;
    cfg.digit_bits = 32;
    cfg.base_len = 4;
    cfg.forced_dfs_steps = dfs;
    Rng rng{static_cast<std::uint64_t>(k * 1000 + P * 10 + dfs) + bits_b};
    const BigInt a = random_signed_bits(rng, bits_a);
    const BigInt b = random_signed_bits(rng, bits_b);
    auto res = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(res.product, a * b)
        << "k=" << k << " P=" << P << " shape: " << res.shape.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelLopsidedSweep,
    ::testing::Values(LopsidedParCase{2, 3, 8000, 300, 0},
                      LopsidedParCase{2, 9, 300, 8000, 0},
                      LopsidedParCase{2, 27, 12000, 64, 0},
                      LopsidedParCase{3, 25, 10000, 900, 0},
                      LopsidedParCase{3, 5, 6000, 100, 1}),
    [](const auto& info) {
        std::string name = "K";  // appends: GCC 12 -Wrestrict
        name += std::to_string(info.param.k);
        name += "P";
        name += std::to_string(info.param.P);
        name += "A";
        name += std::to_string(info.param.bits_a);
        name += "B";
        name += std::to_string(info.param.bits_b);
        name += "Dfs";
        name += std::to_string(info.param.forced_dfs);
        return name;
    });

TEST(Parallel, SignsAndZero) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 3;
    Rng rng{5};
    BigInt a = random_bits(rng, 1000);
    BigInt b = random_bits(rng, 900);
    EXPECT_EQ(parallel_toom_multiply(-a, b, cfg).product, -(a * b));
    EXPECT_EQ(parallel_toom_multiply(a, -b, cfg).product, -(a * b));
    EXPECT_EQ(parallel_toom_multiply(-a, -b, cfg).product, a * b);
    EXPECT_EQ(parallel_toom_multiply(BigInt{}, b, cfg).product, BigInt{});
}

TEST(Parallel, AgreesWithSequentialVariants) {
    ParallelConfig cfg;
    cfg.k = 3;
    cfg.processors = 5;
    Rng rng{6};
    BigInt a = random_bits(rng, 7777);
    BigInt b = random_bits(rng, 7000);
    auto par = parallel_toom_multiply(a, b, cfg);
    auto plan = ToomPlan::make(3);
    EXPECT_EQ(par.product, toom_multiply(a, b, plan));
}

TEST(Parallel, StatsArePopulated) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    Rng rng{7};
    BigInt a = random_bits(rng, 4096);
    BigInt b = random_bits(rng, 4096);
    auto res = parallel_toom_multiply(a, b, cfg);
    EXPECT_GT(res.stats.critical.flops, 0u);
    EXPECT_GT(res.stats.critical.words, 0u);
    EXPECT_GT(res.stats.critical.latency, 0u);
    EXPECT_GT(res.stats.peak_memory_words, 0u);
    // BFS steps produce the level phases.
    EXPECT_TRUE(res.stats.per_phase.count("eval-L0"));
    EXPECT_TRUE(res.stats.per_phase.count("xfwd-L0"));
    EXPECT_TRUE(res.stats.per_phase.count("leaf-mul"));
}

TEST(Parallel, StepOrderValidation) {
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    Rng rng{11};
    BigInt a = random_bits(rng, 1000), b = random_bits(rng, 1000);
    cfg.step_order = "BX";
    EXPECT_THROW(parallel_toom_multiply(a, b, cfg), std::invalid_argument);
    cfg.step_order = "B";  // needs two 'B's for P = 9
    EXPECT_THROW(parallel_toom_multiply(a, b, cfg), std::invalid_argument);
}

class StepOrderSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(StepOrderSweep, EveryScheduleComputesTheProduct) {
    // Any interleaving of the same B/D multiset is correct; only costs
    // differ (Ballard et al.'s optimality claim is about cost, not
    // correctness).
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    cfg.step_order = GetParam();
    Rng rng{12};
    BigInt a = random_bits(rng, 4000), b = random_bits(rng, 3500);
    auto res = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(res.product, a * b) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Orders, StepOrderSweep,
                         ::testing::Values("BB", "DBB", "BDB", "BBD", "DBDB",
                                           "BDDB", "BBDD"));

TEST(Parallel, DfsFirstMinimizesPeakMemory) {
    // The cited scheduling result (Ballard et al.): DFS steps exist to fit
    // the memory bound, and they only help if taken *before* the BFS steps
    // — BFS-first expands the working set at the top where memory is
    // tightest. (BFS-first moves fewer words, because each DFS step grows
    // the total data volume by (2k-1)/k; the memory bound is what forces
    // the DFS-first order — exactly the Table 2 trade.)
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    Rng rng{13};
    BigInt a = random_bits(rng, 32 * 9 * 32), b = random_bits(rng, 32 * 9 * 32);
    cfg.step_order = "DDBB";
    auto dfs_first = parallel_toom_multiply(a, b, cfg);
    cfg.step_order = "BBDD";
    auto bfs_first = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(dfs_first.product, bfs_first.product);
    EXPECT_LT(dfs_first.stats.peak_memory_words,
              bfs_first.stats.peak_memory_words);
    EXPECT_LE(bfs_first.stats.critical.words, dfs_first.stats.critical.words);
}

TEST(Parallel, DfsReducesPeakMemory) {
    // Lemma 3.1's point: DFS steps shrink the per-processor footprint.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    Rng rng{8};
    BigInt a = random_bits(rng, 32 * 9 * 64);
    BigInt b = random_bits(rng, 32 * 9 * 64);
    cfg.forced_dfs_steps = 0;
    auto noDfs = parallel_toom_multiply(a, b, cfg);
    cfg.forced_dfs_steps = 2;
    auto twoDfs = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(noDfs.product, twoDfs.product);
    EXPECT_LT(twoDfs.stats.peak_memory_words, noDfs.stats.peak_memory_words);
}

TEST(Parallel, DfsIncreasesBandwidth) {
    // Table 2 vs Table 1: the limited-memory algorithm moves more words.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    Rng rng{9};
    BigInt a = random_bits(rng, 32 * 9 * 64);
    BigInt b = random_bits(rng, 32 * 9 * 64);
    cfg.forced_dfs_steps = 0;
    auto noDfs = parallel_toom_multiply(a, b, cfg);
    cfg.forced_dfs_steps = 2;
    auto twoDfs = parallel_toom_multiply(a, b, cfg);
    EXPECT_GT(twoDfs.stats.critical.words, noDfs.stats.critical.words);
}

}  // namespace
}  // namespace ftmul
