// The Section 4.1 linear code one grid column at a time: what
// core_detail::encode_column places on a column's code ranks and what
// recover_column rebuilds on its dead data ranks, driven directly on a
// Machine. The engine-level tests (test_core_ft_linear) see the same code
// only through whole products.

#include "core/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "bigint/random.hpp"
#include "runtime/events.hpp"
#include "runtime/machine.hpp"

namespace ftmul {
namespace {

using core_detail::CodeColumn;
using core_detail::encode_column;
using core_detail::recover_column;

using State = std::vector<BigInt>;

constexpr int kEncodeTag = 100;
constexpr int kRecoverTag = 200;

std::size_t index_of(const std::vector<int>& v, int x) {
    return static_cast<std::size_t>(std::find(v.begin(), v.end(), x) -
                                    v.begin());
}

bool contains(const std::vector<int>& v, int x) {
    return index_of(v, x) < v.size();
}

int world_of(const CodeColumn& col) {
    int top = 0;
    for (int r : col.members) top = std::max(top, r);
    for (int r : col.code) top = std::max(top, r);
    return top + 1;
}

/// What one run of a column leaves behind, indexed by rank.
struct ColumnRun {
    std::vector<State> code;     ///< encode_column's return
    std::vector<State> rebuilt;  ///< recover_column's return
};

/// How a run loses state between encoding and recovery.
struct Loss {
    std::vector<int> dead;        ///< data ranks whose state is gone
    State lost;                   ///< what a dead rank holds instead
    std::vector<int> stale_code;  ///< code ranks whose code is overwritten
};

/// One rank's part of a column run: member i starts with state[i], every
/// rank of the column encodes ("encode"); when the loss names dead ranks,
/// they and any stale code ranks replace what they hold with `lost`, and
/// the column recovers ("recover").
void column_body(Rank& rank, const CodeColumn& col,
                 const std::vector<State>& state, const Loss& loss,
                 ColumnRun& out) {
    const int id = rank.id();
    const std::size_t pos = index_of(col.members, id);
    const bool is_code = contains(col.code, id);
    if (pos == col.members.size() && !is_code) return;
    State mine = is_code ? State{} : state[pos];
    rank.phase("encode");
    State code = encode_column(rank, col, mine, kEncodeTag);
    out.code[static_cast<std::size_t>(id)] = code;
    if (loss.dead.empty()) return;
    rank.phase("recover");
    if (contains(loss.dead, id)) mine = loss.lost;
    if (contains(loss.stale_code, id)) code = loss.lost;
    out.rebuilt[static_cast<std::size_t>(id)] =
        recover_column(rank, "column", "recover", col, loss.dead,
                       is_code ? code : mine, kRecoverTag);
}

ColumnRun run_column(Machine& m, const CodeColumn& col,
                     const std::vector<State>& state, const Loss& loss = {}) {
    ColumnRun out;
    out.code.resize(static_cast<std::size_t>(world_of(col)));
    out.rebuilt.resize(out.code.size());
    m.run([&](Rank& rank) { column_body(rank, col, state, loss, out); });
    return out;
}

std::vector<State> random_states(Rng& rng, std::size_t members,
                                 std::size_t len, std::size_t bits) {
    std::vector<State> out(members, State(len));
    for (State& s : out) {
        for (BigInt& v : s) v = random_signed_bits(rng, 1 + rng.next_below(bits));
    }
    return out;
}

/// sum_l eta^l state_l elementwise, eta = j + 1 for code rank j.
State expected_code(const std::vector<State>& state, int j) {
    State out(state.front().size());
    BigInt w{1};
    for (const State& s : state) {
        for (std::size_t e = 0; e < s.size(); ++e) out[e] += w * s[e];
        w *= BigInt{j + 1};
    }
    return out;
}

TEST(ColumnCode, EncodeKnownValues) {
    // eta_1 = 1, eta_2 = 2, eta_3 = 3: code j holds sum_l eta_j^l d_l.
    const CodeColumn col{{0, 1, 2}, {3, 4, 5}};
    Machine m(world_of(col));
    const auto run = run_column(m, col, {{5, -1}, {7, 0}, {11, 2}});
    EXPECT_EQ(run.code[3], (State{23, 1}));                   // 5+7+11
    EXPECT_EQ(run.code[4], (State{5 + 14 + 44, -1 + 8}));     // 5+2*7+4*11
    EXPECT_EQ(run.code[5], (State{5 + 21 + 99, -1 + 18}));    // 5+3*7+9*11
    for (int data : col.members) {
        EXPECT_TRUE(run.code[static_cast<std::size_t>(data)].empty()) << data;
    }
}

TEST(ColumnCode, EncodeMatchesTheVandermondeWeights) {
    // Positions up to 5 and code rows up to eta = 4: every weight
    // eta_j^position shows in the code, not only the small ones.
    const CodeColumn col{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}};
    Machine m(world_of(col));
    Rng rng{21};
    const auto state = random_states(rng, 6, 3, 90);
    const auto run = run_column(m, col, state);
    for (std::size_t j = 0; j < col.code.size(); ++j) {
        EXPECT_EQ(run.code[static_cast<std::size_t>(col.code[j])],
                  expected_code(state, static_cast<int>(j)))
            << "code row " << j;
    }
}

TEST(ColumnCode, NoCodeRanksEncodeNothing) {
    // f = 0: no code rank, so nothing is held and nothing is sent.
    const CodeColumn col{{0, 1, 2, 3}, {}};
    Machine m(world_of(col));
    EventLog& log = m.enable_event_log();
    const auto run = run_column(m, col, {{1}, {2}, {3}, {4}});
    for (const State& c : run.code) EXPECT_TRUE(c.empty());
    EXPECT_TRUE(log.of_kind(EventKind::MessageSend).empty());
}

TEST(ColumnCode, EmptyStatesEncodeAndRecoverEmpty) {
    const CodeColumn col{{0, 1, 2}, {3, 4}};
    Machine m(world_of(col));
    const auto run = run_column(m, col, {{}, {}, {}}, {{1}, {}, {}});
    EXPECT_TRUE(run.code[3].empty());
    EXPECT_TRUE(run.code[4].empty());
    EXPECT_TRUE(run.rebuilt[1].empty());
}

TEST(ColumnCode, OnlyTheDeadGetStateBack) {
    // Survivors and code ranks return nothing from recovery; the dead rank
    // returns exactly what it held before.
    const CodeColumn col{{0, 1, 2}, {3}};
    Machine m(world_of(col));
    Rng rng{1};
    const auto state = random_states(rng, 3, 4, 64);
    const auto run = run_column(m, col, state, {{1}, {}, {}});
    EXPECT_EQ(run.rebuilt[1], state[1]);
    for (int r : {0, 2, 3}) {
        EXPECT_TRUE(run.rebuilt[static_cast<std::size_t>(r)].empty()) << r;
    }
}

TEST(ColumnCode, RecoveryReadsOnlyTheFirstDeadCountCodeRanks) {
    // f = 3 and one dead rank: code rows 1 and 2 are not needed, so
    // overwriting them does not block recovery, and they send nothing.
    const CodeColumn col{{0, 1, 2, 3}, {4, 5, 6}};
    Machine m(world_of(col));
    EventLog& log = m.enable_event_log();
    Rng rng{2};
    const auto state = random_states(rng, 4, 3, 80);
    const auto run = run_column(m, col, state, {{2}, {BigInt{-99}}, {5, 6}});
    EXPECT_EQ(run.rebuilt[2], state[2]);
    for (const Event& e : log.of_kind(EventKind::MessageSend)) {
        if (e.phase != "recover") continue;
        EXPECT_NE(e.rank, 5);
        EXPECT_NE(e.rank, 6);
    }
}

TEST(ColumnCode, DeadRanksStateIsNeverRead) {
    // Whatever a dead rank still holds (nothing, or garbage of the right
    // length) must not leak into what it gets back.
    const CodeColumn col{{0, 1, 2, 3}, {4, 5}};
    Machine m(world_of(col));
    Rng rng{3};
    const auto state = random_states(rng, 4, 5, 70);
    const State garbage = random_states(rng, 1, 5, 300).front();
    for (const State& lost : {State{}, garbage}) {
        const auto run = run_column(m, col, state, {{0, 2}, lost, {}});
        EXPECT_EQ(run.rebuilt[0], state[0]);
        EXPECT_EQ(run.rebuilt[2], state[2]);
    }
}

struct ColumnShape {
    std::size_t m;
    std::size_t f;
    std::uint64_t seed;
};

void PrintTo(const ColumnShape& s, std::ostream* os) {
    *os << "m=" << s.m << " f=" << s.f << " seed=" << s.seed;
}

class ColumnCodeSweep : public ::testing::TestWithParam<ColumnShape> {};

TEST_P(ColumnCodeSweep, EveryDeadSetUpToFRecovers) {
    // Distance f + 1 (Definition 2.7): every set of up to f dead data ranks
    // is rebuilt exactly. The members are strided as in a grid column
    // (rank r with r mod 3 = 1), the code ranks follow them.
    const auto [members, f, seed] = GetParam();
    CodeColumn col;
    for (std::size_t i = 0; i < members; ++i) {
        col.members.push_back(1 + 3 * static_cast<int>(i));
    }
    for (std::size_t j = 0; j < f; ++j) {
        col.code.push_back(3 * static_cast<int>(members) + static_cast<int>(j));
    }
    Machine m(world_of(col));
    Rng rng{seed};
    const auto state = random_states(rng, members, 3, 100);
    std::size_t patterns = 0;
    for (std::uint64_t mask = 1; mask < (1ull << members); ++mask) {
        const auto t = static_cast<std::size_t>(__builtin_popcountll(mask));
        if (t > f) continue;
        Loss loss;
        for (std::size_t i = 0; i < members; ++i) {
            if (mask & (1ull << i)) loss.dead.push_back(col.members[i]);
        }
        const auto run = run_column(m, col, state, loss);
        for (std::size_t i = 0; i < members; ++i) {
            if (!(mask & (1ull << i))) continue;
            EXPECT_EQ(run.rebuilt[static_cast<std::size_t>(col.members[i])],
                      state[i])
                << "mask=" << mask << " member " << i;
        }
        ++patterns;
    }
    EXPECT_GT(patterns, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ColumnCodeSweep,
    ::testing::Values(ColumnShape{2, 1, 10}, ColumnShape{3, 1, 11},
                      ColumnShape{3, 2, 12}, ColumnShape{4, 2, 13},
                      ColumnShape{5, 3, 14}, ColumnShape{6, 2, 15},
                      ColumnShape{8, 4, 16}, ColumnShape{9, 1, 17}),
    [](const auto& info) {
        std::string name = "M";  // appends: GCC 12 -Wrestrict
        name += std::to_string(info.param.m);
        name += "F";
        name += std::to_string(info.param.f);
        return name;
    });

TEST(ColumnCode, ElementwiseMatchesOneElementColumns) {
    // A state vector is coded element by element: the code of a 4-element
    // state is the four codes of its one-element slices.
    const CodeColumn col{{0, 1, 2}, {3, 4}};
    Machine m(world_of(col));
    Rng rng{5};
    const auto state = random_states(rng, 3, 4, 60);
    const auto whole = run_column(m, col, state);
    for (std::size_t e = 0; e < 4; ++e) {
        std::vector<State> slice;
        for (const State& s : state) slice.push_back({s[e]});
        const auto one = run_column(m, col, slice);
        for (int c : col.code) {
            const auto uc = static_cast<std::size_t>(c);
            ASSERT_EQ(one.code[uc].size(), 1u);
            EXPECT_EQ(whole.code[uc][e], one.code[uc][0]) << "element " << e;
        }
    }
}

TEST(ColumnCode, WideSignedStatesRecover) {
    // Coefficients as wide as a leaf's digits, of both signs, through the
    // rational solve of a two-rank loss at the column's ends.
    const CodeColumn col{{0, 1, 2, 3}, {4, 5}};
    Machine m(world_of(col));
    Rng rng{6};
    const auto state = random_states(rng, 4, 3, 5000);
    const auto run = run_column(m, col, state, {{0, 3}, {}, {}});
    EXPECT_EQ(run.rebuilt[0], state[0]);
    EXPECT_EQ(run.rebuilt[3], state[3]);
}

TEST(ColumnCode, CodeIsLinear) {
    // Section 4.1: the code commutes with the evaluation phase's linear
    // maps; the code of 3x - 5y is 3 code(x) - 5 code(y).
    const CodeColumn col{{0, 1, 2, 3}, {4, 5}};
    Machine m(world_of(col));
    Rng rng{7};
    const auto x = random_states(rng, 4, 2, 40);
    const auto y = random_states(rng, 4, 2, 40);
    std::vector<State> combo = x;
    for (std::size_t l = 0; l < combo.size(); ++l) {
        for (std::size_t e = 0; e < combo[l].size(); ++e) {
            combo[l][e] = x[l][e] * BigInt{3} - y[l][e] * BigInt{5};
        }
    }
    const auto cx = run_column(m, col, x);
    const auto cy = run_column(m, col, y);
    const auto cc = run_column(m, col, combo);
    for (int c : col.code) {
        const auto uc = static_cast<std::size_t>(c);
        for (std::size_t e = 0; e < 2; ++e) {
            EXPECT_EQ(cc.code[uc][e],
                      cx.code[uc][e] * BigInt{3} - cy.code[uc][e] * BigInt{5});
        }
    }
}

TEST(ColumnCode, CodeIsNotPreservedByMultiplication) {
    // Why the multiplication stage needs a polynomial code: the code of
    // elementwise products is not the product of the codes.
    const CodeColumn col{{0, 1}, {2}};
    Machine m(world_of(col));
    const auto cx = run_column(m, col, {{2}, {3}});
    const auto cy = run_column(m, col, {{5}, {7}});
    const auto cp = run_column(m, col, {{10}, {21}});
    EXPECT_EQ(cx.code[2], State{5});
    EXPECT_EQ(cy.code[2], State{12});
    EXPECT_EQ(cp.code[2], State{31});
    EXPECT_NE(cp.code[2][0], cx.code[2][0] * cy.code[2][0]);  // 31 != 60
}

TEST(ColumnCode, ConcurrentColumnsWithSharedTagsStayApart) {
    // The engines code every grid column at once with the same tags; the
    // columns' disjoint groups must keep their reduces apart.
    const CodeColumn left{{0, 2, 4}, {6, 7}};
    const CodeColumn right{{1, 3, 5}, {8, 9}};
    Machine m(10);
    Rng rng{8};
    const auto sl = random_states(rng, 3, 2, 120);
    const auto sr = random_states(rng, 3, 2, 120);
    const Loss ll{{2, 4}, {}, {}};
    const Loss lr{{1}, {}, {}};
    ColumnRun ol, orr;
    ol.code.resize(10);
    ol.rebuilt.resize(10);
    orr.code.resize(10);
    orr.rebuilt.resize(10);
    m.run([&](Rank& rank) {
        if (contains(left.members, rank.id()) || contains(left.code, rank.id())) {
            column_body(rank, left, sl, ll, ol);
        } else {
            column_body(rank, right, sr, lr, orr);
        }
    });
    EXPECT_EQ(ol.code[6], expected_code(sl, 0));
    EXPECT_EQ(ol.code[7], expected_code(sl, 1));
    EXPECT_EQ(orr.code[8], expected_code(sr, 0));
    EXPECT_EQ(orr.code[9], expected_code(sr, 1));
    EXPECT_EQ(ol.rebuilt[2], sl[1]);
    EXPECT_EQ(ol.rebuilt[4], sl[2]);
    EXPECT_EQ(orr.rebuilt[1], sr[0]);
}

}  // namespace
}  // namespace ftmul
