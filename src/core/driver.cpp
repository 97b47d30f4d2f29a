#include "core/driver.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/layout.hpp"
#include "linalg/exact_solve.hpp"
#include "runtime/collectives.hpp"
#include "runtime/metrics.hpp"
#include "toom/digits.hpp"

namespace ftmul::core_detail {

namespace {

std::size_t position(const std::vector<int>& members, int rank) {
    return static_cast<std::size_t>(
        std::find(members.begin(), members.end(), rank) - members.begin());
}

/// Rank's contribution to code rank j: eta_j^position * state, negated for
/// the recovery reduce.
std::vector<BigInt> weighted(const CodeColumn& col, int rank, int j,
                             const std::vector<BigInt>& state, bool negate) {
    const BigInt w = BigInt{static_cast<std::int64_t>(j + 1)}.pow(
        static_cast<std::uint64_t>(position(col.members, rank)));
    std::vector<BigInt> out;
    out.reserve(state.size());
    for (const BigInt& v : state) {
        out.push_back(negate ? -(w * v) : w * v);
    }
    return out;
}

}  // namespace

FtRunResult run_engine(const char* name, const BigInt& a, const BigInt& b,
                       const ParallelConfig& base, const FaultPlan& plan,
                       const std::function<EngineRun(std::size_t n_bits)>& setup) {
    const EngineRunScope metrics_scope(name);
    const EngineRun run = setup(std::max(a.bit_length(), b.bit_length()));
    FtRunResult result;
    result.shape = run.shape;
    result.extra_processors = run.spec.world - run.spec.processors;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    Machine machine(run.spec.world, plan);
    if (base.events) machine.enable_event_log();
    if (base.transport_guard) machine.set_transport_guard(true);
    // An active model arms the guard along with the injection shim.
    if (base.transport_faults.active()) {
        machine.set_transport_faults(base.transport_faults);
    }
    Slices slices(static_cast<std::size_t>(run.spec.slices));
    machine.run([&](Rank& rank) { run.body(rank, slices); });
    result.stats = machine.stats();
    result.transport = machine.transport_stats();
    result.events = machine.event_log();

    // The algorithm's output is distributed (as in the paper); assembly is
    // verification plumbing outside the cost model. The slices hold the
    // positional coefficient vector of the product polynomial; one pass
    // adds each coefficient in at its bit offset.
    BigInt prod =
        recompose_digits_linear(unslice(slices, 1), run.shape.digit_bits);
    assert(!prod.is_negative());
    result.product = a.sign() * b.sign() < 0 ? -prod : prod;
    return result;
}

std::vector<BigInt> pack(const std::vector<BigInt>& x,
                         const std::vector<BigInt>& y) {
    std::vector<BigInt> s = x;
    s.insert(s.end(), y.begin(), y.end());
    return s;
}

void unpack(std::vector<BigInt> s, std::vector<BigInt>& x,
            std::vector<BigInt>& y) {
    const std::size_t half = s.size() / 2;
    y.assign(std::make_move_iterator(s.begin() +
                                     static_cast<std::ptrdiff_t>(half)),
             std::make_move_iterator(s.end()));
    s.resize(half);
    x = std::move(s);
}

const std::vector<int>* dead_in(const LinearFaults& faults,
                                const std::string& phase, int col) {
    auto it = faults.find(phase);
    if (it == faults.end()) return nullptr;
    auto cit = it->second.find(col);
    return cit == it->second.end() ? nullptr : &cit->second;
}

std::vector<BigInt> encode_column(Rank& rank, const CodeColumn& col,
                                  const std::vector<BigInt>& state, int tag) {
    const bool is_code = position(col.code, rank.id()) < col.code.size();
    std::vector<BigInt> my_code;
    for (std::size_t j = 0; j < col.code.size(); ++j) {
        const int code_rank = col.code[j];
        if (is_code && rank.id() != code_rank) continue;
        Group g{col.members};
        g.members.push_back(code_rank);
        std::vector<BigInt> contribution;
        if (rank.id() != code_rank) {
            contribution =
                weighted(col, rank.id(), static_cast<int>(j), state, false);
        }
        auto s = reduce_sum(rank, g, code_rank, std::move(contribution),
                            tag + static_cast<int>(j));
        if (rank.id() == code_rank) my_code = std::move(s);
    }
    return my_code;
}

std::vector<BigInt> recover_column(Rank& rank, const char* engine,
                                   const std::string& phase,
                                   const CodeColumn& col,
                                   const std::vector<int>& dead,
                                   const std::vector<BigInt>& state, int tag) {
    const int t = static_cast<int>(dead.size());
    const int f = static_cast<int>(col.code.size());
    assert(t >= 1 && t <= f);
    const bool is_code = position(col.code, rank.id()) < col.code.size();
    const bool i_am_dead =
        std::find(dead.begin(), dead.end(), rank.id()) != dead.end();
    const int root = dead.front();

    std::vector<BigInt> rhs_flat;
    for (int j = 0; j < t; ++j) {
        const int code_rank = col.code[static_cast<std::size_t>(j)];
        // A code processor only joins the reduce that carries its own code.
        if (is_code && rank.id() != code_rank) continue;
        Group g{col.members};
        g.members.push_back(code_rank);
        std::vector<BigInt> contribution;
        if (rank.id() == code_rank) {
            contribution = state;  // the code vector
        } else if (!i_am_dead) {
            contribution = weighted(col, rank.id(), j, state, true);
        }
        auto sum = reduce_sum(rank, g, root, std::move(contribution), tag + j);
        if (rank.id() == root) {
            rhs_flat.insert(rhs_flat.end(),
                            std::make_move_iterator(sum.begin()),
                            std::make_move_iterator(sum.end()));
        }
    }
    if (!i_am_dead) return {};
    if (rank.id() != root) {
        return rank.recv_bigints(
            root, tag + f + static_cast<int>(position(dead, rank.id())));
    }

    // Solve the t x t Vandermonde-minor system per element:
    //   sum_c eta_j^{l_c} x_c = rhs_j.
    const std::size_t width = rhs_flat.size() / static_cast<std::size_t>(t);
    const auto ut = static_cast<std::size_t>(t);
    Matrix<BigRational> m(ut, ut);
    for (std::size_t j = 0; j < ut; ++j) {
        for (std::size_t c = 0; c < ut; ++c) {
            m(j, c) = BigRational{BigInt{static_cast<std::int64_t>(j + 1)}.pow(
                static_cast<std::uint64_t>(position(col.members, dead[c])))};
        }
    }
    Matrix<BigRational> inv;
    try {
        inv = inverse(m);
    } catch (const SingularMatrixError&) {
        throw UnrecoverableFault(
            engine, phase, dead,
            "singular Vandermonde recovery system; the dead set cannot "
            "be rebuilt from the surviving code rows");
    }
    std::vector<std::vector<BigInt>> solved(ut, std::vector<BigInt>(width));
    for (std::size_t e = 0; e < width; ++e) {
        std::vector<BigRational> rhs(ut);
        for (std::size_t j = 0; j < ut; ++j) {
            rhs[j] = BigRational{rhs_flat[j * width + e]};
        }
        auto x = inv.apply(rhs);
        for (std::size_t c = 0; c < ut; ++c) solved[c][e] = x[c].as_integer();
    }
    for (int c = 1; c < t; ++c) {
        rank.send_bigints(dead[static_cast<std::size_t>(c)], tag + f + c,
                          solved[static_cast<std::size_t>(c)]);
    }
    return std::move(solved[0]);
}

ColumnKill::ColumnKill(const char* engine, const std::vector<int>& dead,
                       int wide, int used, int f, const std::string& budget) {
    for (int r : dead) doomed.insert(r % wide);
    if (static_cast<int>(doomed.size()) > f) {
        throw UnrecoverableFault(engine, "mul", dead,
                                 "faults span " +
                                     std::to_string(doomed.size()) +
                                     " distinct columns but " + budget);
    }
    for (int c = 0; c < wide; ++c) {
        if (!doomed.count(c)) used_cols.push_back(static_cast<std::size_t>(c));
    }
    sub_col = used_cols.front();
    used_cols.resize(static_cast<std::size_t>(used));
}

std::vector<std::size_t> ColumnKill::roles(std::size_t col) const {
    std::vector<std::size_t> out{col};
    if (col == sub_col) {
        for (int c : doomed) out.push_back(static_cast<std::size_t>(c));
    }
    return out;
}

std::vector<std::vector<BigInt>> send_pieces(Rank& rank, const ColumnKill& kill,
                                             std::size_t row, std::size_t col,
                                             std::size_t wide,
                                             std::vector<BigInt> child) {
    const std::size_t superchunks = child.size() / wide;
    std::vector<std::vector<BigInt>> pieces(wide);
    for (auto& p : pieces) p.reserve(superchunks);
    for (std::size_t q = 0; q < superchunks; ++q) {
        for (std::size_t c = 0; c < wide; ++c) {
            pieces[c].push_back(std::move(child[q * wide + c]));
        }
    }
    // Substituted roles can alias several pieces onto one destination (the
    // substitute column); coalesce everything bound for the same peer into
    // one batched delivery. Each piece is still charged as its own message.
    std::map<int, std::vector<std::pair<int, std::span<const BigInt>>>>
        outbound;
    for (std::size_t c = 0; c < wide; ++c) {
        if (c == col) continue;
        const std::size_t dst_col =
            kill.doomed.count(static_cast<int>(c)) ? kill.sub_col : c;
        if (dst_col == col) continue;  // the substitute keeps it locally
        outbound[static_cast<int>(row * wide + dst_col)].emplace_back(
            60 + static_cast<int>(c), std::span<const BigInt>(pieces[c]));
    }
    for (const auto& [dst, items] : outbound) {
        rank.send_bigints_batch(dst, items);
    }
    rank.add_latency(wide - 1);
    return pieces;
}

std::vector<BigInt> receive_role(Rank& rank, const char* engine,
                                 const ColumnKill& kill, std::size_t row,
                                 std::size_t col, std::size_t wide,
                                 std::size_t role,
                                 const std::vector<std::vector<BigInt>>& pieces) {
    const std::size_t rc = pieces[role].size();
    std::vector<BigInt> children;
    children.reserve(kill.used_cols.size() * rc);
    for (std::size_t src : kill.used_cols) {
        if (src == col) {
            children.insert(children.end(), pieces[role].begin(),
                            pieces[role].end());
            continue;
        }
        auto got = rank.recv_bigints(static_cast<int>(row * wide + src),
                                     60 + static_cast<int>(role));
        if (got.size() != rc) {
            throw std::runtime_error(std::string(engine) +
                                     ": piece mismatch");
        }
        children.insert(children.end(), std::make_move_iterator(got.begin()),
                        std::make_move_iterator(got.end()));
    }
    return children;
}

void for_each_role(Rank& rank, const ColumnKill& kill, std::size_t row,
                   std::size_t col, std::size_t wide,
                   const std::function<void(std::size_t role)>& interp) {
    const std::vector<std::size_t> roles = kill.roles(col);
    interp(roles[0]);
    if (roles.size() == 1) return;
    // Substituting for dead row peers is recovery work: attribute its exact
    // cost to this rank with the ranks it rebuilds.
    std::vector<int> dead;
    for (std::size_t i = 1; i < roles.size(); ++i) {
        dead.push_back(static_cast<int>(row * wide + roles[i]));
    }
    rank.begin_recovery(dead);
    for (std::size_t i = 1; i < roles.size(); ++i) interp(roles[i]);
    rank.end_recovery();
}

}  // namespace ftmul::core_detail
