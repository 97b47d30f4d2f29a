#include "core/ft_mixed.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <span>
#include <stdexcept>

#include "core/layout.hpp"
#include "linalg/exact_solve.hpp"
#include "runtime/collectives.hpp"
#include "toom/digits.hpp"

namespace ftmul {

namespace {

using core_detail::dist_convolve;
using core_detail::local_input_digits;

constexpr const char* kEvalPhase = "eval-L0";
constexpr const char* kMulPhase = "mul";
constexpr const char* kInterpPhase = "interp-L0";

int exact_log(std::uint64_t v, std::uint64_t base) {
    int l = 0;
    while (v > 1) {
        if (v % base != 0) return -1;
        v /= base;
        ++l;
    }
    return l;
}

}  // namespace

FtRunResult ft_mixed_multiply(const BigInt& a, const BigInt& b,
                              const FtMixedConfig& cfg,
                              const FaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_mixed");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.faults;
    if (f < 0) throw std::invalid_argument("ft_mixed: faults must be >= 0");
    const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                              static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "ft_mixed: processors must be a positive power of 2k-1 (>= 2k-1)");
    }
    if (cfg.base.forced_dfs_steps > 0) {
        throw std::invalid_argument(
            "ft_mixed: only the unlimited-memory case is supported");
    }
    const int height = cfg.base.processors / npts;  // data rows
    const int wide = npts + f;                      // columns incl. poly code
    const int data_world = height * wide;           // data region
    const int world = data_world + f * wide;        // plus linear code rows

    // ---- fault plan validation --------------------------------------
    // Every rejection here is an *unrecoverable fault set* (the plan asks
    // for more than the combined codes can absorb), not a configuration
    // error — raise the typed exception so callers can escalate.
    std::set<int> doomed;  // poly-killed columns
    std::vector<int> mul_dead;
    std::map<std::string, std::map<int, std::vector<int>>> linear_faults;
    for (const auto& [phase, rank] : plan.all()) {
        if (phase == kMulPhase) {
            if (rank < 0 || rank >= data_world) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, {rank},
                    "mul fault rank out of range for the data region of " +
                        std::to_string(data_world) + " ranks");
            }
            doomed.insert(rank % wide);
            mul_dead.push_back(rank);
        } else if (phase == kEvalPhase || phase == kInterpPhase) {
            if (rank < 0 || rank >= data_world) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, {rank},
                    "linear-code faults must hit data ranks (code rows carry "
                    "the redundancy itself)");
            }
            linear_faults[phase][rank % wide].push_back(rank);
        } else {
            throw UnrecoverableFault(
                "ft_mixed", phase, {rank},
                "faults are only tolerated at eval-L0, mul and interp-L0");
        }
    }
    if (static_cast<int>(doomed.size()) > f) {
        throw UnrecoverableFault(
            "ft_mixed", kMulPhase, mul_dead,
            "faults span " + std::to_string(doomed.size()) +
                " distinct columns but the polynomial code only tolerates f=" +
                std::to_string(f));
    }
    std::vector<std::size_t> alive_cols;
    for (int c = 0; c < wide; ++c) {
        if (!doomed.count(c)) alive_cols.push_back(static_cast<std::size_t>(c));
    }
    const std::vector<std::size_t> used_cols(alive_cols.begin(),
                                             alive_cols.begin() + npts);
    const std::size_t sub_col = alive_cols.front();
    for (auto& [phase, by_col] : linear_faults) {
        for (auto& [col, dead] : by_col) {
            std::sort(dead.begin(), dead.end());
            if (static_cast<int>(dead.size()) > f) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, dead,
                    "more linear-code faults in column " +
                        std::to_string(col) + " than code rows f=" +
                        std::to_string(f));
            }
            if (phase == kInterpPhase &&
                (doomed.count(col) ||
                 (!doomed.empty() && static_cast<std::size_t>(col) == sub_col))) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, dead,
                    "interp faults cannot hit dead or substitute columns "
                    "(their state is already being rebuilt elsewhere)");
            }
        }
    }

    FtRunResult result;
    result.shape = resolve_shape_general(
        k, cfg.base.processors, data_world, 0, bfs, bfs,
        cfg.base.digit_bits, cfg.base.base_len,
        std::max(a.bit_length(), b.bit_length()));
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - cfg.base.processors;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan& tplan = ToomPlan::make(k, static_cast<std::size_t>(f));
    Machine machine(world, plan);
    if (cfg.base.events) machine.enable_event_log();
    core_detail::arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(data_world));

    const std::size_t N = shape.total_digits;
    const auto unpts = static_cast<std::size_t>(npts);
    const auto uwide = static_cast<std::size_t>(wide);
    const std::size_t s0 =
        N / static_cast<std::size_t>(k) / static_cast<std::size_t>(data_world);
    const std::size_t rc = 2 * s0;

    // ---- linear-code helpers over wide-grid columns ------------------
    // Column c: data ranks {r*wide + c : r < height}, code rows
    // {data_world + j*wide + c : j < f}.
    auto column_members = [&](int col) {
        std::vector<int> members;
        for (int r = 0; r < height; ++r) members.push_back(r * wide + col);
        return members;
    };

    auto encode_column = [&](Rank& rank, int col,
                             const std::vector<BigInt>& state, int tag)
        -> std::vector<BigInt> {
        const bool is_code = rank.id() >= data_world;
        std::vector<BigInt> my_code;
        for (int j = 0; j < f; ++j) {
            const int code_rank = data_world + j * wide + col;
            if (is_code && rank.id() != code_rank) continue;
            Group g;
            g.members = column_members(col);
            g.members.push_back(code_rank);
            std::vector<BigInt> contribution;
            if (rank.id() != code_rank) {
                const BigInt eta{static_cast<std::int64_t>(j + 1)};
                const BigInt w =
                    eta.pow(static_cast<std::uint64_t>(rank.id() / wide));
                contribution.reserve(state.size());
                for (const BigInt& v : state) contribution.push_back(w * v);
            }
            auto s = reduce_sum(rank, g, code_rank, std::move(contribution),
                                tag + j);
            if (rank.id() == code_rank) my_code = std::move(s);
        }
        return my_code;
    };

    auto recover_column = [&](Rank& rank, const std::string& phase, int col,
                              const std::vector<int>& dead,
                              const std::vector<BigInt>& state,
                              const std::vector<BigInt>& my_code, int tag)
        -> std::vector<BigInt> {
        const int t = static_cast<int>(dead.size());
        const bool is_code = rank.id() >= data_world;
        const bool i_am_dead =
            std::find(dead.begin(), dead.end(), rank.id()) != dead.end();
        const int root = dead.front();
        std::vector<BigInt> rhs_flat;
        for (int j = 0; j < t; ++j) {
            const int code_rank = data_world + j * wide + col;
            if (is_code && rank.id() != code_rank) continue;
            Group g;
            g.members = column_members(col);
            g.members.push_back(code_rank);
            std::vector<BigInt> contribution;
            if (rank.id() == code_rank) {
                contribution = my_code;
            } else if (!i_am_dead) {
                const BigInt eta{static_cast<std::int64_t>(j + 1)};
                const BigInt w =
                    eta.pow(static_cast<std::uint64_t>(rank.id() / wide));
                contribution.reserve(state.size());
                for (const BigInt& v : state) contribution.push_back(-(w * v));
            }
            auto sum = reduce_sum(rank, g, root, std::move(contribution), tag + j);
            if (rank.id() == root) {
                rhs_flat.insert(rhs_flat.end(),
                                std::make_move_iterator(sum.begin()),
                                std::make_move_iterator(sum.end()));
            }
        }
        if (!i_am_dead) return {};
        if (rank.id() == root) {
            const std::size_t width =
                rhs_flat.size() / static_cast<std::size_t>(t);
            Matrix<BigRational> m(static_cast<std::size_t>(t),
                                  static_cast<std::size_t>(t));
            for (int j = 0; j < t; ++j) {
                for (int c = 0; c < t; ++c) {
                    const BigInt eta{static_cast<std::int64_t>(j + 1)};
                    m(static_cast<std::size_t>(j), static_cast<std::size_t>(c)) =
                        BigRational{eta.pow(static_cast<std::uint64_t>(
                            dead[static_cast<std::size_t>(c)] / wide))};
                }
            }
            Matrix<BigRational> inv;
            try {
                inv = inverse(m);
            } catch (const SingularMatrixError&) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, dead,
                    "singular Vandermonde recovery system; the dead set "
                    "cannot be rebuilt from the surviving code rows");
            }
            std::vector<std::vector<BigInt>> solved(
                static_cast<std::size_t>(t), std::vector<BigInt>(width));
            for (std::size_t e = 0; e < width; ++e) {
                std::vector<BigRational> rhs(static_cast<std::size_t>(t));
                for (int j = 0; j < t; ++j) {
                    rhs[static_cast<std::size_t>(j)] = BigRational{
                        rhs_flat[static_cast<std::size_t>(j) * width + e]};
                }
                auto x = inv.apply(rhs);
                for (int c = 0; c < t; ++c) {
                    solved[static_cast<std::size_t>(c)][e] =
                        x[static_cast<std::size_t>(c)].as_integer();
                }
            }
            for (int c = 1; c < t; ++c) {
                rank.send_bigints(dead[static_cast<std::size_t>(c)],
                                  tag + f + c,
                                  solved[static_cast<std::size_t>(c)]);
            }
            return std::move(solved[0]);
        }
        const int c = static_cast<int>(
            std::find(dead.begin(), dead.end(), rank.id()) - dead.begin());
        return rank.recv_bigints(root, tag + f + c);
    };

    machine.run([&](Rank& rank) {
        const bool is_code_row = rank.id() >= data_world;
        const int col = is_code_row ? (rank.id() - data_world) % wide
                                    : rank.id() % wide;
        const bool col_doomed = doomed.count(col) != 0;

        // Small helpers shared with the data path.
        auto pack = [](const std::vector<BigInt>& x,
                       const std::vector<BigInt>& y) {
            std::vector<BigInt> s = x;
            s.insert(s.end(), y.begin(), y.end());
            return s;
        };
        auto unpack = [](std::vector<BigInt> s, std::vector<BigInt>& x,
                         std::vector<BigInt>& y) {
            const std::size_t half = s.size() / 2;
            y.assign(std::make_move_iterator(s.begin() +
                                             static_cast<std::ptrdiff_t>(half)),
                     std::make_move_iterator(s.end()));
            s.resize(half);
            x = std::move(s);
        };

        if (is_code_row) {
            // Linear-code processor for its wide-grid column.
            std::vector<BigInt> none;
            rank.phase("encode-input");
            auto code = encode_column(rank, col, none, 400);
            if (auto it = linear_faults.find(kEvalPhase);
                it != linear_faults.end() && it->second.count(col) &&
                (rank.id() - data_world) / wide <
                    static_cast<int>(it->second.at(col).size())) {
                rank.phase("recover-eval-L0");
                rank.begin_recovery(it->second.at(col));
                (void)recover_column(rank, kEvalPhase, col, it->second.at(col),
                                     none, code, 500);
                rank.end_recovery();
            }
            if (col_doomed) return;  // column halts at the mult phase
            rank.phase("encode-children");
            code = encode_column(rank, col, none, 440);
            if (auto it = linear_faults.find(kInterpPhase);
                it != linear_faults.end() && it->second.count(col) &&
                (rank.id() - data_world) / wide <
                    static_cast<int>(it->second.at(col).size())) {
                rank.phase("recover-interp-L0");
                rank.begin_recovery(it->second.at(col));
                (void)recover_column(rank, kInterpPhase, col,
                                     it->second.at(col), none, code, 580);
                rank.end_recovery();
            }
            return;
        }

        // ---- data processor ----------------------------------------
        const std::size_t row = static_cast<std::size_t>(rank.id()) / uwide;

        rank.phase("split");
        std::vector<BigInt> a_loc =
            local_input_digits(a, shape, data_world, rank.id());
        std::vector<BigInt> b_loc =
            local_input_digits(b, shape, data_world, rank.id());

        // Linear code over the inputs; evaluation-phase faults recovered by
        // a reduce over the column (Section 4.1).
        rank.phase("encode-input");
        std::vector<BigInt> state = pack(a_loc, b_loc);
        encode_column(rank, col, state, 400);
        const bool fail_eval = rank.phase(kEvalPhase);
        if (auto it = linear_faults.find(kEvalPhase);
            it != linear_faults.end() && it->second.count(col)) {
            rank.phase("recover-eval-L0");
            rank.begin_recovery(it->second.at(col));
            if (fail_eval) state.clear();
            auto rebuilt = recover_column(rank, kEvalPhase, col,
                                          it->second.at(col), state, {}, 500);
            if (fail_eval) state = std::move(rebuilt);
            rank.end_recovery();
            rank.phase("eval-L0+post-recovery");
        }
        if (fail_eval) {
            unpack(std::move(state), a_loc, b_loc);
        }
        state.clear();

        // Redundant-point evaluation + the wide row exchange (Section 4.2).
        std::vector<BigInt> ea(uwide * s0), eb(uwide * s0);
        tplan.evaluate_blocks(a_loc, ea, s0);
        tplan.evaluate_blocks(b_loc, eb, s0);
        a_loc.clear();
        b_loc.clear();

        rank.phase("xfwd-L0");
        const Group g = Group::strided(0, data_world);
        auto [a_new, b_new] = exchange_forward_pair(
            rank, g, uwide, 1, std::move(ea), std::move(eb), 50, 51);

        // Multiplication phase: poly-code column kill.
        const bool i_fail_mul = rank.phase(kMulPhase);
        if (i_fail_mul || col_doomed) return;

        Group column;
        for (int r = 0; r < height; ++r) {
            column.members.push_back(r * wide + col);
        }
        std::vector<BigInt> child = dist_convolve(
            rank, tplan, shape, column, uwide, std::move(a_new),
            std::move(b_new), N / static_cast<std::size_t>(k), 0, 1);
        assert(child.size() == uwide * rc);

        // Backward exchange with substitution for dead rows' shares.
        rank.phase("xbwd-L0");
        std::vector<std::vector<BigInt>> pieces(uwide);
        for (auto& p : pieces) p.reserve(rc);
        const std::size_t superchunks = child.size() / uwide;
        for (std::size_t q = 0; q < superchunks; ++q) {
            for (std::size_t c2 = 0; c2 < uwide; ++c2) {
                pieces[c2].push_back(std::move(child[q * uwide + c2]));
            }
        }
        // Coalesce pieces sharing a destination (substituted roles) into
        // one batched delivery; each piece is still charged as its own
        // message.
        std::map<int, std::vector<std::pair<int, std::span<const BigInt>>>>
            outbound;
        for (std::size_t c2 = 0; c2 < uwide; ++c2) {
            if (c2 == static_cast<std::size_t>(col)) continue;
            const std::size_t dst_col =
                doomed.count(static_cast<int>(c2)) ? sub_col : c2;
            if (dst_col == static_cast<std::size_t>(col)) continue;
            outbound[static_cast<int>(row * uwide + dst_col)].emplace_back(
                60 + static_cast<int>(c2), std::span<const BigInt>(pieces[c2]));
        }
        for (const auto& [dst, items] : outbound) {
            rank.send_bigints_batch(dst, items);
        }
        rank.add_latency(uwide - 1);

        std::vector<std::size_t> roles{static_cast<std::size_t>(col)};
        if (static_cast<std::size_t>(col) == sub_col) {
            for (int c : doomed) roles.push_back(static_cast<std::size_t>(c));
        }

        // Receive every role's pieces now so the interpolation state is a
        // single vector the linear code can protect.
        std::map<std::size_t, std::vector<BigInt>> role_children;
        for (std::size_t role : roles) {
            std::vector<BigInt> children;
            children.reserve(unpts * rc);
            for (std::size_t src : used_cols) {
                if (src == static_cast<std::size_t>(col)) {
                    children.insert(children.end(), pieces[role].begin(),
                                    pieces[role].end());
                } else {
                    auto got = rank.recv_bigints(
                        static_cast<int>(row * uwide + src),
                        60 + static_cast<int>(role));
                    if (got.size() != rc) {
                        throw std::runtime_error("ft_mixed: piece mismatch");
                    }
                    children.insert(children.end(),
                                    std::make_move_iterator(got.begin()),
                                    std::make_move_iterator(got.end()));
                }
            }
            role_children[role] = std::move(children);
        }

        // Linear code over the (own-role) child coefficients; interp-phase
        // faults recovered by the column reduce.
        rank.phase("encode-children");
        encode_column(rank, col, role_children[static_cast<std::size_t>(col)],
                      440);
        const bool fail_interp = rank.phase(kInterpPhase);
        if (auto it = linear_faults.find(kInterpPhase);
            it != linear_faults.end() && it->second.count(col)) {
            rank.phase("recover-interp-L0");
            rank.begin_recovery(it->second.at(col));
            auto& own = role_children[static_cast<std::size_t>(col)];
            if (fail_interp) own.clear();
            auto rebuilt = recover_column(rank, kInterpPhase, col,
                                          it->second.at(col), own, {}, 580);
            if (fail_interp) own = std::move(rebuilt);
            rank.end_recovery();
            rank.phase("interp-L0+post-recovery");
        }

        // On-the-fly interpolation from the surviving points.
        const InterpOperator op = tplan.interpolation_for(used_cols);
        auto interp_role = [&](std::size_t role) {
            std::vector<BigInt> coeffs(unpts * rc);
            op.apply_blocks(role_children[role], coeffs, rc);
            std::vector<BigInt> out(2 * N /
                                    static_cast<std::size_t>(data_world));
            for (std::size_t i = 0; i < unpts; ++i) {
                for (std::size_t t = 0; t < rc; ++t) {
                    out[i * s0 + t] += coeffs[i * rc + t];
                }
            }
            slices[row * uwide + role] = std::move(out);
        };
        interp_role(static_cast<std::size_t>(col));
        if (roles.size() > 1) {
            // Substituting for the doomed columns' shares is recovery work.
            std::vector<int> dead;
            for (std::size_t i = 1; i < roles.size(); ++i) {
                dead.push_back(static_cast<int>(row * uwide + roles[i]));
            }
            rank.begin_recovery(dead);
            for (std::size_t i = 1; i < roles.size(); ++i) {
                interp_role(roles[i]);
            }
            rank.end_recovery();
        }
    });
    result.stats = machine.stats();
    result.transport = machine.transport_stats();
    result.events = machine.event_log();

    const std::vector<BigInt> full = unslice(slices, 1);
    BigInt prod = recompose_digits(full, shape.digit_bits);
    assert(!prod.is_negative());
    result.product = a.sign() * b.sign() < 0 ? -prod : prod;
    return result;
}

}  // namespace ftmul
