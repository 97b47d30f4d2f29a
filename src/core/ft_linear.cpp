#include "core/ft_linear.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <tuple>

#include "core/layout.hpp"
#include "linalg/exact_solve.hpp"
#include "runtime/collectives.hpp"
#include "toom/digits.hpp"

namespace ftmul {

namespace {

using core_detail::leaf_multiply;
using core_detail::local_input_digits;

constexpr const char* kLeafPhase = "leaf-mul";

int exact_log(std::uint64_t v, std::uint64_t base) {
    int l = 0;
    while (v > 1) {
        if (v % base != 0) return -1;
        v /= base;
        ++l;
    }
    return l;
}

std::uint64_t ipow(std::uint64_t b, int e) {
    std::uint64_t r = 1;
    for (int i = 0; i < e; ++i) r *= b;
    return r;
}

/// The grid column of @p rank at BFS step @p level: the level-th base-(2k-1)
/// digit of the rank label (the paper's repositioning rule — "the i'th digit
/// points to the column").
int column_at_level(int rank, int npts, int level) {
    return static_cast<int>(
        (static_cast<std::uint64_t>(rank) /
         ipow(static_cast<std::uint64_t>(npts), level)) %
        static_cast<std::uint64_t>(npts));
}

/// Data ranks sharing digit `level` == col, ascending — the encoded column.
std::vector<int> column_members(int P, int npts, int level, int col) {
    std::vector<int> members;
    for (int r = 0; r < P; ++r) {
        if (column_at_level(r, npts, level) == col) members.push_back(r);
    }
    return members;
}

/// Position of @p rank inside its column (the Vandermonde weight index).
int weight_index(const std::vector<int>& members, int rank) {
    return static_cast<int>(
        std::find(members.begin(), members.end(), rank) - members.begin());
}

/// Encode: weighted reduces placing a fresh code of `state` on the f code
/// processors assigned to this column. Data ranks contribute; code ranks
/// receive (and return) their code vector.
std::vector<BigInt> encode_column(Rank& rank, int data_procs, int npts, int f,
                                  const std::vector<int>& members, int col,
                                  const std::vector<BigInt>& state, int tag) {
    const bool is_code = rank.id() >= data_procs;
    std::vector<BigInt> my_code;
    for (int j = 0; j < f; ++j) {
        const int code_rank = data_procs + j * npts + col;
        if (is_code && rank.id() != code_rank) continue;
        Group g;
        g.members = members;
        g.members.push_back(code_rank);
        std::vector<BigInt> contribution;
        if (rank.id() != code_rank) {
            const BigInt eta{static_cast<std::int64_t>(j + 1)};
            const BigInt w = eta.pow(
                static_cast<std::uint64_t>(weight_index(members, rank.id())));
            contribution.reserve(state.size());
            for (const BigInt& v : state) contribution.push_back(w * v);
        }
        auto s = reduce_sum(rank, g, code_rank, std::move(contribution),
                            tag + j);
        if (rank.id() == code_rank) my_code = std::move(s);
    }
    return my_code;
}

/// Recovery: rebuild every dead rank's state from the survivors and the
/// column's code processors. Returns the reconstructed state on
/// replacements, empty elsewhere.
std::vector<BigInt> recover_column(Rank& rank, const std::string& phase,
                                   int data_procs, int npts,
                                   int f, const std::vector<int>& members,
                                   int col, const std::vector<int>& dead,
                                   const std::vector<BigInt>& state, int tag) {
    const int t = static_cast<int>(dead.size());
    assert(t >= 1 && t <= f);
    const bool i_am_dead =
        std::find(dead.begin(), dead.end(), rank.id()) != dead.end();
    const int root = dead.front();

    std::vector<BigInt> rhs_flat;
    for (int j = 0; j < t; ++j) {
        const int code_rank = data_procs + j * npts + col;
        // A code processor only joins the reduce that carries its own code.
        if (rank.id() >= data_procs && rank.id() != code_rank) continue;
        Group g;
        g.members = members;
        g.members.push_back(code_rank);

        std::vector<BigInt> contribution;
        if (rank.id() == code_rank) {
            contribution = state;  // the code vector
        } else if (!i_am_dead) {
            const BigInt eta{static_cast<std::int64_t>(j + 1)};
            const BigInt w = eta.pow(
                static_cast<std::uint64_t>(weight_index(members, rank.id())));
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

    std::vector<BigInt> my_state;
    if (rank.id() == root) {
        // Solve the t x t Vandermonde-minor system per element:
        //   sum_c eta_j^{l_c} x_c = rhs_j.
        const std::size_t width = rhs_flat.size() / static_cast<std::size_t>(t);
        Matrix<BigRational> m(static_cast<std::size_t>(t),
                              static_cast<std::size_t>(t));
        for (int j = 0; j < t; ++j) {
            for (int c = 0; c < t; ++c) {
                const BigInt eta{static_cast<std::int64_t>(j + 1)};
                m(static_cast<std::size_t>(j), static_cast<std::size_t>(c)) =
                    BigRational{eta.pow(static_cast<std::uint64_t>(weight_index(
                        members, dead[static_cast<std::size_t>(c)])))};
            }
        }
        Matrix<BigRational> inv;
        try {
            inv = inverse(m);
        } catch (const SingularMatrixError&) {
            throw UnrecoverableFault(
                "ft_linear", phase, dead,
                "singular Vandermonde recovery system; the dead set cannot "
                "be rebuilt from the surviving code rows");
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
            rank.send_bigints(dead[static_cast<std::size_t>(c)], tag + f + c,
                              solved[static_cast<std::size_t>(c)]);
        }
        my_state = std::move(solved[0]);
    } else {
        const int c = static_cast<int>(
            std::find(dead.begin(), dead.end(), rank.id()) - dead.begin());
        my_state = rank.recv_bigints(root, tag + f + c);
    }
    return my_state;
}

/// Parsed fault schedule: phase -> column -> sorted dead ranks.
struct LinearFaults {
    std::map<std::string, std::map<int, std::vector<int>>> by_phase_col;

    const std::vector<int>* dead_in(const std::string& phase, int col) const {
        auto it = by_phase_col.find(phase);
        if (it == by_phase_col.end()) return nullptr;
        auto cit = it->second.find(col);
        return cit == it->second.end() ? nullptr : &cit->second;
    }
};

/// Which BFS level a protected phase encodes at; leaf-mul is protected by
/// the deepest level's column structure.
int phase_level(const std::string& phase, int bfs) {
    if (phase == kLeafPhase) return bfs - 1;
    if (phase.rfind("eval-L", 0) == 0) return std::atoi(phase.c_str() + 6);
    if (phase.rfind("interp-L", 0) == 0) return std::atoi(phase.c_str() + 8);
    return -1;
}

}  // namespace

FtRunResult ft_linear_multiply(const BigInt& a, const BigInt& b,
                               const FtLinearConfig& cfg,
                               const FaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_linear");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.faults;
    const int P = cfg.base.processors;
    if (f < 0) throw std::invalid_argument("ft_linear: faults must be >= 0");
    if (cfg.base.forced_dfs_steps > 0) {
        throw std::invalid_argument(
            "ft_linear: only the unlimited-memory case (no DFS steps) is "
            "supported; combine with ft_poly for limited memory");
    }
    const int bfs = exact_log(static_cast<std::uint64_t>(P),
                              static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "ft_linear: processors must be a power of 2k-1, at least 2k-1");
    }

    // Parse and validate the fault plan: eval-L<i> / interp-L<i> for any BFS
    // level i, plus leaf-mul; at most f per (phase, level-i column), data
    // ranks only. Over-budget or misplaced fault sets are *unrecoverable*,
    // not misconfigurations: refuse before computing a wrong product.
    LinearFaults faults;
    for (const auto& [phase, rank] : plan.all()) {
        const int level = phase_level(phase, bfs);
        if (level < 0 || level >= bfs) {
            throw UnrecoverableFault(
                "ft_linear", phase, {rank},
                "faults are only tolerated at eval-L<i>, interp-L<i> "
                "(i < log_{2k-1} P) and leaf-mul phase boundaries");
        }
        if (rank < 0 || rank >= P) {
            throw UnrecoverableFault(
                "ft_linear", phase, {rank},
                "only data processors (ranks 0..P-1) can fail; code "
                "processors carry the redundancy itself");
        }
        faults.by_phase_col[phase][column_at_level(rank, npts, level)]
            .push_back(rank);
    }
    for (auto& [phase, by_col] : faults.by_phase_col) {
        for (auto& [col, dead] : by_col) {
            std::sort(dead.begin(), dead.end());
            if (static_cast<int>(dead.size()) > f) {
                throw UnrecoverableFault(
                    "ft_linear", phase, dead,
                    "more faults in column " + std::to_string(col) +
                        " than code rows f=" + std::to_string(f));
            }
        }
    }

    const int world = P + f * npts;
    FtRunResult result;
    {
        ParallelConfig geo = cfg.base;
        geo.forced_dfs_steps = 0;
        result.shape =
            resolve_shape(geo, std::max(a.bit_length(), b.bit_length()));
    }
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - P;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan& tplan = ToomPlan::make(k);
    Machine machine(world, plan);
    if (cfg.base.events) machine.enable_event_log();
    core_detail::arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(P));

    const std::size_t N = shape.total_digits;
    const auto unpts = static_cast<std::size_t>(npts);

    // The sequence of protected boundaries in program order; each entry
    // names the boundary phase and the grid level whose columns encode it.
    struct Boundary {
        std::string phase;
        int level;
        int tag;
    };
    std::vector<Boundary> fwd_bounds, bwd_bounds;
    for (int lv = 0; lv < bfs; ++lv) {
        fwd_bounds.push_back({"eval-L" + std::to_string(lv), lv, 300 + lv * 16});
    }
    const Boundary leaf_bound{kLeafPhase, bfs - 1, 300 + bfs * 16};
    for (int lv = bfs - 1; lv >= 0; --lv) {
        bwd_bounds.push_back(
            {"interp-L" + std::to_string(lv), lv, 300 + (bfs + 1 + lv) * 16});
    }

    machine.run([&](Rank& rank) {
        const bool is_code = rank.id() >= P;

        // Encode-then-maybe-recover at one boundary. `state` is the data
        // rank's protected state (ignored for code ranks); returns true when
        // this rank failed here and `state` now holds the rebuilt data.
        auto protect = [&](const Boundary& bd, std::vector<BigInt>& state,
                           bool enter_phase) -> bool {
            const int col =
                is_code ? (rank.id() - P) % npts
                        : column_at_level(rank.id(), npts, bd.level);
            const auto members = column_members(P, npts, bd.level, col);

            rank.phase("encode-" + bd.phase);
            std::vector<BigInt> code =
                encode_column(rank, P, npts, f, members, col, state, bd.tag);

            bool i_fail = false;
            if (enter_phase) i_fail = rank.phase(bd.phase);
            const std::vector<int>* dead = faults.dead_in(bd.phase, col);
            if (dead == nullptr) return false;
            if (is_code &&
                (rank.id() - P) / npts >= static_cast<int>(dead->size())) {
                return false;  // spare code rows sit this recovery out
            }
            rank.phase("recover-" + bd.phase);
            rank.begin_recovery(*dead);
            if (i_fail) state.clear();
            auto rebuilt = recover_column(rank, bd.phase, P, npts, f, members,
                                          col, *dead, is_code ? code : state,
                                          bd.tag + 2 * f + 2);
            if (i_fail) state = std::move(rebuilt);
            rank.end_recovery();
            // Resume in a distinct bucket so recovery costs stay visible.
            rank.phase(bd.phase + "+post-recovery");
            return i_fail;
        };

        if (is_code) {
            // Code processors take part in every boundary's encode and any
            // recovery their column needs, in the same program order.
            std::vector<BigInt> none;
            for (const auto& bd : fwd_bounds) protect(bd, none, false);
            protect(leaf_bound, none, false);
            for (const auto& bd : bwd_bounds) protect(bd, none, false);
            return;
        }

        // ----- data processor -----
        rank.phase("split");
        std::vector<BigInt> a_loc = local_input_digits(a, shape, P, rank.id());
        std::vector<BigInt> b_loc = local_input_digits(b, shape, P, rank.id());

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

        // Forward sweep: every BFS level's evaluation boundary is protected
        // by a fresh code over the current (a|b) state.
        struct Level {
            Group g;
            std::size_t bs;
            std::size_t len;
        };
        std::vector<Level> levels;
        Group g = Group::strided(0, P);
        std::size_t bs = 1;
        std::size_t len = N;
        for (int lv = 0; lv < bfs; ++lv) {
            std::vector<BigInt> state = pack(a_loc, b_loc);
            if (protect(fwd_bounds[static_cast<std::size_t>(lv)], state,
                        true)) {
                unpack(std::move(state), a_loc, b_loc);
            }

            const std::size_t m = g.size();
            const std::size_t s = len / static_cast<std::size_t>(k) / m;
            std::vector<BigInt> ea(unpts * s), eb(unpts * s);
            tplan.evaluate_blocks(a_loc, ea, s);
            tplan.evaluate_blocks(b_loc, eb, s);
            rank.note_memory((a_loc.size() + b_loc.size() + 2 * unpts * s) *
                             ((shape.digit_bits + 63) / 64 + 2));
            rank.phase("xfwd-L" + std::to_string(lv));
            std::tie(a_loc, b_loc) = exchange_forward_pair(
                rank, g, unpts, bs, std::move(ea), std::move(eb),
                100 + lv * 8, 101 + lv * 8);
            levels.push_back({g, bs, len});
            g = column_subgroup(g, unpts, g.index_of(rank.id()) % unpts);
            bs *= unpts;
            len /= static_cast<std::size_t>(k);
        }

        // Multiplication phase: a fault here costs a decode *plus* a
        // recomputation of the leaf product (Birnbaum-style recovery).
        {
            std::vector<BigInt> state = pack(a_loc, b_loc);
            if (protect(leaf_bound, state, true)) {
                unpack(std::move(state), a_loc, b_loc);
            }
        }
        std::vector<BigInt> child = leaf_multiply(
            tplan, shape, std::move(a_loc), std::move(b_loc));

        // Backward sweep: every interpolation boundary protected likewise.
        for (int lv = bfs - 1; lv >= 0; --lv) {
            const Level& L = levels[static_cast<std::size_t>(lv)];
            const std::size_t m = L.g.size();
            const std::size_t s = L.len / static_cast<std::size_t>(k) / m;
            const std::size_t rc = 2 * s;
            rank.phase("xbwd-L" + std::to_string(lv));
            std::vector<BigInt> children = exchange_backward(
                rank, L.g, unpts, L.bs, std::move(child), 102 + lv * 8);

            const Boundary& bd =
                bwd_bounds[static_cast<std::size_t>(bfs - 1 - lv)];
            if (protect(bd, children, true)) {
                // children now holds the rebuilt coefficients.
            }

            std::vector<BigInt> coeffs(unpts * rc);
            tplan.interpolation().apply_blocks(children, coeffs, rc);
            child.assign(2 * L.len / m, BigInt{});
            for (std::size_t i = 0; i < unpts; ++i) {
                for (std::size_t t = 0; t < rc; ++t) {
                    child[i * s + t] += coeffs[i * rc + t];
                }
            }
        }
        slices[static_cast<std::size_t>(rank.id())] = std::move(child);
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
