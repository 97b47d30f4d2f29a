#include "core/ft_linear.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/driver.hpp"

namespace ftmul {

namespace {

using namespace core_detail;

constexpr const char* kLeafPhase = "leaf-mul";

/// The grid column of @p rank at BFS step @p level: the level-th base-(2k-1)
/// digit of the rank label (the paper's repositioning rule — "the i'th digit
/// points to the column").
int column_at_level(int rank, int npts, int level) {
    return static_cast<int>((static_cast<std::uint64_t>(rank) /
                             ipow(static_cast<std::uint64_t>(npts), level)) %
                            static_cast<std::uint64_t>(npts));
}

/// Which BFS level a protected phase encodes at; leaf-mul is protected by
/// the deepest level's column structure.
int phase_level(const std::string& phase, int bfs) {
    if (phase == kLeafPhase) return bfs - 1;
    if (phase.rfind("eval-L", 0) == 0) return std::atoi(phase.c_str() + 6);
    return std::atoi(phase.c_str() + 8);  // interp-L<i>
}

/// P = (2k-1)^bfs data ranks, then f code rows of 2k-1 ranks each.
struct LinearGrid {
    int k, npts, f, P, bfs;

    explicit LinearGrid(const FtLinearConfig& cfg)
        : k(cfg.base.k),
          npts(2 * k - 1),
          f(cfg.faults),
          P(cfg.base.processors),
          bfs(exact_log(static_cast<std::uint64_t>(P),
                        static_cast<std::uint64_t>(npts))) {
        if (f < 0) throw std::invalid_argument("ft_linear: faults must be >= 0");
        if (cfg.base.forced_dfs_steps > 0) {
            throw std::invalid_argument(
                "ft_linear: only the unlimited-memory case (no DFS steps) is "
                "supported; combine with ft_poly for limited memory");
        }
        if (bfs < 1) {
            throw std::invalid_argument(
                "ft_linear: processors must be a power of 2k-1, at least 2k-1");
        }
    }

    EngineSpec spec() const {
        EngineSpec s{P, P + f * npts, P, P, {}};
        for (int lv = 0; lv < bfs; ++lv) {
            s.surface_phases.push_back("eval-L" + std::to_string(lv));
        }
        s.surface_phases.push_back(kLeafPhase);
        for (int lv = bfs - 1; lv >= 0; --lv) {
            s.surface_phases.push_back("interp-L" + std::to_string(lv));
        }
        return s;
    }

    /// The level-`level` grid column `col`: data ranks sharing that label
    /// digit, ascending, and the column's f code ranks.
    CodeColumn column(int level, int col) const {
        CodeColumn c;
        for (int r = 0; r < P; ++r) {
            if (column_at_level(r, npts, level) == col) c.members.push_back(r);
        }
        for (int j = 0; j < f; ++j) c.code.push_back(P + j * npts + col);
        return c;
    }
};

}  // namespace

EngineSpec core_detail::ft_linear_spec(const FtLinearConfig& cfg) {
    return LinearGrid(cfg).spec();
}

FtRunResult ft_linear_multiply(const BigInt& a, const BigInt& b,
                               const FtLinearConfig& cfg,
                               const FaultPlan& plan) {
    return run_engine("ft_linear", a, b, cfg.base, plan, [&](std::size_t n_bits) {
        const LinearGrid grid(cfg);
        EngineRun run{grid.spec(), {}, {}};

        // Parse and validate the fault plan: at most f per (phase, level-i
        // column), data ranks only. Over-budget or misplaced fault sets are
        // *unrecoverable*, not misconfigurations: refuse before computing a
        // wrong product.
        LinearFaults faults;
        for (const auto& [phase, rank] : plan.all()) {
            if (!run.spec.covers_phase(phase)) {
                throw UnrecoverableFault(
                    "ft_linear", phase, {rank},
                    "faults are only tolerated at eval-L<i>, interp-L<i> "
                    "(i < log_{2k-1} P) and leaf-mul phase boundaries");
            }
            if (!run.spec.covers_rank(rank)) {
                throw UnrecoverableFault(
                    "ft_linear", phase, {rank},
                    "only data processors (ranks 0..P-1) can fail; code "
                    "processors carry the redundancy itself");
            }
            const int level = phase_level(phase, grid.bfs);
            faults[phase][column_at_level(rank, grid.npts, level)].push_back(
                rank);
        }
        for (auto& [phase, by_col] : faults) {
            for (auto& [col, dead] : by_col) {
                std::sort(dead.begin(), dead.end());
                if (static_cast<int>(dead.size()) > grid.f) {
                    throw UnrecoverableFault(
                        "ft_linear", phase, dead,
                        "more faults in column " + std::to_string(col) +
                            " than code rows f=" + std::to_string(grid.f));
                }
            }
        }

        ParallelConfig geo = cfg.base;
        geo.forced_dfs_steps = 0;
        run.shape = resolve_shape(geo, n_bits);
        run.body = [&a, &b, &tplan = ToomPlan::make(grid.k), grid, faults,
                    shape = run.shape](Rank& rank, Slices& slices) {
            const int P = grid.P;
            const int bfs = grid.bfs;
            const bool is_code = rank.id() >= P;

            // Encode-then-maybe-recover at one protected boundary, whose
            // phase encodes on the level's grid columns. `state` is the data
            // rank's protected state (ignored on code ranks); returns true
            // when this rank failed here and `state` now holds the rebuilt
            // data. The code is refreshed before every protected phase (the
            // paper re-encodes at every BFS step).
            auto protect = [&](const std::string& phase, int level, int tag,
                               std::vector<BigInt>& state) -> bool {
                const int col =
                    is_code ? (rank.id() - P) % grid.npts
                            : column_at_level(rank.id(), grid.npts, level);
                const CodeColumn column = grid.column(level, col);
                rank.phase("encode-" + phase);
                std::vector<BigInt> code =
                    encode_column(rank, column, state, tag);

                const bool i_fail = !is_code && rank.phase(phase);
                const std::vector<int>* dead = dead_in(faults, phase, col);
                if (dead == nullptr) return false;
                if (is_code && (rank.id() - P) / grid.npts >=
                                   static_cast<int>(dead->size())) {
                    return false;  // spare code rows sit this recovery out
                }
                rank.phase("recover-" + phase);
                rank.begin_recovery(*dead);
                if (i_fail) state.clear();
                auto rebuilt =
                    recover_column(rank, "ft_linear", phase, column, *dead,
                                   is_code ? code : state, tag + 2 * grid.f + 2);
                if (i_fail) state = std::move(rebuilt);
                rank.end_recovery();
                // Resume in a distinct bucket so recovery costs stay visible.
                rank.phase(phase + "+post-recovery");
                return i_fail;
            };
            // The boundaries in program order, each with its level and tags.
            auto eval = [&](int lv, std::vector<BigInt>& state) {
                return protect("eval-L" + std::to_string(lv), lv,
                               300 + lv * 16, state);
            };
            auto leaf = [&](std::vector<BigInt>& state) {
                return protect(kLeafPhase, bfs - 1, 300 + bfs * 16, state);
            };
            auto interp = [&](int lv, std::vector<BigInt>& state) {
                return protect("interp-L" + std::to_string(lv), lv,
                               300 + (bfs + 1 + lv) * 16, state);
            };

            if (is_code) {
                // Code processors take part in every boundary's encode and
                // any recovery their column needs, in the same program order.
                std::vector<BigInt> none;
                for (int lv = 0; lv < bfs; ++lv) eval(lv, none);
                leaf(none);
                for (int lv = bfs - 1; lv >= 0; --lv) interp(lv, none);
                return;
            }

            rank.phase("split");
            // A fault at leaf-mul costs a decode *plus* a recomputation of
            // the leaf product (Birnbaum-style recovery).
            SweepHooks hooks;
            hooks.eval = [&](int lv, std::vector<BigInt>& x,
                             std::vector<BigInt>& y) {
                std::vector<BigInt> state = pack(x, y);
                if (eval(lv, state)) unpack(std::move(state), x, y);
            };
            hooks.exchange = [&](int lv, std::size_t digits) {
                rank.note_memory(words_estimate(shape, digits));
                rank.phase("xfwd-L" + std::to_string(lv));
            };
            hooks.leaf = [&](std::vector<BigInt>& x, std::vector<BigInt>& y) {
                std::vector<BigInt> state = pack(x, y);
                if (leaf(state)) unpack(std::move(state), x, y);
            };
            hooks.interp = [&](int lv, std::vector<BigInt>& children) {
                interp(lv, children);
            };
            slices[static_cast<std::size_t>(rank.id())] = bfs_sweep(
                rank, tplan, shape, local_input_digits(a, shape, P, rank.id()),
                local_input_digits(b, shape, P, rank.id()), hooks);
        };
        return run;
    });
}

}  // namespace ftmul
