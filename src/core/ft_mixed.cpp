#include "core/ft_mixed.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

#include "core/driver.hpp"
#include "core/layout.hpp"

namespace ftmul {

namespace {

using namespace core_detail;

constexpr const char* kEvalPhase = "eval-L0";
constexpr const char* kMulPhase = "mul";
constexpr const char* kInterpPhase = "interp-L0";

}  // namespace

EngineSpec core_detail::ft_mixed_spec(const FtMixedConfig& cfg) {
    const int npts = 2 * cfg.base.k - 1;
    const int f = cfg.faults;
    const int P = cfg.base.processors;
    if (f < 0) throw std::invalid_argument("ft_mixed: faults must be >= 0");
    if (exact_log(static_cast<std::uint64_t>(P),
                  static_cast<std::uint64_t>(npts)) < 1) {
        throw std::invalid_argument(
            "ft_mixed: processors must be a positive power of 2k-1 (>= 2k-1)");
    }
    if (cfg.base.forced_dfs_steps > 0) {
        throw std::invalid_argument(
            "ft_mixed: only the unlimited-memory case is supported");
    }
    // P/(2k-1) data rows of 2k-1+f columns (the polynomial code), then f
    // code rows of the linear code over every column.
    const int data_world = P / npts * (npts + f);
    return {P, data_world + f * (npts + f), data_world, data_world,
            {kEvalPhase, kMulPhase, kInterpPhase}};
}

FtRunResult ft_mixed_multiply(const BigInt& a, const BigInt& b,
                              const FtMixedConfig& cfg,
                              const FaultPlan& plan) {
    return run_engine("ft_mixed", a, b, cfg.base, plan, [&](std::size_t n_bits) {
        EngineRun run{ft_mixed_spec(cfg), {}, {}};
        const int k = cfg.base.k;
        const int npts = 2 * k - 1;
        const int f = cfg.faults;
        const int wide = npts + f;
        const int data_world = run.spec.slices;

        // Every rejection here is an *unrecoverable fault set* (the plan asks
        // for more than the combined codes can absorb), not a configuration
        // error — raise the typed exception so callers can escalate.
        std::vector<int> mul_dead;
        LinearFaults linear_faults;
        for (const auto& [phase, rank] : plan.all()) {
            if (!run.spec.covers_phase(phase)) {
                throw UnrecoverableFault(
                    "ft_mixed", phase, {rank},
                    "faults are only tolerated at eval-L0, mul and interp-L0");
            }
            if (phase == kMulPhase) {
                if (!run.spec.covers_rank(rank)) {
                    throw UnrecoverableFault(
                        "ft_mixed", phase, {rank},
                        "mul fault rank out of range for the data region of " +
                            std::to_string(data_world) + " ranks");
                }
                mul_dead.push_back(rank);
            } else {
                if (!run.spec.covers_rank(rank)) {
                    throw UnrecoverableFault(
                        "ft_mixed", phase, {rank},
                        "linear-code faults must hit data ranks (code rows "
                        "carry the redundancy itself)");
                }
                linear_faults[phase][rank % wide].push_back(rank);
            }
        }
        const ColumnKill kill("ft_mixed", mul_dead, wide, npts, f,
                              "the polynomial code only tolerates f=" +
                                  std::to_string(f));
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
                    (kill.doomed.count(col) ||
                     (!kill.doomed.empty() &&
                      static_cast<std::size_t>(col) == kill.sub_col))) {
                    throw UnrecoverableFault(
                        "ft_mixed", phase, dead,
                        "interp faults cannot hit dead or substitute columns "
                        "(their state is already being rebuilt elsewhere)");
                }
            }
        }

        const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                                  static_cast<std::uint64_t>(npts));
        run.shape = resolve_shape_general(k, data_world, 0, bfs, bfs,
                                          cfg.base.digit_bits,
                                          cfg.base.base_len, n_bits);
        run.body = [&a, &b, &tplan = ToomPlan::make(k, static_cast<std::size_t>(f)),
                    kill, linear_faults, f, wide,
                    shape = run.shape](Rank& rank, Slices& slices) {
            const std::size_t N = shape.total_digits;
            const int data_world = shape.processors;
            const auto k = static_cast<std::size_t>(shape.k);
            const auto unpts = static_cast<std::size_t>(shape.npts);
            const auto uwide = static_cast<std::size_t>(wide);
            const std::size_t s0 = N / k / static_cast<std::size_t>(data_world);
            const std::size_t rc = 2 * s0;
            const bool is_code_row = rank.id() >= data_world;
            const int col = (rank.id() - (is_code_row ? data_world : 0)) % wide;
            const bool col_doomed = kill.doomed.count(col) != 0;

            // The linear code over wide-grid column `col`: data ranks
            // {r*wide + col}, code rows {data_world + j*wide + col}.
            CodeColumn column{
                Group::strided(col, data_world / wide, wide).members, {}};
            for (int j = 0; j < f; ++j) {
                column.code.push_back(data_world + j * wide + col);
            }
            // Encode `state` on the column's code rows, enter `phase`, and
            // rebuild the column's dead ranks there (Section 4.1). Returns
            // true when this rank failed and `state` holds the rebuilt data.
            auto protect = [&](const char* encode_phase, const char* phase,
                               int tag, int recover_tag,
                               std::vector<BigInt>& state) -> bool {
                rank.phase(encode_phase);
                const std::vector<BigInt> code =
                    encode_column(rank, column, state, tag);
                const bool i_fail = !is_code_row && rank.phase(phase);
                const std::vector<int>* dead = dead_in(linear_faults, phase, col);
                if (dead == nullptr) return i_fail;
                if (is_code_row && (rank.id() - data_world) / wide >=
                                       static_cast<int>(dead->size())) {
                    return i_fail;  // spare code rows sit this recovery out
                }
                rank.phase(std::string("recover-") + phase);
                rank.begin_recovery(*dead);
                if (i_fail) state.clear();
                auto rebuilt =
                    recover_column(rank, "ft_mixed", phase, column, *dead,
                                   is_code_row ? code : state, recover_tag);
                if (i_fail) state = std::move(rebuilt);
                rank.end_recovery();
                if (!is_code_row) rank.phase(std::string(phase) + "+post-recovery");
                return i_fail;
            };

            if (is_code_row) {
                std::vector<BigInt> none;
                protect("encode-input", kEvalPhase, 400, 500, none);
                if (col_doomed) return;  // column halts at the mult phase
                protect("encode-children", kInterpPhase, 440, 580, none);
                return;
            }

            // ---- data processor ----------------------------------------
            const auto row = static_cast<std::size_t>(rank.id()) / uwide;
            rank.phase("split");
            std::vector<BigInt> a_loc =
                local_input_digits(a, shape, data_world, rank.id());
            std::vector<BigInt> b_loc =
                local_input_digits(b, shape, data_world, rank.id());

            // Linear code over the inputs; evaluation-phase faults recovered
            // by a reduce over the column.
            std::vector<BigInt> state = pack(a_loc, b_loc);
            if (protect("encode-input", kEvalPhase, 400, 500, state)) {
                unpack(std::move(state), a_loc, b_loc);
            }
            state.clear();

            // Redundant-point evaluation + the wide row exchange (Section
            // 4.2).
            std::vector<BigInt> ea(uwide * s0), eb(uwide * s0);
            tplan.evaluate_blocks(a_loc, ea, s0);
            tplan.evaluate_blocks(b_loc, eb, s0);
            a_loc.clear();
            b_loc.clear();

            rank.phase("xfwd-L0");
            auto [a_new, b_new] = exchange_forward_pair(
                rank, Group::strided(0, data_world), uwide, 1, std::move(ea),
                std::move(eb), 50, 51);

            // Multiplication phase: poly-code column kill.
            const bool i_fail_mul = rank.phase(kMulPhase);
            if (i_fail_mul || col_doomed) return;
            std::vector<BigInt> child = dist_convolve(
                rank, tplan, shape,
                Group::strided(col, data_world / wide, wide), uwide,
                std::move(a_new), std::move(b_new), N / k, 0, 1);
            assert(child.size() == uwide * rc);

            rank.phase("xbwd-L0");
            const auto ucol = static_cast<std::size_t>(col);
            const auto pieces =
                send_pieces(rank, kill, row, ucol, uwide, std::move(child));

            // Receive every role's pieces now so the interpolation state is
            // a single vector the linear code can protect.
            std::map<std::size_t, std::vector<BigInt>> role_children;
            for (std::size_t role : kill.roles(ucol)) {
                role_children[role] = receive_role(rank, "ft_mixed", kill, row,
                                                   ucol, uwide, role, pieces);
            }

            // Linear code over the (own-role) child coefficients;
            // interp-phase faults recovered by the column reduce.
            protect("encode-children", kInterpPhase, 440, 580,
                    role_children[ucol]);

            // On-the-fly interpolation from the surviving points.
            const InterpOperator op = tplan.interpolation_for(kill.used_cols);
            for_each_role(rank, kill, row, ucol, uwide, [&](std::size_t role) {
                std::vector<BigInt> coeffs(unpts * rc);
                op.apply_blocks(role_children[role], coeffs, rc);
                slices[row * uwide + role] = fold_blocks_local(
                    coeffs, unpts, rc, s0,
                    2 * N / static_cast<std::size_t>(data_world));
            });
        };
        return run;
    });
}

}  // namespace ftmul
