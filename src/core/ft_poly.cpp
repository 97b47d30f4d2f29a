#include "core/ft_poly.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/driver.hpp"
#include "core/layout.hpp"

namespace ftmul {

namespace {
using namespace core_detail;
}  // namespace

EngineSpec core_detail::ft_poly_spec(const FtPolyConfig& cfg) {
    const int npts = 2 * cfg.base.k - 1;
    const int P = cfg.base.processors;
    if (cfg.faults < 0) {
        throw std::invalid_argument("ft_poly: faults must be >= 0");
    }
    if (exact_log(static_cast<std::uint64_t>(P),
                  static_cast<std::uint64_t>(npts)) < 1) {
        throw std::invalid_argument(
            "ft_poly: processors must be a positive power of 2k-1 (>= 2k-1)");
    }
    // f redundant columns of P/(2k-1) code processors each.
    const int world = P / npts * (npts + cfg.faults);
    return {P, world, world, world, {"mul"}};
}

FtRunResult ft_poly_multiply(const BigInt& a, const BigInt& b,
                             const FtPolyConfig& cfg, const FaultPlan& plan) {
    return run_engine("ft_poly", a, b, cfg.base, plan, [&](std::size_t n_bits) {
        EngineRun run{ft_poly_spec(cfg), {}, {}};
        const int k = cfg.base.k;
        const int npts = 2 * k - 1;
        const int f = cfg.faults;
        const int world = run.spec.world;

        // Validate the fault plan: only "mul"-phase faults, at most f
        // distinct columns (a fault halts its whole column). Anything else
        // is an unrecoverable fault set — refuse rather than compute a wrong
        // product.
        std::vector<int> dead;
        for (const auto& [phase, rank] : plan.all()) {
            if (!run.spec.covers_phase(phase)) {
                throw UnrecoverableFault(
                    "ft_poly", phase, {rank},
                    "faults are only tolerated in the multiplication phase "
                    "(schedule at \"mul\"); use ft_linear for the "
                    "evaluation/interpolation phases");
            }
            if (!run.spec.covers_rank(rank)) {
                throw UnrecoverableFault(
                    "ft_poly", phase, {rank},
                    "fault rank out of range for world size " +
                        std::to_string(world));
            }
            dead.push_back(rank);
        }
        const ColumnKill kill("ft_poly", dead, npts + f, npts, f,
                              "the code only tolerates f=" +
                                  std::to_string(f) +
                                  " lost evaluation points");

        // Geometry: one coded BFS step, then dfs DFS steps and bfs-1 plain
        // BFS steps inside each column. Leaf length aligned to the widened
        // world.
        const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                                  static_cast<std::uint64_t>(npts));
        const int dfs = std::max(0, cfg.base.forced_dfs_steps);
        run.shape = resolve_shape_general(k, world, dfs, bfs, dfs + bfs,
                                          cfg.base.digit_bits,
                                          cfg.base.base_len, n_bits);
        run.body = [&a, &b, &tplan = ToomPlan::make(k, static_cast<std::size_t>(f)),
                    kill, dfs, shape = run.shape](Rank& rank, Slices& slices) {
            const std::size_t N = shape.total_digits;
            const int world = shape.processors;
            const auto k = static_cast<std::size_t>(shape.k);
            const auto unpts = static_cast<std::size_t>(shape.npts);
            const std::size_t wide = tplan.num_points();  // 2k-1+f columns
            const std::size_t s0 = N / k / static_cast<std::size_t>(world);
            const std::size_t rc = 2 * s0;  // old-layout slice of one child
            const auto id = static_cast<std::size_t>(rank.id());
            const std::size_t col = id % wide;
            const std::size_t row = id / wide;

            rank.phase("split");
            std::vector<BigInt> a_loc =
                local_input_digits(a, shape, world, rank.id());
            std::vector<BigInt> b_loc =
                local_input_digits(b, shape, world, rank.id());

            rank.phase("eval-L0");
            std::vector<BigInt> ea(wide * s0), eb(wide * s0);
            tplan.evaluate_blocks(a_loc, ea, s0);  // all 2k-1+f rows
            tplan.evaluate_blocks(b_loc, eb, s0);
            a_loc.clear();
            b_loc.clear();

            rank.phase("xfwd-L0");
            auto [a_new, b_new] = exchange_forward_pair(
                rank, Group::strided(0, world), wide, 1, std::move(ea),
                std::move(eb), 50, 51);

            // Multiplication phase: a fault kills this rank and its column
            // halts (paper Section 4.2 fault recovery).
            const bool i_fail = rank.phase("mul");
            if (i_fail || kill.doomed.count(static_cast<int>(col))) return;
            std::vector<BigInt> child = dist_convolve(
                rank, tplan, shape,
                Group::strided(static_cast<int>(col),
                               world / static_cast<int>(wide),
                               static_cast<int>(wide)),
                wide, std::move(a_new), std::move(b_new), N / k, dfs, 1);
            assert(child.size() == wide * rc);

            rank.phase("xbwd-L0");
            const auto pieces =
                send_pieces(rank, kill, row, col, wide, std::move(child));

            rank.phase("interp-L0");
            // On-the-fly interpolation from the surviving points (Section
            // 4.2), one role at a time.
            const InterpOperator op = tplan.interpolation_for(kill.used_cols);
            for_each_role(rank, kill, row, col, wide, [&](std::size_t role) {
                const auto children = receive_role(rank, "ft_poly", kill, row,
                                                   col, wide, role, pieces);
                std::vector<BigInt> coeffs(unpts * rc);
                op.apply_blocks(children, coeffs, rc);
                slices[row * wide + role] = fold_blocks_local(
                    coeffs, unpts, rc, s0, 2 * N / static_cast<std::size_t>(world));
            });
        };
        return run;
    });
}

}  // namespace ftmul
