#include "core/ft_multistep.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>

#include "coding/redundant_points.hpp"
#include "core/driver.hpp"
#include "core/layout.hpp"
#include "linalg/exact_solve.hpp"

namespace ftmul {

namespace {

using namespace core_detail;

/// Blockwise application of an integer matrix: out block i = sum_j m(i,j) *
/// in block j, elementwise over blocks of block_len.
void apply_matrix_blocks(const Matrix<BigInt>& m, std::span<const BigInt> in,
                         std::span<BigInt> out, std::size_t block_len) {
    assert(in.size() == m.cols() * block_len);
    assert(out.size() == m.rows() * block_len);
    for (std::size_t i = 0; i < m.rows(); ++i) {
        for (std::size_t t = 0; t < block_len; ++t) {
            BigInt acc;
            for (std::size_t j = 0; j < m.cols(); ++j) {
                const BigInt& c = m(i, j);
                if (c.is_zero()) continue;
                add_mul(acc, c, in[j * block_len + t]);
            }
            out[i * block_len + t] = std::move(acc);
        }
    }
}

}  // namespace

EngineSpec core_detail::ft_multistep_spec(const FtMultistepConfig& cfg) {
    const int npts = 2 * cfg.base.k - 1;
    const int l = cfg.fused_steps;
    const int P = cfg.base.processors;
    if (cfg.faults < 0) {
        throw std::invalid_argument("ft_multistep: faults must be >= 0");
    }
    if (l < 1) throw std::invalid_argument("ft_multistep: fused_steps >= 1");
    if (exact_log(static_cast<std::uint64_t>(P),
                  static_cast<std::uint64_t>(npts)) < l) {
        throw std::invalid_argument(
            "ft_multistep: need processors >= (2k-1)^fused_steps");
    }
    // (2k-1)^l data columns plus f redundant ones, of height P/(2k-1)^l.
    const auto wide_data = static_cast<int>(
        ipow(static_cast<std::uint64_t>(npts), l));
    const int world = P / wide_data * (wide_data + cfg.faults);
    return {P, world, world, world, {"mul"}};
}

FtRunResult ft_multistep_multiply(const BigInt& a, const BigInt& b,
                                  const FtMultistepConfig& cfg,
                                  const FaultPlan& plan) {
    return run_engine("ft_multistep", a, b, cfg.base, plan, [&](std::size_t n_bits) {
        EngineRun run{ft_multistep_spec(cfg), {}, {}};
        const int k = cfg.base.k;
        const int npts = 2 * k - 1;
        const int f = cfg.faults;
        const int l = cfg.fused_steps;
        const int world = run.spec.world;
        const auto wide_data = static_cast<int>(
            ipow(static_cast<std::uint64_t>(npts), l));

        // Fault plan: "mul" only, at most f distinct columns. Over-budget
        // sets are unrecoverable — raise the typed exception so callers can
        // escalate.
        std::vector<int> dead;
        for (const auto& [phase, rank] : plan.all()) {
            if (!run.spec.covers_phase(phase)) {
                throw UnrecoverableFault(
                    "ft_multistep", phase, {rank},
                    "faults are only tolerated at phase \"mul\"");
            }
            if (!run.spec.covers_rank(rank)) {
                throw UnrecoverableFault(
                    "ft_multistep", phase, {rank},
                    "fault rank out of range for world size " +
                        std::to_string(world));
            }
            dead.push_back(rank);
        }
        const ColumnKill kill("ft_multistep", dead, wide_data + f, wide_data,
                              f,
                              "the code only tolerates f=" +
                                  std::to_string(f) + " lost multipoints");

        // Evaluation points: S^l plus f redundant multipoints in general
        // position (Section 6.2 heuristic), and the fused evaluation
        // matrices.
        Rng rng{cfg.point_seed};
        std::vector<MultiPoint> points = find_redundant_points(
            standard_points(static_cast<std::size_t>(npts)),
            static_cast<std::size_t>(k), static_cast<std::size_t>(l),
            static_cast<std::size_t>(f), rng,
            cfg.optimized_points ? PointSearch::SmallestFirst
                                 : PointSearch::Randomized);
        Matrix<BigInt> eval_in = multivariate_eval_matrix(
            points, static_cast<std::size_t>(k), static_cast<std::size_t>(l));

        // Geometry: one fused step consuming l split levels, then dfs +
        // (bfs-l) levels inside each column.
        const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                                  static_cast<std::uint64_t>(npts));
        const int dfs = std::max(0, cfg.base.forced_dfs_steps);
        run.shape = resolve_shape_general(k, world, dfs, bfs, dfs + bfs,
                                          cfg.base.digit_bits,
                                          cfg.base.base_len, n_bits);
        run.body = [&a, &b, &tplan = ToomPlan::make(k), kill,
                    points = std::move(points), eval_in = std::move(eval_in),
                    dead, l, dfs, shape = run.shape](Rank& rank,
                                                     Slices& slices) {
            const std::size_t N = shape.total_digits;
            const int world = shape.processors;
            const auto npts = static_cast<std::size_t>(shape.npts);
            const std::size_t wide = points.size();
            const std::size_t wide_data = kill.used_cols.size();
            const std::size_t kl = ipow(static_cast<std::uint64_t>(shape.k), l);
            const std::size_t block = N / kl;  // fused sub-block length
            const std::size_t s0 = block / static_cast<std::size_t>(world);
            const std::size_t rc = 2 * s0;     // old-layout slice of a child
            const auto id = static_cast<std::size_t>(rank.id());
            const std::size_t col = id % wide;
            const std::size_t row = id / wide;

            rank.phase("split");
            std::vector<BigInt> a_loc =
                local_input_digits(a, shape, world, rank.id());
            std::vector<BigInt> b_loc =
                local_input_digits(b, shape, world, rank.id());

            // Fused evaluation at all (2k-1)^l + f multipoints, local.
            rank.phase("eval-fused");
            std::vector<BigInt> ea(wide * s0), eb(wide * s0);
            apply_matrix_blocks(eval_in, a_loc, ea, s0);
            apply_matrix_blocks(eval_in, b_loc, eb, s0);
            a_loc.clear();
            b_loc.clear();

            rank.phase("xfwd-fused");
            auto [a_new, b_new] = exchange_forward_pair(
                rank, Group::strided(0, world), wide, 1, std::move(ea),
                std::move(eb), 50, 51);

            const bool i_fail = rank.phase("mul");
            if (i_fail || kill.doomed.count(static_cast<int>(col))) {
                return;  // data lost / column halted
            }
            std::vector<BigInt> child = dist_convolve(
                rank, tplan, shape,
                Group::strided(static_cast<int>(col),
                               world / static_cast<int>(wide),
                               static_cast<int>(wide)),
                wide, std::move(a_new), std::move(b_new), block, dfs, 1);
            assert(child.size() == wide * rc);

            rank.phase("xbwd-fused");
            const auto pieces =
                send_pieces(rank, kill, row, col, wide, std::move(child));

            // On-the-fly multivariate interpolation from the surviving
            // columns.
            rank.phase("interp-fused");
            std::vector<MultiPoint> used_points;
            for (std::size_t c : kill.used_cols) used_points.push_back(points[c]);
            const Matrix<BigInt> eval_out = multivariate_eval_matrix(
                used_points, npts, static_cast<std::size_t>(l));
            InterpOperator op;
            try {
                op = InterpOperator::from_rational(
                    inverse(eval_out.cast<BigRational>()));
            } catch (const SingularMatrixError&) {
                throw UnrecoverableFault(
                    "ft_multistep", "interp-fused", dead,
                    "surviving multipoints do not determine the product "
                    "(singular fused interpolation system)");
            }

            for_each_role(rank, kill, row, col, wide, [&](std::size_t role) {
                const auto children = receive_role(rank, "ft_multistep", kill,
                                                   row, col, wide, role, pieces);
                std::vector<BigInt> coeffs(wide_data * rc);
                op.apply_blocks(children, coeffs, rc);

                // Overlap-add: coefficient block with multivariate exponents
                // (e_1..e_l) — block index sum e_t (2k-1)^(l-t) — lands at
                // digit offset sum e_t k^(l-t) * block, i.e. local offset in
                // s0 units.
                std::vector<BigInt> out(2 * N / static_cast<std::size_t>(world));
                for (std::size_t i = 0; i < wide_data; ++i) {
                    std::size_t rem = i;
                    std::size_t offset_units = 0;  // multiples of block
                    std::size_t kpow = 1;
                    for (int t = 0; t < l; ++t) {
                        offset_units += (rem % npts) * kpow;
                        rem /= npts;
                        kpow *= static_cast<std::size_t>(shape.k);
                    }
                    const std::size_t local_off = offset_units * s0;
                    for (std::size_t t = 0; t < rc; ++t) {
                        out[local_off + t] += coeffs[i * rc + t];
                    }
                }
                slices[row * wide + role] = std::move(out);
            });
        };
        return run;
    });
}

}  // namespace ftmul
