#include "core/ft_multistep.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <span>
#include <stdexcept>

#include "coding/redundant_points.hpp"
#include "core/layout.hpp"
#include "linalg/exact_solve.hpp"
#include "toom/digits.hpp"

namespace ftmul {

namespace {

using core_detail::dist_convolve;
using core_detail::local_input_digits;

int exact_log(std::uint64_t v, std::uint64_t base) {
    int l = 0;
    while (v > 1) {
        if (v % base != 0) return -1;
        v /= base;
        ++l;
    }
    return l;
}

std::size_t ipow(std::size_t b, int e) {
    std::size_t r = 1;
    for (int i = 0; i < e; ++i) r *= b;
    return r;
}

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

FtRunResult ft_multistep_multiply(const BigInt& a, const BigInt& b,
                                  const FtMultistepConfig& cfg,
                                  const FaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_multistep");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.faults;
    const int l = cfg.fused_steps;
    if (f < 0) throw std::invalid_argument("ft_multistep: faults must be >= 0");
    if (l < 1) throw std::invalid_argument("ft_multistep: fused_steps >= 1");
    const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                              static_cast<std::uint64_t>(npts));
    if (bfs < l) {
        throw std::invalid_argument(
            "ft_multistep: need processors >= (2k-1)^fused_steps");
    }
    const auto wide_data = static_cast<int>(ipow(static_cast<std::size_t>(npts), l));
    const int height = cfg.base.processors / wide_data;  // column height
    const int wide = wide_data + f;
    const int world = height * wide;
    const int dfs = std::max(0, cfg.base.forced_dfs_steps);

    // Fault plan: "mul" only, at most f distinct columns. Over-budget sets
    // are unrecoverable — raise the typed exception so callers can escalate.
    std::set<int> doomed;
    std::vector<int> dead_ranks;
    for (const auto& [phase, rank] : plan.all()) {
        if (phase != "mul") {
            throw UnrecoverableFault(
                "ft_multistep", phase, {rank},
                "faults are only tolerated at phase \"mul\"");
        }
        if (rank < 0 || rank >= world) {
            throw UnrecoverableFault(
                "ft_multistep", phase, {rank},
                "fault rank out of range for world size " +
                    std::to_string(world));
        }
        doomed.insert(rank % wide);
        dead_ranks.push_back(rank);
    }
    if (static_cast<int>(doomed.size()) > f) {
        throw UnrecoverableFault(
            "ft_multistep", "mul", dead_ranks,
            "faults span " + std::to_string(doomed.size()) +
                " distinct columns but the code only tolerates f=" +
                std::to_string(f) + " lost multipoints");
    }
    std::vector<std::size_t> alive_cols;
    for (int c = 0; c < wide; ++c) {
        if (!doomed.count(c)) alive_cols.push_back(static_cast<std::size_t>(c));
    }
    const std::vector<std::size_t> used_cols(
        alive_cols.begin(), alive_cols.begin() + wide_data);
    const std::size_t sub_col = alive_cols.front();

    // Evaluation points: S^l plus f redundant multipoints in general
    // position (Section 6.2 heuristic), and the fused evaluation matrices.
    Rng rng{cfg.point_seed};
    const std::vector<MultiPoint> points = find_redundant_points(
        standard_points(static_cast<std::size_t>(npts)),
        static_cast<std::size_t>(k), static_cast<std::size_t>(l),
        static_cast<std::size_t>(f), rng,
        cfg.optimized_points ? PointSearch::SmallestFirst
                             : PointSearch::Randomized);
    const Matrix<BigInt> eval_in = multivariate_eval_matrix(
        points, static_cast<std::size_t>(k), static_cast<std::size_t>(l));

    // Geometry: one fused step consuming l split levels, then dfs + (bfs-l)
    // levels inside each column.
    FtRunResult result;
    result.shape = resolve_shape_general(
        k, cfg.base.processors, world, dfs, bfs, l + dfs + (bfs - l),
        cfg.base.digit_bits, cfg.base.base_len,
        std::max(a.bit_length(), b.bit_length()));
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - cfg.base.processors;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan& tplan = ToomPlan::make(k);
    Machine machine(world, plan);
    if (cfg.base.events) machine.enable_event_log();
    core_detail::arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(world));

    const std::size_t N = shape.total_digits;
    const auto uwide = static_cast<std::size_t>(wide);
    const std::size_t kl = ipow(static_cast<std::size_t>(k), l);
    const std::size_t block = N / kl;         // fused sub-block length
    const std::size_t s0 = block / static_cast<std::size_t>(world);
    const std::size_t rc = 2 * s0;            // old-layout slice of a child

    machine.run([&](Rank& rank) {
        const auto id = static_cast<std::size_t>(rank.id());
        const std::size_t col = id % uwide;
        const std::size_t row = id / uwide;
        const bool col_doomed = doomed.count(static_cast<int>(col)) != 0;

        rank.phase("split");
        std::vector<BigInt> a_loc = local_input_digits(a, shape, world, rank.id());
        std::vector<BigInt> b_loc = local_input_digits(b, shape, world, rank.id());
        const Group g = Group::strided(0, world);

        // Fused evaluation at all (2k-1)^l + f multipoints, local.
        rank.phase("eval-fused");
        std::vector<BigInt> ea(uwide * s0), eb(uwide * s0);
        apply_matrix_blocks(eval_in, a_loc, ea, s0);
        apply_matrix_blocks(eval_in, b_loc, eb, s0);
        a_loc.clear();
        b_loc.clear();

        rank.phase("xfwd-fused");
        auto [a_new, b_new] = exchange_forward_pair(
            rank, g, uwide, 1, std::move(ea), std::move(eb), 50, 51);

        const bool i_fail = rank.phase("mul");
        if (i_fail || col_doomed) return;  // data lost / column halted

        Group column;
        for (int r = 0; r < height; ++r) {
            column.members.push_back(r * wide + static_cast<int>(col));
        }
        std::vector<BigInt> child =
            dist_convolve(rank, tplan, shape, column, uwide, std::move(a_new),
                          std::move(b_new), block, dfs, 1);
        assert(child.size() == uwide * rc);

        // Backward exchange with substitution for dead rows' result shares.
        rank.phase("xbwd-fused");
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
            if (c2 == col) continue;
            const std::size_t dst_col =
                doomed.count(static_cast<int>(c2)) ? sub_col : c2;
            if (dst_col == col) continue;  // substitute keeps it locally
            outbound[static_cast<int>(row * uwide + dst_col)].emplace_back(
                60 + static_cast<int>(c2), std::span<const BigInt>(pieces[c2]));
        }
        for (const auto& [dst, items] : outbound) {
            rank.send_bigints_batch(dst, items);
        }
        rank.add_latency(uwide - 1);

        std::vector<std::size_t> roles{col};
        if (col == sub_col) {
            for (int c : doomed) roles.push_back(static_cast<std::size_t>(c));
        }

        // On-the-fly multivariate interpolation from the surviving columns.
        rank.phase("interp-fused");
        std::vector<MultiPoint> used_points;
        for (std::size_t c : used_cols) used_points.push_back(points[c]);
        const Matrix<BigInt> eval_out = multivariate_eval_matrix(
            used_points, static_cast<std::size_t>(npts),
            static_cast<std::size_t>(l));
        InterpOperator op;
        try {
            op = InterpOperator::from_rational(
                inverse(eval_out.cast<BigRational>()));
        } catch (const SingularMatrixError&) {
            throw UnrecoverableFault(
                "ft_multistep", "interp-fused", dead_ranks,
                "surviving multipoints do not determine the product "
                "(singular fused interpolation system)");
        }

        const auto uwide_data = static_cast<std::size_t>(wide_data);
        auto interp_role = [&](std::size_t role) {
            std::vector<BigInt> children;
            children.reserve(uwide_data * rc);
            for (std::size_t src : used_cols) {
                if (src == col) {
                    children.insert(children.end(), pieces[role].begin(),
                                    pieces[role].end());
                } else {
                    auto got = rank.recv_bigints(
                        static_cast<int>(row * uwide + src),
                        60 + static_cast<int>(role));
                    if (got.size() != rc) {
                        throw std::runtime_error("ft_multistep: piece mismatch");
                    }
                    children.insert(children.end(),
                                    std::make_move_iterator(got.begin()),
                                    std::make_move_iterator(got.end()));
                }
            }
            std::vector<BigInt> coeffs(uwide_data * rc);
            op.apply_blocks(children, coeffs, rc);

            // Overlap-add: coefficient block with multivariate exponents
            // (e_1..e_l) — block index sum e_t (2k-1)^(l-t) — lands at digit
            // offset sum e_t k^(l-t) * block, i.e. local offset in s0 units.
            std::vector<BigInt> out(2 * N / static_cast<std::size_t>(world));
            for (std::size_t i = 0; i < uwide_data; ++i) {
                std::size_t rem = i;
                std::size_t offset_units = 0;  // multiples of block
                std::size_t kpow = 1;
                for (int t = 0; t < l; ++t) {
                    offset_units += (rem % static_cast<std::size_t>(npts)) * kpow;
                    rem /= static_cast<std::size_t>(npts);
                    kpow *= static_cast<std::size_t>(k);
                }
                const std::size_t local_off = offset_units * s0;
                for (std::size_t t = 0; t < rc; ++t) {
                    out[local_off + t] += coeffs[i * rc + t];
                }
            }
            slices[row * uwide + role] = std::move(out);
        };
        interp_role(col);
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
