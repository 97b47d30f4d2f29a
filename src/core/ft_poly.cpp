#include "core/ft_poly.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <span>
#include <stdexcept>

#include "core/layout.hpp"
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

}  // namespace

FtRunResult ft_poly_multiply(const BigInt& a, const BigInt& b,
                             const FtPolyConfig& cfg, const FaultPlan& plan) {
    const EngineRunScope metrics_scope("ft_poly");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int f = cfg.faults;
    if (f < 0) throw std::invalid_argument("ft_poly: faults must be >= 0");
    const int bfs = exact_log(static_cast<std::uint64_t>(cfg.base.processors),
                              static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "ft_poly: processors must be a positive power of 2k-1 (>= 2k-1)");
    }
    const int height = cfg.base.processors / npts;       // column height
    const int npts_wide = npts + f;                      // columns incl. code
    const int world = height * npts_wide;                // P'
    const int dfs = std::max(0, cfg.base.forced_dfs_steps);

    // Validate the fault plan: only "mul"-phase faults, at most f distinct
    // columns (a fault halts its whole column). Anything else is an
    // unrecoverable fault set — refuse rather than compute a wrong product.
    std::set<int> doomed;
    std::vector<int> dead_ranks;
    for (const auto& [phase, rank] : plan.all()) {
        if (phase != "mul") {
            throw UnrecoverableFault(
                "ft_poly", phase, {rank},
                "faults are only tolerated in the multiplication phase "
                "(schedule at \"mul\"); use ft_linear for the "
                "evaluation/interpolation phases");
        }
        if (rank < 0 || rank >= world) {
            throw UnrecoverableFault(
                "ft_poly", phase, {rank},
                "fault rank out of range for world size " +
                    std::to_string(world));
        }
        doomed.insert(rank % npts_wide);
        dead_ranks.push_back(rank);
    }
    if (static_cast<int>(doomed.size()) > f) {
        throw UnrecoverableFault(
            "ft_poly", "mul", dead_ranks,
            "faults span " + std::to_string(doomed.size()) +
                " distinct columns but the code only tolerates f=" +
                std::to_string(f) + " lost evaluation points");
    }

    std::vector<std::size_t> alive_cols;
    for (int c = 0; c < npts_wide; ++c) {
        if (!doomed.count(c)) alive_cols.push_back(static_cast<std::size_t>(c));
    }
    const std::vector<std::size_t> used_cols(alive_cols.begin(),
                                             alive_cols.begin() + npts);
    const std::size_t sub_col = alive_cols.front();

    // Geometry: one coded BFS step, then dfs DFS steps and bfs-1 plain BFS
    // steps inside each column. Leaf length aligned to the widened world.
    FtRunResult result;
    result.shape = resolve_shape_general(
        k, cfg.base.processors, world, dfs, bfs, 1 + dfs + (bfs - 1),
        cfg.base.digit_bits, cfg.base.base_len,
        std::max(a.bit_length(), b.bit_length()));
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - cfg.base.processors;
    result.faults_injected = static_cast<int>(plan.total_faults());

    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan& tplan =
        ToomPlan::make(k, static_cast<std::size_t>(f));
    Machine machine(world, plan);
    if (cfg.base.events) machine.enable_event_log();
    core_detail::arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(world));

    const std::size_t N = shape.total_digits;
    const auto unpts = static_cast<std::size_t>(npts);
    const auto uwide = static_cast<std::size_t>(npts_wide);
    const std::size_t s0 = N / static_cast<std::size_t>(k) /
                           static_cast<std::size_t>(world);
    const std::size_t rc = 2 * s0;  // old-layout slice of one child result

    machine.run([&](Rank& rank) {
        const auto id = static_cast<std::size_t>(rank.id());
        const std::size_t col = id % uwide;
        const std::size_t row = id / uwide;
        const bool col_doomed = doomed.count(static_cast<int>(col)) != 0;

        rank.phase("split");
        std::vector<BigInt> a_loc = local_input_digits(a, shape, world, rank.id());
        std::vector<BigInt> b_loc = local_input_digits(b, shape, world, rank.id());
        const Group g = Group::strided(0, world);

        rank.phase("eval-L0");
        std::vector<BigInt> ea(uwide * s0), eb(uwide * s0);
        tplan.evaluate_blocks(a_loc, ea, s0);  // all 2k-1+f rows
        tplan.evaluate_blocks(b_loc, eb, s0);
        a_loc.clear();
        b_loc.clear();

        rank.phase("xfwd-L0");
        auto [a_new, b_new] = exchange_forward_pair(
            rank, g, uwide, 1, std::move(ea), std::move(eb), 50, 51);

        // Multiplication phase: a fault kills this rank; its column halts.
        const bool i_fail = rank.phase("mul");
        if (i_fail || col_doomed) {
            // Data lost / column halted (paper Section 4.2 fault recovery).
            return;
        }
        Group column;
        for (int r = 0; r < height; ++r) {
            column.members.push_back(r * npts_wide + static_cast<int>(col));
        }
        std::vector<BigInt> child = dist_convolve(
            rank, tplan, shape, column, uwide, std::move(a_new),
            std::move(b_new), N / static_cast<std::size_t>(k), dfs, 1);
        assert(child.size() == uwide * rc);

        // Backward exchange with substitution: pieces for dead row peers go
        // to the designated substitute (the replacement processor).
        rank.phase("xbwd-L0");
        std::vector<std::vector<BigInt>> pieces(uwide);
        for (auto& p : pieces) p.reserve(rc);
        const std::size_t superchunks = child.size() / uwide;
        for (std::size_t q = 0; q < superchunks; ++q) {
            for (std::size_t c2 = 0; c2 < uwide; ++c2) {
                pieces[c2].push_back(std::move(child[q * uwide + c2]));
            }
        }
        // Substituted roles can alias several pieces onto one destination
        // (the substitute column); coalesce everything bound for the same
        // peer into one batched delivery. Each piece is still charged as
        // its own message.
        std::map<int, std::vector<std::pair<int, std::span<const BigInt>>>>
            outbound;
        for (std::size_t c2 = 0; c2 < uwide; ++c2) {
            if (c2 == col) continue;
            const std::size_t dst_col = doomed.count(static_cast<int>(c2))
                                            ? sub_col
                                            : c2;
            if (dst_col == col && doomed.count(static_cast<int>(c2))) {
                // I am the substitute for role c2: keep my own piece locally.
                continue;
            }
            outbound[static_cast<int>(row * uwide + dst_col)].emplace_back(
                60 + static_cast<int>(c2), std::span<const BigInt>(pieces[c2]));
        }
        for (const auto& [dst, items] : outbound) {
            rank.send_bigints_batch(dst, items);
        }
        rank.add_latency(uwide - 1);

        // Roles this rank interpolates: itself, plus any dead row peers it
        // substitutes for.
        std::vector<std::size_t> roles{col};
        if (col == sub_col) {
            for (int c : doomed) roles.push_back(static_cast<std::size_t>(c));
        }

        rank.phase("interp-L0");
        // On-the-fly interpolation from the surviving points (Section 4.2).
        const InterpOperator op = tplan.interpolation_for(used_cols);
        auto interp_role = [&](std::size_t role) {
            std::vector<BigInt> children;
            children.reserve(unpts * rc);
            for (std::size_t src : used_cols) {
                if (src == col && role == col) {
                    children.insert(children.end(), pieces[role].begin(),
                                    pieces[role].end());
                } else if (src == col) {
                    // My own column's piece for a substituted role was kept
                    // locally during the send loop above.
                    children.insert(children.end(), pieces[role].begin(),
                                    pieces[role].end());
                } else {
                    auto got = rank.recv_bigints(
                        static_cast<int>(row * uwide + src),
                        60 + static_cast<int>(role));
                    if (got.size() != rc) {
                        throw std::runtime_error("ft_poly: piece mismatch");
                    }
                    children.insert(children.end(),
                                    std::make_move_iterator(got.begin()),
                                    std::make_move_iterator(got.end()));
                }
            }
            std::vector<BigInt> coeffs(unpts * rc);
            op.apply_blocks(children, coeffs, rc);
            auto out = std::vector<BigInt>(2 * N / static_cast<std::size_t>(world));
            // Overlap-add fold, identical to the fault-free path.
            for (std::size_t i = 0; i < unpts; ++i) {
                for (std::size_t t = 0; t < rc; ++t) {
                    out[i * s0 + t] += coeffs[i * rc + t];
                }
            }
            slices[row * uwide + role] = std::move(out);
        };
        interp_role(col);
        if (roles.size() > 1) {
            // Substituting for dead row peers is recovery work: attribute
            // its exact cost to this rank with the ranks it rebuilds.
            std::vector<int> dead;
            for (std::size_t i = 1; i < roles.size(); ++i) {
                dead.push_back(
                    static_cast<int>(row * uwide + roles[i]));
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
