#include "core/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/driver.hpp"
#include "core/layout.hpp"
#include "toom/lazy.hpp"

namespace ftmul {

namespace core_detail {

namespace {

std::vector<std::size_t> base_rows(const ToomPlan& plan) {
    std::vector<std::size_t> rows(plan.num_base_points());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    return rows;
}

}  // namespace

std::uint64_t words_estimate(const ResolvedShape& shape, std::size_t digits) {
    return static_cast<std::uint64_t>(digits) *
           ((shape.digit_bits + 63) / 64 + 2);
}

std::vector<BigInt> fold_blocks_local(std::span<const BigInt> blocks,
                                      std::size_t npts, std::size_t rc,
                                      std::size_t block_gap_local,
                                      std::size_t out_local_len) {
    assert(blocks.size() == npts * rc);
    assert((npts - 1) * block_gap_local + rc <= out_local_len);
    std::vector<BigInt> out(out_local_len);
    for (std::size_t i = 0; i < npts; ++i) {
        for (std::size_t t = 0; t < rc; ++t) {
            out[i * block_gap_local + t] += blocks[i * rc + t];
        }
    }
    return out;
}

std::vector<BigInt> local_input_digits(const BigInt& v,
                                       const ResolvedShape& shape, int nranks,
                                       int my_index) {
    std::vector<BigInt> out;
    const auto pos =
        owned_positions(shape.total_digits, 1,
                        static_cast<std::size_t>(nranks),
                        static_cast<std::size_t>(my_index));
    out.reserve(pos.size());
    const BigInt mag = v.abs();
    for (std::size_t t : pos) {
        out.push_back(mag.extract_bits(t * shape.digit_bits, shape.digit_bits));
    }
    return out;
}

std::vector<BigInt> leaf_multiply(const ToomPlan& plan,
                                  const ResolvedShape& shape,
                                  std::vector<BigInt> a_loc,
                                  std::vector<BigInt> b_loc) {
    // The leaf result must be the *carry-free* coefficient vector of the
    // product polynomial: ancestor interpolations and overlap-adds act
    // digit-wise, and their exact divisions hold only as polynomial
    // identities. Sequential Toom-Cook computes the convolution into exactly
    // twice the input length (the last coefficient stays zero).
    std::vector<BigInt> conv(2 * a_loc.size());
    toom_convolve_into(plan, a_loc, b_loc, shape.base_len, conv);
    return conv;
}

std::vector<BigInt> dist_convolve(Rank& rank, const ToomPlan& plan,
                                  const ResolvedShape& shape, const Group& g,
                                  std::size_t bs, std::vector<BigInt> a_loc,
                                  std::vector<BigInt> b_loc, std::size_t len,
                                  int dfs_left, int level) {
    // Canonical (optimal) schedule: all DFS steps first, then all BFS steps.
    int bfs = 0;
    for (std::size_t q = g.size(); q > 1;
         q /= static_cast<std::size_t>(shape.npts)) {
        ++bfs;
    }
    std::string steps(static_cast<std::size_t>(dfs_left), 'D');
    steps.append(static_cast<std::size_t>(bfs), 'B');
    return dist_convolve_steps(rank, plan, shape, g, bs, std::move(a_loc),
                               std::move(b_loc), len, steps, level);
}

std::vector<BigInt> dist_convolve_steps(Rank& rank, const ToomPlan& plan,
                                        const ResolvedShape& shape,
                                        const Group& g, std::size_t bs,
                                        std::vector<BigInt> a_loc,
                                        std::vector<BigInt> b_loc,
                                        std::size_t len,
                                        std::string_view steps, int level) {
    const std::size_t m = g.size();
    if (steps.empty()) {
        assert(m == 1 && "schedule must reach a singleton group");
        rank.phase("leaf-mul");
        rank.note_memory(words_estimate(shape, 4 * a_loc.size()));
        return leaf_multiply(plan, shape, std::move(a_loc),
                             std::move(b_loc));
    }
    const char step = steps.front();
    const std::string_view rest = steps.substr(1);

    const auto npts = static_cast<std::size_t>(shape.npts);
    const auto k = static_cast<std::size_t>(shape.k);
    const std::string lvl = std::to_string(level);
    assert(len % (k * m) == 0);
    const std::size_t s = len / k / m;      // per-block local input length
    const std::size_t rc = 2 * s;           // per-block local result length
    const std::size_t out_len = 2 * len / m;

    if (step == 'D') {
        // DFS step (Section 3): the 2k-1 sub-problems are generated and
        // solved one at a time by the whole group, with no communication.
        // The child results stream into the interpolation accumulator so
        // only one child is live at any moment (Lemma 3.1's footprint).
        std::vector<BigInt> acc(npts * rc);
        const auto& interp = plan.interpolation();
        for (std::size_t i = 0; i < npts; ++i) {
            rank.phase("eval-L" + lvl);
            const std::size_t row_idx[1] = {i};
            std::vector<BigInt> ea(s), eb(s);
            plan.evaluate_blocks(a_loc, ea, s, row_idx);
            plan.evaluate_blocks(b_loc, eb, s, row_idx);
            rank.note_memory(words_estimate(
                shape, a_loc.size() + b_loc.size() + acc.size() + 2 * s));

            auto child =
                dist_convolve_steps(rank, plan, shape, g, bs, std::move(ea),
                                    std::move(eb), len / k, rest, level + 1);
            assert(child.size() == rc);
            rank.phase("interp-L" + lvl);
            interp.accumulate_column(i, child, acc, rc);
        }
        a_loc.clear();
        b_loc.clear();
        rank.phase("interp-L" + lvl);
        interp.finalize_blocks(acc, rc);
        return fold_blocks_local(acc, npts, rc, s, out_len);
    }

    // BFS step: evaluate locally, exchange within rows, recurse inside the
    // column subgroup, exchange back, interpolate locally.
    const auto rows = base_rows(plan);
    rank.phase("eval-L" + lvl);
    std::vector<BigInt> ea(npts * s), eb(npts * s);
    plan.evaluate_blocks(a_loc, ea, s, rows);
    plan.evaluate_blocks(b_loc, eb, s, rows);
    rank.note_memory(words_estimate(
        shape, a_loc.size() + b_loc.size() + ea.size() + eb.size()));
    a_loc.clear();
    b_loc.clear();

    const int tag_base = 100 + level * 8;
    rank.phase("xfwd-L" + lvl);
    auto [a_new, b_new] = exchange_forward_pair(
        rank, g, npts, bs, std::move(ea), std::move(eb), tag_base,
        tag_base + 1);

    assert(step == 'B');
    const std::size_t col = g.index_of(rank.id()) % npts;
    const Group sub = column_subgroup(g, npts, col);
    std::vector<BigInt> child =
        dist_convolve_steps(rank, plan, shape, sub, bs * npts,
                            std::move(a_new), std::move(b_new), len / k, rest,
                            level + 1);

    rank.phase("xbwd-L" + lvl);
    assert(child.size() == npts * rc);
    std::vector<BigInt> children =
        exchange_backward(rank, g, npts, bs, std::move(child), tag_base + 2);

    rank.phase("interp-L" + lvl);
    rank.note_memory(words_estimate(shape, 2 * children.size()));
    std::vector<BigInt> coeffs(npts * rc);
    plan.interpolation().apply_blocks(children, coeffs, rc);
    return fold_blocks_local(coeffs, npts, rc, s, out_len);
}

std::vector<BigInt> bfs_sweep(Rank& rank, const ToomPlan& plan,
                              const ResolvedShape& shape,
                              std::vector<BigInt> a_loc,
                              std::vector<BigInt> b_loc,
                              const SweepHooks& hooks) {
    const auto npts = static_cast<std::size_t>(shape.npts);
    const auto k = static_cast<std::size_t>(shape.k);
    struct Level {
        Group g;
        std::size_t bs;
        std::size_t len;
    };
    std::vector<Level> levels;
    Group g = Group::strided(0, shape.processors);
    std::size_t bs = 1;
    std::size_t len = shape.total_digits;
    for (int lv = 0; lv < shape.bfs_steps; ++lv) {
        hooks.eval(lv, a_loc, b_loc);
        const std::size_t s = len / k / g.size();
        std::vector<BigInt> ea(npts * s), eb(npts * s);
        plan.evaluate_blocks(a_loc, ea, s);
        plan.evaluate_blocks(b_loc, eb, s);
        hooks.exchange(lv, a_loc.size() + b_loc.size() + ea.size() + eb.size());
        std::tie(a_loc, b_loc) = exchange_forward_pair(
            rank, g, npts, bs, std::move(ea), std::move(eb), 100 + lv * 8,
            101 + lv * 8);
        levels.push_back({g, bs, len});
        g = column_subgroup(g, npts, g.index_of(rank.id()) % npts);
        bs *= npts;
        len /= k;
    }

    hooks.leaf(a_loc, b_loc);
    std::vector<BigInt> child =
        leaf_multiply(plan, shape, std::move(a_loc), std::move(b_loc));

    for (int lv = shape.bfs_steps - 1; lv >= 0; --lv) {
        const Level& L = levels[static_cast<std::size_t>(lv)];
        const std::size_t m = L.g.size();
        const std::size_t s = L.len / k / m;
        const std::size_t rc = 2 * s;
        rank.phase("xbwd-L" + std::to_string(lv));
        std::vector<BigInt> children = exchange_backward(
            rank, L.g, npts, L.bs, std::move(child), 102 + lv * 8);
        hooks.interp(lv, children);
        std::vector<BigInt> coeffs(npts * rc);
        plan.interpolation().apply_blocks(children, coeffs, rc);
        child = fold_blocks_local(coeffs, npts, rc, s, 2 * L.len / m);
    }
    return child;
}

}  // namespace core_detail

ParallelRunResult parallel_toom_multiply(const BigInt& a, const BigInt& b,
                                         const ParallelConfig& cfg) {
    using namespace core_detail;
    FtRunResult r = run_engine(
        "parallel", a, b, cfg, {},
        [&](std::size_t n_bits) {
            ParallelConfig effective = cfg;
            if (!cfg.step_order.empty()) {
                int d = 0;
                for (char c : cfg.step_order) {
                    if (c == 'D') {
                        ++d;
                    } else if (c != 'B') {
                        throw std::invalid_argument(
                            "parallel_toom: step_order must contain only "
                            "'B'/'D'");
                    }
                }
                effective.forced_dfs_steps = d;
            }
            EngineRun run;
            run.shape = resolve_shape(effective, n_bits);
            const ResolvedShape& shape = run.shape;
            std::string steps = cfg.step_order;
            if (steps.empty()) {
                steps.assign(static_cast<std::size_t>(shape.dfs_steps), 'D');
                steps.append(static_cast<std::size_t>(shape.bfs_steps), 'B');
            } else if (std::count(steps.begin(), steps.end(), 'B') !=
                       shape.bfs_steps) {
                throw std::invalid_argument(
                    "parallel_toom: step_order must contain exactly "
                    "log_{2k-1}(P) 'B' steps");
            }
            const int P = shape.processors;
            run.spec = {P, P, P, 0, {}};
            run.body = [&a, &b, &cfg, &plan = ToomPlan::make(cfg.k), shape,
                        steps](Rank& rank, Slices& slices) {
                rank.phase("split");
                std::vector<BigInt> a_loc =
                    local_input_digits(a, shape, shape.processors, rank.id());
                std::vector<BigInt> b_loc =
                    local_input_digits(b, shape, shape.processors, rank.id());
                // Delay faults: a straggler's slowdown lands on the
                // critical path.
                for (const auto& [r, rounds] : cfg.straggler_delays) {
                    if (r == rank.id()) {
                        rank.phase("straggle");
                        rank.add_latency(rounds);
                    }
                }
                slices[static_cast<std::size_t>(rank.id())] =
                    dist_convolve_steps(rank, plan, shape,
                                        Group::strided(0, shape.processors), 1,
                                        std::move(a_loc), std::move(b_loc),
                                        shape.total_digits, steps, 0);
            };
            return run;
        });
    ParallelRunResult out;
    out.product = std::move(r.product);
    out.shape = r.shape;
    out.stats = std::move(r.stats);
    out.events = std::move(r.events);
    out.transport = r.transport;
    return out;
}

}  // namespace ftmul
