#include "core/checkpoint.hpp"
#include "runtime/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <tuple>

#include "core/layout.hpp"
#include "toom/digits.hpp"

namespace ftmul {

namespace {

using core_detail::leaf_multiply;
using core_detail::local_input_digits;

constexpr const char* kEvalPhase = "eval-L0";
constexpr const char* kLeafPhase = "leaf-mul";
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

int buddy_of(int rank, int p) { return (rank + 1) % p; }

}  // namespace

FtRunResult checkpoint_toom_multiply(const BigInt& a, const BigInt& b,
                                     const CheckpointConfig& cfg,
                                     const FaultPlan& plan) {
    const EngineRunScope metrics_scope("checkpoint");
    const int k = cfg.base.k;
    const int npts = 2 * k - 1;
    const int P = cfg.base.processors;
    const int bfs = exact_log(static_cast<std::uint64_t>(P),
                              static_cast<std::uint64_t>(npts));
    if (bfs < 1) {
        throw std::invalid_argument(
            "checkpoint: processors must be a power of 2k-1, at least 2k-1");
    }
    if (cfg.base.forced_dfs_steps > 0) {
        throw std::invalid_argument(
            "checkpoint: only the unlimited-memory case is supported");
    }

    // Validate the fault plan: protected phases only; a rank and its buddy
    // must not die at the same phase (the classic diskless-checkpoint
    // limitation). Violations are unrecoverable fault sets, not
    // misconfigurations — raise the typed exception so callers can escalate.
    std::map<std::string, std::vector<int>> faults;
    for (const auto& [phase, rank] : plan.all()) {
        if (phase != kEvalPhase && phase != kLeafPhase &&
            phase != kInterpPhase) {
            throw UnrecoverableFault(
                "checkpoint", phase, {rank},
                "faults are only tolerated at the checkpointed boundaries "
                "eval-L0, leaf-mul and interp-L0");
        }
        if (rank < 0 || rank >= P) {
            throw UnrecoverableFault(
                "checkpoint", phase, {rank},
                "fault rank out of range for world size " + std::to_string(P));
        }
        faults[phase].push_back(rank);
    }
    for (auto& [phase, dead] : faults) {
        std::sort(dead.begin(), dead.end());
        for (int d : dead) {
            if (std::binary_search(dead.begin(), dead.end(), buddy_of(d, P))) {
                throw UnrecoverableFault(
                    "checkpoint", phase, dead,
                    "rank " + std::to_string(d) + " and its buddy " +
                        std::to_string(buddy_of(d, P)) +
                        " fail at the same phase — the buddy checkpoint is "
                        "lost with its holder");
            }
        }
    }

    FtRunResult result;
    {
        ParallelConfig geo = cfg.base;
        geo.forced_dfs_steps = 0;
        result.shape =
            resolve_shape(geo, std::max(a.bit_length(), b.bit_length()));
    }
    const ResolvedShape& shape = result.shape;
    result.extra_processors = 0;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan& tplan = ToomPlan::make(k);
    Machine machine(P, plan);
    if (cfg.base.events) machine.enable_event_log();
    core_detail::arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(P));
    const auto unpts = static_cast<std::size_t>(npts);
    const std::size_t N = shape.total_digits;

    machine.run([&](Rank& rank) {
        const int me = rank.id();
        const int buddy = buddy_of(me, P);
        const int ward = (me + P - 1) % P;  // the rank whose state I keep

        std::vector<BigInt> ward_copy;  // the last checkpoint I hold

        // Take a checkpoint: swap states with the neighbors.
        auto checkpoint = [&](const char* name, int tag,
                              const std::vector<BigInt>& state) {
            rank.phase(name);
            rank.send_bigints(buddy, tag, state);
            ward_copy = rank.recv_bigints(ward, tag);
            rank.add_latency(1);
        };

        // Rollback protocol at a protected phase: buddies of the dead
        // re-send the stored checkpoint; the dead rank restores it.
        auto restore = [&](const char* phase, int tag, bool i_fail,
                           std::vector<BigInt>& state) {
            auto it = faults.find(phase);
            if (it == faults.end()) return;
            const auto& dead = it->second;
            const bool ward_died =
                std::binary_search(dead.begin(), dead.end(), ward);
            if (!i_fail && !ward_died) return;
            rank.phase(std::string("restore-") + phase);
            rank.begin_recovery(dead);
            if (ward_died) rank.send_bigints(ward, tag, ward_copy);
            if (i_fail) {
                state.clear();  // data lost
                state = rank.recv_bigints(buddy, tag);
            }
            rank.end_recovery();
            rank.phase(std::string(phase) + "+post-restore");
        };

        rank.phase("split");
        std::vector<BigInt> a_loc = local_input_digits(a, shape, P, me);
        std::vector<BigInt> b_loc = local_input_digits(b, shape, P, me);

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

        std::vector<BigInt> state = pack(a_loc, b_loc);
        checkpoint("ckpt-input", 700, state);
        const bool fail_eval = rank.phase(kEvalPhase);
        restore(kEvalPhase, 710, fail_eval, state);
        if (fail_eval) unpack(std::move(state), a_loc, b_loc);
        state.clear();

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
            const std::string lvl = std::to_string(lv);
            if (lv > 0) rank.phase("eval-L" + lvl);
            const std::size_t m = g.size();
            const std::size_t s = len / static_cast<std::size_t>(k) / m;
            std::vector<BigInt> ea(unpts * s), eb(unpts * s);
            tplan.evaluate_blocks(a_loc, ea, s);
            tplan.evaluate_blocks(b_loc, eb, s);
            rank.phase("xfwd-L" + lvl);
            std::tie(a_loc, b_loc) = exchange_forward_pair(
                rank, g, unpts, bs, std::move(ea), std::move(eb),
                100 + lv * 8, 101 + lv * 8);
            levels.push_back({g, bs, len});
            g = column_subgroup(g, unpts, g.index_of(me) % unpts);
            bs *= unpts;
            len /= static_cast<std::size_t>(k);
        }

        state = pack(a_loc, b_loc);
        checkpoint("ckpt-leaf", 720, state);
        const bool fail_leaf = rank.phase(kLeafPhase);
        restore(kLeafPhase, 730, fail_leaf, state);
        if (fail_leaf) {
            // Rollback + replay: redo the lost multiplication.
            unpack(std::move(state), a_loc, b_loc);
        }
        state.clear();
        std::vector<BigInt> child = leaf_multiply(
            tplan, shape, std::move(a_loc), std::move(b_loc));

        for (int lv = bfs - 1; lv >= 0; --lv) {
            const Level& L = levels[static_cast<std::size_t>(lv)];
            const std::string lvl = std::to_string(lv);
            const std::size_t m = L.g.size();
            const std::size_t s = L.len / static_cast<std::size_t>(k) / m;
            const std::size_t rc = 2 * s;
            rank.phase("xbwd-L" + lvl);
            std::vector<BigInt> children = exchange_backward(
                rank, L.g, unpts, L.bs, std::move(child), 102 + lv * 8);

            if (lv == 0) {
                checkpoint("ckpt-children", 740, children);
                const bool fail_interp = rank.phase(kInterpPhase);
                restore(kInterpPhase, 750, fail_interp, children);
            } else {
                rank.phase("interp-L" + lvl);
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
        slices[static_cast<std::size_t>(me)] = std::move(child);
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
