#include "core/checkpoint.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/driver.hpp"

namespace ftmul {

namespace {

using namespace core_detail;

constexpr const char* kEvalPhase = "eval-L0";
constexpr const char* kLeafPhase = "leaf-mul";
constexpr const char* kInterpPhase = "interp-L0";

int buddy_of(int rank, int p) { return (rank + 1) % p; }

}  // namespace

EngineSpec core_detail::checkpoint_spec(const CheckpointConfig& cfg) {
    const int P = cfg.base.processors;
    if (exact_log(static_cast<std::uint64_t>(P),
                  static_cast<std::uint64_t>(2 * cfg.base.k - 1)) < 1) {
        throw std::invalid_argument(
            "checkpoint: processors must be a power of 2k-1, at least 2k-1");
    }
    if (cfg.base.forced_dfs_steps > 0) {
        throw std::invalid_argument(
            "checkpoint: only the unlimited-memory case is supported");
    }
    return {P, P, P, P, {kEvalPhase, kLeafPhase, kInterpPhase}};
}

FtRunResult checkpoint_toom_multiply(const BigInt& a, const BigInt& b,
                                     const CheckpointConfig& cfg,
                                     const FaultPlan& plan) {
    return run_engine("checkpoint", a, b, cfg.base, plan, [&](std::size_t n_bits) {
        EngineRun run{checkpoint_spec(cfg), {}, {}};
        const int P = run.spec.processors;

        // Validate the fault plan: protected phases only; a rank and its
        // buddy must not die at the same phase (the classic
        // diskless-checkpoint limitation). Violations are unrecoverable
        // fault sets, not misconfigurations — raise the typed exception so
        // callers can escalate.
        std::map<std::string, std::vector<int>> faults;
        for (const auto& [phase, rank] : plan.all()) {
            if (!run.spec.covers_phase(phase)) {
                throw UnrecoverableFault(
                    "checkpoint", phase, {rank},
                    "faults are only tolerated at the checkpointed boundaries "
                    "eval-L0, leaf-mul and interp-L0");
            }
            if (!run.spec.covers_rank(rank)) {
                throw UnrecoverableFault(
                    "checkpoint", phase, {rank},
                    "fault rank out of range for world size " +
                        std::to_string(P));
            }
            faults[phase].push_back(rank);
        }
        for (auto& [phase, dead] : faults) {
            std::sort(dead.begin(), dead.end());
            for (int d : dead) {
                if (std::binary_search(dead.begin(), dead.end(),
                                       buddy_of(d, P))) {
                    throw UnrecoverableFault(
                        "checkpoint", phase, dead,
                        "rank " + std::to_string(d) + " and its buddy " +
                            std::to_string(buddy_of(d, P)) +
                            " fail at the same phase — the buddy checkpoint "
                            "is lost with its holder");
                }
            }
        }

        ParallelConfig geo = cfg.base;
        geo.forced_dfs_steps = 0;
        run.shape = resolve_shape(geo, n_bits);
        run.body = [&a, &b, &tplan = ToomPlan::make(cfg.base.k), P, faults,
                    shape = run.shape](Rank& rank, Slices& slices) {
            const int me = rank.id();
            const int buddy = buddy_of(me, P);
            const int ward = (me + P - 1) % P;  // the rank whose state I keep
            std::vector<BigInt> ward_copy;      // the last checkpoint I hold

            // Take a checkpoint, roll back if the plan kills this rank or its
            // ward at the protected phase: the buddies of the dead re-send
            // the stored checkpoint and each dead rank restores it.
            auto protect = [&](const char* name, const char* phase, int tag,
                               std::vector<BigInt>& state) -> bool {
                rank.phase(name);
                rank.send_bigints(buddy, tag, state);
                ward_copy = rank.recv_bigints(ward, tag);
                rank.add_latency(1);

                const bool i_fail = rank.phase(phase);
                auto it = faults.find(phase);
                if (it == faults.end()) return i_fail;
                const auto& dead = it->second;
                const bool ward_died =
                    std::binary_search(dead.begin(), dead.end(), ward);
                if (!i_fail && !ward_died) return i_fail;
                rank.phase(std::string("restore-") + phase);
                rank.begin_recovery(dead);
                if (ward_died) rank.send_bigints(ward, tag + 10, ward_copy);
                if (i_fail) {
                    state.clear();  // data lost
                    state = rank.recv_bigints(buddy, tag + 10);
                }
                rank.end_recovery();
                rank.phase(std::string(phase) + "+post-restore");
                return i_fail;
            };
            // Rollback + replay: a failed rank redoes the lost phase from
            // its restored inputs.
            auto protect_pair = [&](const char* name, const char* phase,
                                    int tag, std::vector<BigInt>& x,
                                    std::vector<BigInt>& y) {
                std::vector<BigInt> state = pack(x, y);
                if (protect(name, phase, tag, state)) {
                    unpack(std::move(state), x, y);
                }
            };

            rank.phase("split");
            SweepHooks hooks;
            hooks.eval = [&](int lv, std::vector<BigInt>& x,
                             std::vector<BigInt>& y) {
                if (lv == 0) {
                    protect_pair("ckpt-input", kEvalPhase, 700, x, y);
                } else {
                    rank.phase("eval-L" + std::to_string(lv));
                }
            };
            hooks.exchange = [&](int lv, std::size_t) {
                rank.phase("xfwd-L" + std::to_string(lv));
            };
            hooks.leaf = [&](std::vector<BigInt>& x, std::vector<BigInt>& y) {
                protect_pair("ckpt-leaf", kLeafPhase, 720, x, y);
            };
            hooks.interp = [&](int lv, std::vector<BigInt>& children) {
                if (lv == 0) {
                    protect("ckpt-children", kInterpPhase, 740, children);
                } else {
                    rank.phase("interp-L" + std::to_string(lv));
                }
            };
            slices[static_cast<std::size_t>(me)] = bfs_sweep(
                rank, tplan, shape, local_input_digits(a, shape, P, me),
                local_input_digits(b, shape, P, me), hooks);
        };
        return run;
    });
}

}  // namespace ftmul
