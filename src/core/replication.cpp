#include "core/replication.hpp"

#include <set>
#include <stdexcept>

#include "core/driver.hpp"

namespace ftmul {

namespace {
using namespace core_detail;
}  // namespace

EngineSpec core_detail::replication_spec(const ReplicationConfig& cfg) {
    const int P = cfg.base.processors;
    if (cfg.faults < 0) {
        throw std::invalid_argument("replication: faults must be >= 0");
    }
    if (exact_log(static_cast<std::uint64_t>(P),
                  static_cast<std::uint64_t>(2 * cfg.base.k - 1)) < 0) {
        throw std::invalid_argument(
            "replication: processors must be a power of 2k-1");
    }
    // f+1 replicas of P ranks; any phase dooms a replica, and "split" is
    // one every rank passes.
    const int world = (cfg.faults + 1) * P;
    return {P, world, P, world, {"split"}};
}

FtRunResult replicated_toom_multiply(const BigInt& a, const BigInt& b,
                                     const ReplicationConfig& cfg,
                                     const FaultPlan& plan) {
    return run_engine("replication", a, b, cfg.base, plan, [&](std::size_t n_bits) {
        EngineRun run{replication_spec(cfg), {}, {}};
        const int P = run.spec.processors;
        const int replicas = run.spec.world / P;

        // A fault anywhere dooms its replica. A plan hitting every replica
        // is unrecoverable — no clean copy survives to supply the product.
        std::set<int> doomed;
        std::set<int> scheduled;
        std::vector<int> dead_ranks;
        for (const auto& [phase, rank] : plan.all()) {
            if (!run.spec.covers_rank(rank)) {
                throw UnrecoverableFault(
                    "replication", phase, {rank},
                    "fault rank out of range for world size " +
                        std::to_string(run.spec.world));
            }
            doomed.insert(rank / P);
            scheduled.insert(rank);
            dead_ranks.push_back(rank);
        }
        if (static_cast<int>(doomed.size()) >= replicas) {
            throw UnrecoverableFault(
                "replication",
                plan.all().empty() ? "" : plan.all().front().first, dead_ranks,
                "all " + std::to_string(replicas) +
                    " replicas are hit; no clean copy survives");
        }
        int winner = 0;
        while (doomed.count(winner)) ++winner;

        run.shape = resolve_shape(cfg.base, n_bits);
        run.body = [&a, &b, &tplan = ToomPlan::make(cfg.base.k), P, doomed,
                    scheduled, winner,
                    shape = run.shape](Rank& rank, Slices& slices) {
            const int replica = rank.id() / P;
            const int local_id = rank.id() % P;

            // Doomed replicas halt up front: the fault model is coarse —
            // any scheduled fault kills the copy — which only *understates*
            // the replication overhead the coded algorithms are compared
            // against.
            if (doomed.count(replica)) {
                if (scheduled.count(rank.id())) rank.note_fault();
                rank.phase("halted");
                return;
            }

            rank.phase("split");
            std::vector<BigInt> a_loc = local_input_digits(a, shape, P, local_id);
            std::vector<BigInt> b_loc = local_input_digits(b, shape, P, local_id);
            auto out = dist_convolve(rank, tplan, shape,
                                     Group::strided(replica * P, P), 1,
                                     std::move(a_loc), std::move(b_loc),
                                     shape.total_digits, shape.dfs_steps, 0);
            if (replica == winner) {
                slices[static_cast<std::size_t>(local_id)] = std::move(out);
            }
        };
        return run;
    });
}

}  // namespace ftmul
