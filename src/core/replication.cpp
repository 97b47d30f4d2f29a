#include "core/replication.hpp"
#include "runtime/metrics.hpp"

#include <cassert>
#include <set>
#include <stdexcept>

#include "core/layout.hpp"
#include "toom/digits.hpp"

namespace ftmul {

namespace {
using core_detail::dist_convolve;
using core_detail::local_input_digits;
}  // namespace

FtRunResult replicated_toom_multiply(const BigInt& a, const BigInt& b,
                                     const ReplicationConfig& cfg,
                                     const FaultPlan& plan) {
    const EngineRunScope metrics_scope("replication");
    const int P = cfg.base.processors;
    const int f = cfg.faults;
    if (f < 0) throw std::invalid_argument("replication: faults must be >= 0");
    const int replicas = f + 1;
    const int world = replicas * P;

    // A fault anywhere dooms its replica. A plan hitting every replica is
    // unrecoverable — no clean copy survives to supply the product.
    std::set<int> doomed;
    std::vector<int> dead_ranks;
    for (const auto& [phase, rank] : plan.all()) {
        if (rank < 0 || rank >= world) {
            throw UnrecoverableFault(
                "replication", phase, {rank},
                "fault rank out of range for world size " +
                    std::to_string(world));
        }
        doomed.insert(rank / P);
        dead_ranks.push_back(rank);
    }
    if (static_cast<int>(doomed.size()) >= replicas) {
        throw UnrecoverableFault(
            "replication", plan.all().empty() ? "" : plan.all().front().first,
            dead_ranks,
            "all " + std::to_string(replicas) +
                " replicas are hit; no clean copy survives");
    }
    int winner = 0;
    while (doomed.count(winner)) ++winner;

    FtRunResult result;
    result.shape =
        resolve_shape(cfg.base, std::max(a.bit_length(), b.bit_length()));
    const ResolvedShape& shape = result.shape;
    result.extra_processors = world - P;
    result.faults_injected = static_cast<int>(plan.total_faults());
    if (a.is_zero() || b.is_zero()) return result;

    const ToomPlan& tplan = ToomPlan::make(cfg.base.k);
    Machine machine(world, plan);
    if (cfg.base.events) machine.enable_event_log();
    core_detail::arm_transport(machine, cfg.base);
    std::vector<std::vector<BigInt>> slices(static_cast<std::size_t>(P));

    std::set<int> scheduled;
    for (const auto& [phase, rank] : plan.all()) {
        (void)phase;
        scheduled.insert(rank);
    }

    machine.run([&](Rank& rank) {
        const int replica = rank.id() / P;
        const int local_id = rank.id() % P;

        // Doomed replicas halt up front: the fault model is coarse — any
        // scheduled fault kills the copy — which only *understates* the
        // replication overhead the coded algorithms are compared against.
        if (doomed.count(replica)) {
            if (scheduled.count(rank.id())) rank.note_fault();
            rank.phase("halted");
            return;
        }

        rank.phase("split");
        std::vector<BigInt> a_loc = local_input_digits(a, shape, P, local_id);
        std::vector<BigInt> b_loc = local_input_digits(b, shape, P, local_id);
        Group g = Group::strided(replica * P, P);
        auto out = dist_convolve(rank, tplan, shape, g, 1, std::move(a_loc),
                                 std::move(b_loc), shape.total_digits,
                                 shape.dfs_steps, 0);
        if (replica == winner) {
            slices[static_cast<std::size_t>(local_id)] = std::move(out);
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
