// Data-plane bench: message-heavy collective and all-to-all workloads run
// end to end on a warm Machine (recycled PayloadBufs, sharded mailboxes,
// fused frames). The name and row names date from the pooled-vs-legacy A/B
// this bench ran until the seed transport was removed; they are kept so the
// committed baseline stays comparable.
//
// The JSON report carries only the deterministic machine-model counters,
// diffed against bench/baselines/BENCH_collectives_ab.json in CI.
// Wall-clock and pool-allocation numbers go to stdout. The bench fails when
// the warmed-up runs allocate fresh buffers for more than 5% of pool
// acquires: steady state must run out of the pool.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"

#include "bigint/bigint.hpp"
#include "runtime/collectives.hpp"
#include "runtime/machine.hpp"
#include "runtime/msg_pool.hpp"

namespace ftmul {
namespace {

struct Config {
    const char* name;
    int P;           ///< ranks
    int rounds;      ///< repetitions of the exchange pattern
    std::size_t W;   ///< BigInts per message
    std::size_t bits;  ///< size of each BigInt
    std::size_t raw_words = 0;  ///< nonzero: raw word messages, no BigInts
};

/// The message-heavy body: every round, all-to-all BigInt exchange plus an
/// allreduce and an allgather — the collective mix the FT engines drive.
void body(Rank& r, const Config& cfg) {
    const Group g = Group::strided(0, cfg.P);
    r.phase("ab-exchange");
    if (cfg.raw_words != 0) {
        // Pure transport stress: storms of small raw messages staged in
        // recycled PayloadBufs, no BigInt work to amortize the per-message
        // overhead.
        for (int round = 0; round < cfg.rounds; ++round) {
            for (int k = 0; k < 4; ++k) {
                const int tag = (round * 4 + k) % 16;
                for (int peer = 0; peer < cfg.P; ++peer) {
                    if (peer == r.id()) continue;
                    PayloadBuf b = MsgPool::instance().acquire(cfg.raw_words);
                    b.storage().assign(cfg.raw_words,
                                       static_cast<std::uint64_t>(tag));
                    r.send_buf(peer, tag, std::move(b));
                }
                for (int peer = 0; peer < cfg.P; ++peer) {
                    if (peer == r.id()) continue;
                    PayloadBuf got = r.recv_buf(peer, tag);
                    if (got.size() != cfg.raw_words) std::abort();
                }
            }
        }
        return;
    }
    std::vector<BigInt> vals;
    for (std::size_t i = 0; i < cfg.W; ++i) {
        vals.push_back(BigInt{static_cast<std::int64_t>(r.id() * 131 + 7)}
                       << (cfg.bits - 1));
    }
    for (int round = 0; round < cfg.rounds; ++round) {
        for (int peer = 0; peer < cfg.P; ++peer) {
            if (peer == r.id()) continue;
            r.send_bigints(peer, round % 16, vals);
        }
        for (int peer = 0; peer < cfg.P; ++peer) {
            if (peer == r.id()) continue;
            auto got = r.recv_bigints(peer, round % 16);
            if (got.size() != cfg.W) std::abort();
        }
        std::vector<BigInt> acc(4, BigInt{r.id() + 1});
        acc = allreduce_sum(r, g, std::move(acc), 100);
        (void)allgather(r, g, {BigInt{r.id()} << 64}, 101);
    }
}

struct Result {
    double best_ms = 1e30;
    RunStats stats;
    std::uint64_t fresh = 0;     ///< pool misses across all timed reps
    std::uint64_t acquires = 0;  ///< pooled acquires across all timed reps
};

/// One Machine reused across reps (threads parked, pool thread caches
/// warm): the timing isolates the data plane, not machine setup.
Result measure(const Config& cfg, int reps) {
    Result out;
    Machine m(cfg.P);
    m.run([&](Rank& r) { body(r, cfg); });  // warmup
    out.stats = m.stats();
    const auto before = MsgPool::stats();
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        m.run([&](Rank& r) { body(r, cfg); });
        const auto t1 = std::chrono::steady_clock::now();
        out.best_ms = std::min(
            out.best_ms,
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    const auto after = MsgPool::stats();
    out.fresh = after.fresh_allocs - before.fresh_allocs;
    out.acquires = after.acquires - before.acquires;
    return out;
}

}  // namespace
}  // namespace ftmul

int main() {
    using namespace ftmul;
    const Config configs[] = {
        {"msg-storm", 8, 60, 0, 0, /*raw_words=*/16},
        {"msg-storm-wide", 16, 25, 0, 0, /*raw_words=*/16},
        {"msg-storm-huge", 32, 8, 0, 0, /*raw_words=*/16},
        {"small-msgs", 8, 30, 8, 256},
        {"medium-msgs", 8, 20, 16, 2048},
        {"wide-world", 16, 10, 8, 1024},
        {"large-payload", 4, 10, 32, 8192},
    };

    std::printf("Data-plane bench: cost-model charges and steady-state pool "
                "allocations on a warm Machine.\n");
    std::printf("%-14s %3s %6s %5s | %10s | %12s %12s\n", "config", "P",
                "rnds", "W", "pooled_ms", "fresh_allocs", "msgs");

    std::vector<bench::Row> rows;
    bool ok = true;
    for (const Config& cfg : configs) {
        const Result res = measure(cfg, 3);
        std::printf("%-14s %3d %6d %5zu | %10.2f | %12llu %12llu\n", cfg.name,
                    cfg.P, cfg.rounds, cfg.W, res.best_ms,
                    static_cast<unsigned long long>(res.fresh),
                    static_cast<unsigned long long>(res.stats.aggregate.msgs));
        // Steady state must run out of the pool: the warmed-up timed runs
        // may allocate at most a trickle (spill-pool overflow under
        // transient imbalance), never per message.
        if (res.acquires > 0 && res.fresh * 20 > res.acquires) {
            std::printf("FAIL: %s allocated %llu/%llu acquires in steady "
                        "state\n",
                        cfg.name, static_cast<unsigned long long>(res.fresh),
                        static_cast<unsigned long long>(res.acquires));
            ok = false;
        }
        rows.push_back(bench::stats_row(
            std::string("ab/") + cfg.name + "/P=" + std::to_string(cfg.P) +
                ",rounds=" + std::to_string(cfg.rounds) +
                ",W=" + std::to_string(cfg.W),
            res.stats, cfg.P, 0, 0, true));
    }

    bench::JsonReport report("collectives_ab");
    report.add_table(
        "Data-plane A/B: cost-model charges (identical across planes)", rows,
        0);
    report.write();
    return ok ? 0 : 1;
}
