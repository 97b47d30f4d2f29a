#pragma once

// Shared pieces of the end-to-end benchmark: workload generation, the
// closed-loop service client, the independent product check and the traced
// per-layer run. See README.md in this directory.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.hpp"
#include "service/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Residues modulo the primes 2^61 - 1 and 2^61 - 31, computed by this
/// benchmark's own loop over the limbs: the product check shares no code
/// with the library's multiply paths.
struct Residues {
    std::uint64_t r[2] = {0, 0};
    bool operator==(const Residues&) const = default;
};
Residues residues(const ftmul::BigInt& v);
Residues residue_product(const Residues& a, const Residues& b);

struct Item {
    ftmul::BigInt a;
    ftmul::BigInt b;
    ftmul::ReliabilityClass cls = ftmul::ReliabilityClass::Fast;
    Residues expect;  ///< residues of a*b
};

/// One workload: the request list of a pass (generated from the seed
/// before timing starts) and how the client drives it.
struct Workload {
    std::string name;
    std::vector<Item> items;
    std::size_t window = 1;  ///< requests the client keeps outstanding
    ftmul::ServiceConfig config;
    /// A fresh service per pass restarts request ids at 0, so chaos faults
    /// (keyed by request id) repeat identically in every pass.
    bool service_per_pass = false;
    std::uint64_t sample_every = 64;  ///< 1 in N products recomputed in full
    std::uint64_t seed = 0;
    std::size_t warmup_requests = 0;
};

/// Throws std::invalid_argument on an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The client's view of one request.
struct Record {
    std::uint32_t item = 0;
    double sent_us = 0;     ///< submit time, relative to the run start
    double submit_us = 0;   ///< duration of the submit() call
    double latency_us = 0;  ///< submit to reply
    bool completed = false;
    int attempts = 0;
    ftmul::CostCounters critical;
    ftmul::CostCounters aggregate;
    Residues got;
};

/// Receives each pass's records, in submission order, when the pass's last
/// reply is in, with the wall and program CPU seconds since the run started.
/// Program CPU is process CPU minus the client's own residue reductions.
using PassSink =
    std::function<void(std::span<const Record> pass, double end_s, double end_cpu_s)>;

struct ServiceRun {
    /// (item, product) of the seeded full-recompute sample; at most
    /// kMaxSamples, so the run's memory does not grow with its length.
    static constexpr std::size_t kMaxSamples = 64;
    std::vector<std::pair<std::uint32_t, ftmul::BigInt>> samples;
    std::size_t passes = 0;
    std::size_t requests = 0;
    double wall_s = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;
    std::uint64_t queue_depth_peak = 0;
};

/// Drive whole passes of w.items through MultiplyService from this thread
/// (closed loop, w.window outstanding, 60 s deadlines that never fire)
/// until `seconds` have elapsed, `max_passes` passes ran, or — when
/// `max_requests` is nonzero — that many requests were sent. Only the
/// records of the passes in flight are kept; each finished pass goes to
/// `sink`.
ServiceRun run_service(const Workload& w, double seconds, std::size_t max_passes,
                       std::size_t max_requests = 0, const PassSink& sink = {});

/// What must repeat exactly in every pass of one seed.
struct PassSignature {
    std::uint64_t completed = 0;
    std::uint64_t attempts = 0;
    std::uint64_t msgs = 0;
    std::uint64_t words = 0;
    std::uint64_t limb_ops = 0;
    bool operator==(const PassSignature&) const = default;
};

/// The checks, fed pass by pass; none of them runs inside a timed region.
struct Check {
    std::uint64_t not_completed = 0;
    std::uint64_t wrong = 0;            ///< residue mismatches
    std::uint64_t sample_checked = 0;
    std::uint64_t sample_mismatch = 0;  ///< full recompute disagreed
    bool deterministic = true;
    bool has_signature = false;
    PassSignature signature;            ///< of the first full pass

    /// Residue comparison and, for a full pass, the signature comparison.
    void add_pass(const Workload& w, std::span<const Record> pass);
    /// Full toom_multiply recompute of the run's sampled products.
    void add_samples(const Workload& w, const ServiceRun& run);
    std::uint64_t failed() const { return not_completed + wrong + sample_mismatch; }
};

/// Per-block figures over blocks of consecutive passes lasting at least
/// `block_s` seconds each: requests per second, program CPU milliseconds per
/// request, and the p50/p90 latency of the block's requests. Only the open
/// block's latencies are held. Blocks never span two segments (two
/// run_service calls).
class Blocks {
public:
    explicit Blocks(double block_s) : block_s_(block_s) {}
    void add_pass(std::span<const Record> pass, double end_s, double end_cpu_s);
    /// Ends a segment: the next pass's times count from a new run start.
    void end_segment();

    std::vector<double> rps;
    std::vector<double> cpu_ms;
    std::vector<double> p50_ms;
    std::vector<double> p90_ms;
    std::uint64_t samples = 0;  ///< latency samples over all blocks

private:
    void close(double end_s, double end_cpu_s);
    double block_s_;
    double t_prev_ = 0;
    double cpu_prev_ = 0;
    double last_end_s_ = 0;
    double last_end_cpu_s_ = 0;
    std::size_t closed_ = 0;  ///< blocks closed before this segment
    std::uint64_t requests_ = 0;
    std::vector<double> lat_ms_;
};

double cpu_seconds();
double peak_rss_mb();
/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// One printed metric.
struct Metric {
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The traced run: per-layer metrics of workload w. Lines starting with
/// '#' go to stdout as it runs; `check` receives the correctness and
/// determinism verdicts of the traced service passes and the replay.
Metrics traced_run(const Workload& w, double seconds, const std::string& trace_out,
                   Check& check, std::uint64_t& attempted);

}  // namespace perfbench
