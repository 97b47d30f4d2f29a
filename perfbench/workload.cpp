#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>

#include "bigint/random.hpp"
#include "perfbench.hpp"
#include "toom/sequential.hpp"

namespace perfbench {

using ftmul::BigInt;
using ftmul::ReliabilityClass;

namespace {

constexpr std::uint64_t kDelta[2] = {1, 31};
constexpr std::uint64_t kTwo61 = std::uint64_t{1} << 61;
using u128 = unsigned __int128;

/// x mod (2^61 - d), folding 2^61 = d until x fits in 61 bits.
std::uint64_t reduce(u128 x, std::uint64_t d) {
    const std::uint64_t p = kTwo61 - d;
    while (x >> 61) x = (x >> 61) * d + (x & (kTwo61 - 1));
    auto r = static_cast<std::uint64_t>(x);
    return r >= p ? r - p : r;
}

std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Operand bit lengths, and chaos_recovery's faults, come from this fixed
/// stream, not from the seed, so every seed gets the same sizes and the same
/// work per pass (seed-drawn sizes moved small_pipelined throughput by up to
/// 10% between seeds). The seed picks the operand values and, on
/// small_pipelined, their order.
constexpr std::uint64_t kFixedStream = 0x51e5u;

/// `count` log-uniform bit lengths in [lo, hi], stratified: one draw per
/// equal-probability stratum, in shuffled order.
std::vector<std::size_t> log_uniform_bits(ftmul::Rng& rng, std::size_t count,
                                          std::size_t lo, std::size_t hi) {
    const double llo = std::log(static_cast<double>(lo));
    const double lhi = std::log(static_cast<double>(hi) + 1.0);
    std::vector<std::size_t> bits(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double u = (static_cast<double>(i) +
                          static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53) /
                         static_cast<double>(count);
        bits[i] = std::clamp(static_cast<std::size_t>(std::exp(llo + u * (lhi - llo))), lo, hi);
    }
    for (std::size_t i = count; i > 1; --i) std::swap(bits[i - 1], bits[rng.next_below(i)]);
    return bits;
}

/// 0 .. count-1 in shuffled order.
std::vector<std::size_t> shuffled(ftmul::Rng& rng, std::size_t count) {
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    for (std::size_t i = count; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
    return order;
}

Item make_item(BigInt a, BigInt b, ReliabilityClass cls) {
    Item it;
    it.expect = residue_product(residues(a), residues(b));
    it.a = std::move(a);
    it.b = std::move(b);
    it.cls = cls;
    return it;
}

}  // namespace

Residues residues(const BigInt& v) {
    Residues out;
    const auto& limbs = v.magnitude();
    for (int k = 0; k < 2; ++k) {
        std::uint64_t r = 0;
        for (auto it = limbs.rbegin(); it != limbs.rend(); ++it) {
            r = reduce((u128{r} << 64) | *it, kDelta[k]);
        }
        if (v.is_negative() && r != 0) r = (kTwo61 - kDelta[k]) - r;
        out.r[k] = r;
    }
    return out;
}

Residues residue_product(const Residues& a, const Residues& b) {
    Residues out;
    for (int k = 0; k < 2; ++k) {
        out.r[k] = reduce(u128{a.r[k]} * b.r[k], kDelta[k]);
    }
    return out;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
    Workload w;
    w.name = name;
    w.seed = seed;
    ftmul::Rng sizes(kFixedStream);
    ftmul::Rng rng(mix(seed));
    if (name == "small_pipelined") {
        // Every class plans `sequential` below 4096 bits, so requests batch;
        // sizes straddle the 2048-bit Toom threshold.
        constexpr std::size_t kPairs = 2048;
        const std::vector<std::size_t> bits_a = log_uniform_bits(sizes, kPairs, 128, 4095);
        const std::vector<std::size_t> bits_b = log_uniform_bits(sizes, kPairs, 128, 4095);
        for (std::size_t i : shuffled(rng, kPairs)) {
            BigInt a = ftmul::random_bits(rng, bits_a[i]);
            BigInt b = ftmul::random_bits(rng, bits_b[i]);
            w.items.push_back(make_item(std::move(a), std::move(b),
                                        ReliabilityClass::Fast));
        }
        w.window = 32;
        w.config.executors = 2;
        w.config.max_batch = 8;
        w.config.queue_capacity = 64;
        w.sample_every = 256;
        w.warmup_requests = 1024;
        return w;
    }
    if (name == "chaos_recovery") {
        // Each pair is served once per class, in an order rotating by pair.
        // Sizes, their order and the fault stream are fixed: faults are keyed
        // by request id, so every pass and every seed repeats the same
        // recovery work at the same sizes; the seed picks operand values.
        constexpr ReliabilityClass kClasses[3] = {
            ReliabilityClass::Fast, ReliabilityClass::FastRedundant,
            ReliabilityClass::Verified};
        constexpr std::size_t kPairs = 40;
        std::vector<std::size_t> bits = log_uniform_bits(sizes, kPairs, 8192, 32768);
        // The warm-up serves the first two pairs; pinning them to the largest
        // and the smallest size keeps set-up work the same for every seed.
        bits[0] = 32768;
        bits[1] = 8192;
        for (std::size_t i = 0; i < kPairs; ++i) {
            const BigInt a = ftmul::random_bits(rng, bits[i]);
            const BigInt b = ftmul::random_bits(rng, bits[i]);
            for (int j = 0; j < 3; ++j) {
                w.items.push_back(make_item(a, b, kClasses[(i + j) % 3]));
            }
        }
        w.window = 1;
        w.config.executors = 1;
        w.config.max_batch = 1;
        w.config.queue_capacity = 4;
        w.service_per_pass = true;
        w.sample_every = 16;
        w.warmup_requests = 6;
        w.config.chaos.enabled = true;
        w.config.chaos.seed = mix(kFixedStream ^ 0xc4a05ull);
        w.config.chaos.hard_rate = 0.08;
        w.config.chaos.msg_corrupt_rate = 0.02;
        w.config.chaos.msg_drop_rate = 0.02;
        w.config.chaos.msg_dup_rate = 0.02;
        w.config.chaos.msg_reorder_rate = 0.02;
        return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

struct Slot {
    std::future<ftmul::MultiplyOutcome> fut;
    Clock::time_point sent;
    Clock::time_point done;
    bool stamped = false;
    std::size_t rec = 0;
};

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ServiceRun run_service(const Workload& w, double seconds, std::size_t max_passes,
                       std::size_t max_requests, const PassSink& sink) {
    ServiceRun run;
    const std::size_t n = w.items.size();
    std::unique_ptr<ftmul::MultiplyService> svc;
    auto retire_service = [&] {
        if (!svc) return;
        svc->shutdown(true);
        const ftmul::ServiceStats s = svc->stats();
        run.batches += s.batches;
        run.batched_requests += s.batched_requests;
        run.queue_depth_peak = std::max(run.queue_depth_peak, s.queue_depth_peak);
        svc.reset();
    };

    // The window never exceeds a pass, so at most two passes are in flight:
    // pass p's records live in slots [(p % 2) n, (p % 2) n + n).
    std::vector<Record> ring(2 * n);
    std::deque<Slot> window;
    std::vector<std::size_t> left_in_pass;  // uncollected requests per pass
    std::size_t next = 0;
    double residue_cpu_s = 0;  // the client's own reductions, not the program's
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    auto elapsed = [&] { return us_between(t0, Clock::now()) * 1e-6; };

    auto settle = [&](std::size_t rec) {
        const std::size_t pass = rec / n;
        if (--left_in_pass[pass] != 0) return;
        const double end_s = elapsed();
        const double end_cpu_s = cpu_seconds() - cpu0 - residue_cpu_s;
        const std::size_t count = std::min(n, next - pass * n);
        if (sink) {
            sink(std::span<const Record>(ring).subspan((pass % 2) * n, count), end_s, end_cpu_s);
        }
    };

    auto collect = [&](Slot& s) {
        Record& r = ring[s.rec % (2 * n)];
        r.latency_us = us_between(s.sent, s.done);
        try {
            ftmul::MultiplyOutcome out = s.fut.get();
            r.completed = out.status == ftmul::OutcomeStatus::Completed;
            r.attempts = out.ladder_attempts;
            r.critical = out.stats.critical;
            r.aggregate = out.stats.aggregate;
            if (r.completed) {
                const double c0 = thread_cpu_seconds();
                r.got = residues(out.product);
                residue_cpu_s += thread_cpu_seconds() - c0;
                if (run.samples.size() < ServiceRun::kMaxSamples &&
                    mix(w.seed ^ (s.rec * 0x2545f4914f6cdd1dull)) % w.sample_every == 0) {
                    run.samples.emplace_back(r.item, std::move(out.product));
                }
            }
        } catch (const ftmul::ServiceRejected&) {
            // Shed by shutdown: stays not completed, so it counts as failed.
        }
        settle(s.rec);
    };

    bool stop = false;
    for (;;) {
        while (!stop && window.size() < w.window) {
            if (max_requests != 0 && next == max_requests) {
                stop = true;
                break;
            }
            if (next % n == 0) {
                // Pass boundary: decide whether another whole pass fits.
                const std::size_t done = next / n;
                if (done == max_passes) {
                    stop = true;
                    break;
                }
                if (done > 0) {
                    const double el = elapsed();
                    if (el + 0.5 * el / static_cast<double>(done) >= seconds) {
                        stop = true;
                        break;
                    }
                }
                if (w.service_per_pass || !svc) {
                    if (!window.empty()) break;  // drain the pass first
                    retire_service();
                    svc = std::make_unique<ftmul::MultiplyService>(w.config);
                }
                left_in_pass.push_back(max_requests != 0 ? std::min(n, max_requests) : n);
                ++run.passes;
            }
            const Item& it = w.items[next % n];
            ftmul::MultiplyRequest req;
            req.a = it.a;
            req.b = it.b;
            req.reliability_class = it.cls;
            Slot s;
            s.rec = next++;
            Record& r = ring[s.rec % (2 * n)];
            r = Record{};
            r.item = static_cast<std::uint32_t>(s.rec % n);
            s.sent = Clock::now();
            req.deadline = s.sent + std::chrono::seconds(60);
            try {
                s.fut = svc->submit(std::move(req));
            } catch (const ftmul::ServiceRejected&) {
                settle(s.rec);
                continue;
            }
            const Clock::time_point after = Clock::now();
            r.sent_us = us_between(t0, s.sent);
            r.submit_us = us_between(s.sent, after);
            window.push_back(std::move(s));
        }
        if (window.empty()) {
            if (stop) break;
            continue;
        }
        window.front().fut.wait();
        const Clock::time_point now = Clock::now();
        window.front().done = now;
        window.front().stamped = true;
        // Stamp every other reply that is already in, so out-of-order
        // completions are timed when first seen, not when collected.
        for (std::size_t i = 1; i < window.size(); ++i) {
            Slot& s = window[i];
            if (!s.stamped && s.fut.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready) {
                s.done = now;
                s.stamped = true;
            }
        }
        while (!window.empty() && window.front().stamped) {
            collect(window.front());
            window.pop_front();
        }
    }
    run.wall_s = elapsed();
    run.requests = next;
    retire_service();
    return run;
}

void Check::add_pass(const Workload& w, std::span<const Record> pass) {
    PassSignature sig;
    for (const Record& r : pass) {
        if (!r.completed) {
            ++not_completed;
            continue;
        }
        if (!(r.got == w.items[r.item].expect)) ++wrong;
        ++sig.completed;
        sig.attempts += static_cast<std::uint64_t>(r.attempts);
        sig.msgs += r.aggregate.msgs;
        sig.words += r.aggregate.words;
        sig.limb_ops += r.aggregate.flops;
    }
    // A partial pass (max_requests) is never compared.
    if (pass.size() != w.items.size()) return;
    if (!has_signature) {
        signature = sig;
        has_signature = true;
    } else if (!(sig == signature)) {
        deterministic = false;
    }
}

void Check::add_samples(const Workload& w, const ServiceRun& run) {
    for (const auto& [item, product] : run.samples) {
        const Item& it = w.items[item];
        ++sample_checked;
        const BigInt ref = ftmul::toom_multiply(it.a, it.b, ftmul::ToomPlan::make(3));
        if (BigInt::compare(ref, product) != 0) ++sample_mismatch;
    }
}

void Blocks::add_pass(std::span<const Record> pass, double end_s, double end_cpu_s) {
    for (const Record& r : pass) {
        if (r.completed) lat_ms_.push_back(r.latency_us * 1e-3);
    }
    requests_ += pass.size();
    last_end_s_ = end_s;
    last_end_cpu_s_ = end_cpu_s;
    if (end_s - t_prev_ >= block_s_) close(end_s, end_cpu_s);
}

void Blocks::end_segment() {
    // A short tail block is dropped, unless the segment closed no block.
    if (requests_ != 0 && (last_end_s_ - t_prev_ >= 0.5 * block_s_ || rps.size() == closed_)) {
        close(last_end_s_, last_end_cpu_s_);
    }
    closed_ = rps.size();
    lat_ms_.clear();
    requests_ = 0;
    t_prev_ = 0;
    cpu_prev_ = 0;
}

void Blocks::close(double end_s, double end_cpu_s) {
    const auto reqs = static_cast<double>(requests_);
    rps.push_back(reqs / (end_s - t_prev_));
    cpu_ms.push_back((end_cpu_s - cpu_prev_) * 1e3 / reqs);
    p50_ms.push_back(percentile(lat_ms_, 0.5));
    p90_ms.push_back(percentile(lat_ms_, 0.9));
    samples += lat_ms_.size();
    lat_ms_.clear();
    requests_ = 0;
    t_prev_ = end_s;
    cpu_prev_ = end_cpu_s;
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
