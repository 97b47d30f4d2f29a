// The traced run: per-layer numbers for one workload.
//
// 1. The workload runs through MultiplyService, recording client-side
//    request/submit spans; a final pass runs with the MetricsRegistry on for
//    the program's own counters.
// 2. The same requests are replayed directly one layer down (plan_multiply,
//    then toom_multiply / parallel_toom_multiply / resilient_multiply with
//    the plan's config and the FaultInjector draw the service made). One
//    replay pass has events on: its EventLog phases become child spans of
//    the engine span. Event-free replay passes alternate with the service
//    passes and time the engine.
// 3. Machine set-up, the bigint / toom kernels and the coding layer are
//    timed on their own.
//
// Spans stay in memory; a bounded prefix is written as a Chrome trace at the
// end. A span's self time is its duration minus what its children cover.

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bigint/limb_arena.hpp"
#include "bigint/ops_counter.hpp"
#include "bigint/random.hpp"
#include "core/parallel.hpp"
#include "core/resilient.hpp"
#include "perfbench.hpp"
#include "runtime/machine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/msg_pool.hpp"
#include "service/planner.hpp"
#include "toom/sequential.hpp"

namespace perfbench {

using ftmul::BigInt;

namespace {

// ---- direct replay -------------------------------------------------------

struct Direct {
    BigInt product;
    int attempts = 0;
    double us = 0;
    std::shared_ptr<ftmul::EventLog> events;
    ftmul::TransportStats transport;
    ftmul::RunStats stats;
};

/// Execute one request the way MultiplyService::run_plan does, calling the
/// layer below directly.
Direct run_direct(const Item& it, const ftmul::MultiplyPlan& plan,
                  const ftmul::ServiceChaos& chaos,
                  const ftmul::FaultInjector& injector, std::uint64_t id,
                  bool events) {
    Direct d;
    const Clock::time_point t0 = Clock::now();
    if (!plan.machine) {
        d.product = ftmul::toom_multiply(it.a, it.b, ftmul::ToomPlan::make(3));
        d.attempts = 1;
        d.us = us_between(t0, Clock::now());
        return d;
    }
    ftmul::ResilientConfig rc = plan.resilient;
    rc.base.events = events;
    ftmul::InjectedFaults injected;
    if (chaos.enabled) {
        ftmul::FaultInjectorConfig fic;
        fic.msg_corrupt_rate = chaos.msg_corrupt_rate;
        fic.msg_drop_rate = chaos.msg_drop_rate;
        fic.msg_dup_rate = chaos.msg_dup_rate;
        fic.msg_reorder_rate = chaos.msg_reorder_rate;
        if (plan.engine != "parallel") {
            const ftmul::FaultSurface surface = ftmul::fault_surface(rc);
            fic.phases = surface.phases;
            fic.ranks = surface.ranks;
            fic.hard_rate = chaos.hard_rate;
        }
        injected = injector.draw(fic, id);
        rc.base.transport_faults = injected.transport;
    }
    if (plan.engine == "parallel") {
        try {
            ftmul::ParallelRunResult r = ftmul::parallel_toom_multiply(it.a, it.b, rc.base);
            d.product = std::move(r.product);
            d.events = r.events;
            d.transport = r.transport;
            d.stats = r.stats;
            d.attempts = 1;
        } catch (const ftmul::TransportFault&) {
            ftmul::ParallelConfig fresh = rc.base;
            fresh.transport_faults = ftmul::TransportFaultModel{};
            ftmul::ParallelRunResult r = ftmul::parallel_toom_multiply(it.a, it.b, fresh);
            d.product = std::move(r.product);
            d.events = r.events;
            d.transport = r.transport;
            d.stats = r.stats;
            d.attempts = 2;
        }
    } else {
        ftmul::ResilientResult r = ftmul::resilient_multiply(it.a, it.b, rc, injected.hard);
        d.product = std::move(r.product);
        d.events = r.events;
        d.transport = r.transport;
        d.stats = r.stats;
        d.attempts = static_cast<int>(r.attempts.size());
    }
    d.us = us_between(t0, Clock::now());
    return d;
}

// ---- EventLog phases -----------------------------------------------------

enum Phase { kSplit, kEval, kExchange, kLeaf, kInterp, kEncode, kRecover, kPhases, kOther };
constexpr const char* kPhaseName[kPhases] = {"split", "eval",   "exchange", "leaf",
                                             "interp", "encode", "recover"};

Phase classify(const std::string& p) {
    auto starts = [&](const char* s) { return p.rfind(s, 0) == 0; };
    if (p == "split") return kSplit;
    if (starts("eval")) return kEval;
    if (starts("xfwd") || starts("xbwd") || starts("fwd-")) return kExchange;
    if (p == "leaf-mul" || p == "mul") return kLeaf;
    if (starts("interp")) return kInterp;
    if (starts("encode")) return kEncode;
    if (starts("recover") || starts("restore")) return kRecover;
    return kOther;
}

struct PhaseSpan {
    Phase phase;
    double start_us;
    double dur_us;
};

/// Per-phase wall time of the slowest rank (the rank that finished last),
/// plus that rank's phase intervals for the span tree.
std::vector<PhaseSpan> slowest_rank_phases(const ftmul::EventLog& log) {
    const std::vector<ftmul::Event> events = log.events();
    int slowest = -1;
    std::uint64_t last = 0;
    for (const ftmul::Event& e : events) {
        if (e.kind == ftmul::EventKind::PhaseEnd && e.ts_us >= last) {
            last = e.ts_us;
            slowest = e.rank;
        }
    }
    std::vector<PhaseSpan> out;
    std::uint64_t open = 0;
    for (const ftmul::Event& e : events) {
        if (e.rank != slowest) continue;
        if (e.kind == ftmul::EventKind::PhaseBegin) open = e.ts_us;
        if (e.kind == ftmul::EventKind::PhaseEnd) {
            const Phase p = classify(e.phase);
            if (p != kOther) {
                out.push_back({p, static_cast<double>(open),
                               static_cast<double>(e.ts_us - open)});
            }
        }
    }
    return out;
}

/// Total time each rank spent in phases of class `want`, maximised over
/// ranks: the busiest rank's share of that work in one run.
double busiest_rank_phase_us(const ftmul::EventLog& log, Phase want) {
    std::map<int, std::pair<std::uint64_t, double>> per_rank;  // open ts, total
    for (const ftmul::Event& e : log.events()) {
        auto& [open, total] = per_rank[e.rank];
        if (e.kind == ftmul::EventKind::PhaseBegin) open = e.ts_us;
        if (e.kind == ftmul::EventKind::PhaseEnd && classify(e.phase) == want) {
            total += static_cast<double>(e.ts_us - open);
        }
    }
    double most = 0;
    for (const auto& [rank, ot] : per_rank) most = std::max(most, ot.second);
    return most;
}

// ---- spans ---------------------------------------------------------------

enum Layer { kService, kToom, kRuntime, kCore, kCoding, kLayers };
constexpr const char* kLayerName[kLayers] = {"service", "toom", "runtime", "core", "coding"};

struct Span {
    std::string name;
    Layer layer;
    std::uint64_t req;
    int parent;  ///< index into the span vector, -1 for a root
    double start_us;
    double dur_us;
};

Layer phase_layer(Phase p) {
    switch (p) {
        case kLeaf: return kToom;
        case kExchange: return kRuntime;
        case kEncode:
        case kRecover: return kCoding;
        default: return kCore;
    }
}

/// Self time per layer: each span's duration minus its children's. Children
/// never overlap (phases of one rank run in sequence; submit precedes the
/// engine). The request span's self time is signed: its engine child comes
/// from the replay, so timing noise may make it longer than the request,
/// and clipping would bias the service share upward.
std::array<double, kLayers> self_times(const std::vector<Span>& spans) {
    std::array<double, kLayers> self{};
    for (const Span& s : spans) {
        self[s.layer] += s.dur_us;
        if (s.parent >= 0) self[spans[static_cast<std::size_t>(s.parent)].layer] -= s.dur_us;
    }
    return self;
}

void write_chrome_trace(const std::vector<Span>& spans, const std::string& path,
                        std::uint64_t max_requests) {
    if (path.empty()) return;
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    if (!out) {
        std::cout << "# trace: cannot write " << path << "\n";
        return;
    }
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans) {
        if (s.req >= max_requests) continue;
        out << (first ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\""
            << kLayerName[s.layer] << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.req
            << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
            << ",\"args\":{\"req\":" << s.req << "}}";
        first = false;
    }
    out << "\n]}\n";
}

// ---- registry helpers ----------------------------------------------------

const ftmul::MetricSample* find(const ftmul::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& s : snap.samples) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

double hist_sum(const ftmul::MetricsSnapshot& snap, const std::string& name) {
    const ftmul::MetricSample* s = find(snap, name);
    return s ? static_cast<double>(s->sum) : 0.0;
}

// ---- kernels -------------------------------------------------------------

template <typename F>
double median_ns_per(int batches, int iters, F&& body) {
    std::vector<double> per;
    for (int b = 0; b < batches; ++b) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < iters; ++i) body();
        per.push_back(us_between(t0, Clock::now()) * 1e3 / iters);
    }
    return median(per);
}

double machine_setup_ms(int world) {
    std::vector<double> ms;
    for (int rep = 0; rep < 15; ++rep) {
        const Clock::time_point t0 = Clock::now();
        {
            ftmul::Machine m(world);
            m.run([](ftmul::Rank&) {});
        }
        ms.push_back(us_between(t0, Clock::now()) * 1e-3);
    }
    return median(ms);
}

struct CodingTimes {
    double encode_ms = 0;  ///< per request
    double recover_ms = 0;
};

/// The coding layer at chaos_recovery's sizes. Under the default
/// planner no service request reaches it (verified plans ft_poly), so it is
/// driven directly: ft_linear, whose ranks erasure-encode every boundary and
/// rebuild a lost rank's state, runs each chaos_recovery pair once with one
/// hard fault (phase and data rank rotating by pair), so both encode-* and
/// recover-* phases run.
CodingTimes time_coding(std::uint64_t seed, Check& check) {
    const Workload big = make_workload("chaos_recovery", seed);
    CodingTimes t;
    double requests = 0;
    for (std::size_t i = 0; i < big.items.size(); i += 3) {
        const Item& it = big.items[i];
        ftmul::ResilientConfig rc =
            ftmul::plan_multiply(it.a.bit_length(), it.b.bit_length(),
                                 ftmul::ReliabilityClass::Verified, big.config.policy)
                .resilient;
        rc.engine = ftmul::FtEngine::Linear;
        rc.base.events = true;
        const ftmul::FaultSurface surface = ftmul::fault_surface(rc);
        const std::size_t pair = i / 3;
        ftmul::FaultPlan faults;
        faults.add(surface.phases[pair % surface.phases.size()],
                   surface.ranks[(pair * 7) % surface.ranks.size()]);
        const ftmul::ResilientResult r = ftmul::resilient_multiply(it.a, it.b, rc, faults);
        if (!(residues(r.product) == it.expect)) ++check.wrong;
        if (r.events) {
            t.encode_ms += busiest_rank_phase_us(*r.events, kEncode) * 1e-3;
            t.recover_ms += busiest_rank_phase_us(*r.events, kRecover) * 1e-3;
        }
        requests += 1;
    }
    t.encode_ms /= requests;
    t.recover_ms /= requests;
    return t;
}

double safe_div(double a, double b) { return b == 0 ? 0.0 : a / b; }

double mean(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return safe_div(s, static_cast<double>(v.size()));
}

}  // namespace

Metrics traced_run(const Workload& w, double seconds, const std::string& trace_out,
                   Check& check, std::uint64_t& attempted) {
    Metrics m;
    auto put = [&](const std::string& name, double v, const char* unit) { m[name] = {v, unit}; };
    const std::size_t n = w.items.size();
    const ftmul::PlannerPolicy& policy = w.config.policy;

    run_service(w, 0, 1, w.warmup_requests);

    // Part 2a: one replay pass with event logs: ladders, phases, transport.
    const ftmul::FaultInjector injector(w.config.chaos.seed);
    std::vector<int> replay_attempts(n, 0);
    std::vector<std::vector<PhaseSpan>> phases(n);
    std::array<double, kPhases> phase_total{};
    std::vector<std::string> label(n);
    ftmul::TransportStats transport;
    double words_all = 0;
    std::size_t machine_items = 0;
    std::uint64_t replay_wrong = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Item& it = w.items[i];
        const ftmul::MultiplyPlan plan =
            ftmul::plan_multiply(it.a.bit_length(), it.b.bit_length(), it.cls, policy);
        const Direct d = run_direct(it, plan, w.config.chaos, injector, i, true);
        if (!(residues(d.product) == it.expect)) ++replay_wrong;
        label[i] = plan.engine;
        replay_attempts[i] = d.attempts;
        if (d.events) phases[i] = slowest_rank_phases(*d.events);
        for (const PhaseSpan& p : phases[i]) phase_total[p.phase] += p.dur_us;
        if (plan.machine) {
            ++machine_items;
            transport.sent_frames += d.transport.sent_frames;
            transport.retransmits += d.transport.retransmits;
            transport.retransmit_words += d.transport.retransmit_words;
            transport.header_words += d.transport.header_words;
            transport.corrupt_detected += d.transport.corrupt_detected;
            transport.malformed_detected += d.transport.malformed_detected;
            transport.drop_detected += d.transport.drop_detected;
            words_all += static_cast<double>(d.stats.aggregate.words);
        }
    }

    // Part 1 + 2b: untraced service passes alternate with event-free replay
    // passes, so both see the same host phases.
    std::vector<Record> plain;
    double plain_wall = 0;
    std::vector<std::vector<double>> engine_us(n);
    std::map<std::string, std::pair<double, double>> modeled_vs_measured;  // modeled, measured
    std::map<std::string, std::vector<double>> engine_ms;
    double plan_us = 0;
    std::uint64_t plans = 0;
    // Determinism: the replay must reproduce every service run's ladder.
    std::uint64_t attempt_drift = 0;
    auto take_pass = [&](std::span<const Record> pass) {
        check.add_pass(w, pass);
        for (const Record& r : pass) {
            if (r.completed && r.attempts != replay_attempts[r.item]) ++attempt_drift;
        }
    };
    const Clock::time_point rounds_t0 = Clock::now();
    for (std::size_t round = 0;; ++round) {
        const double el = us_between(rounds_t0, Clock::now()) * 1e-6;
        if (round >= 2 && el + 0.5 * el / static_cast<double>(round) >= 0.55 * seconds) break;
        const ServiceRun run =
            run_service(w, 0, 1, 0, [&](std::span<const Record> pass, double, double) {
                take_pass(pass);
                plain.insert(plain.end(), pass.begin(), pass.end());
            });
        check.add_samples(w, run);
        plain_wall += run.wall_s;
        for (std::size_t i = 0; i < n; ++i) {
            const Item& it = w.items[i];
            const Clock::time_point tp = Clock::now();
            const ftmul::MultiplyPlan plan =
                ftmul::plan_multiply(it.a.bit_length(), it.b.bit_length(), it.cls, policy);
            plan_us += us_between(tp, Clock::now());
            ++plans;
            const Direct d = run_direct(it, plan, w.config.chaos, injector, i, false);
            if (!(residues(d.product) == it.expect)) ++replay_wrong;
            engine_us[i].push_back(d.us);
            auto& mm = modeled_vs_measured[plan.engine];
            mm.first += static_cast<double>(plan.modeled_us);
            mm.second += d.us;
            engine_ms[plan.engine].push_back(d.us * 1e-3);
        }
    }
    std::vector<double> item_engine_us(n);
    for (std::size_t i = 0; i < n; ++i) item_engine_us[i] = median(engine_us[i]);

    // Registry-on service passes: the program's own counters, and the cost
    // of turning them on.
    auto& reg = ftmul::MetricsRegistry::global();
    reg.reset();
    reg.set_enabled(true);
    ftmul::MsgPool::reset_stats();
    const std::uint64_t grows0 = ftmul::detail::LimbArena::process_grow_count();
    const ServiceRun traced = run_service(
        w, 0.15 * seconds, SIZE_MAX, 0,
        [&](std::span<const Record> pass, double, double) { take_pass(pass); });
    const std::uint64_t grows = ftmul::detail::LimbArena::process_grow_count() - grows0;
    const ftmul::MsgPool::Stats pool = ftmul::MsgPool::stats();
    const ftmul::MetricsSnapshot snap = reg.snapshot();
    reg.set_enabled(false);
    check.add_samples(w, traced);
    attempted = plain.size() + traced.requests;

    if (attempt_drift != 0 || replay_wrong != 0) check.deterministic = false;
    check.wrong += replay_wrong;
    std::cout << "# replay: attempts drift " << attempt_drift << ", wrong " << replay_wrong
              << "\n";

    // Spans: request (service) > submit (service), engine (toom or runtime)
    // > slowest-rank phases.
    std::vector<Span> spans;
    spans.reserve(plain.size() * 4);
    double request_total = 0;
    for (std::size_t k = 0; k < plain.size(); ++k) {
        const Record& r = plain[k];
        if (!r.completed) continue;
        const int root = static_cast<int>(spans.size());
        spans.push_back({"request", kService, k, -1, r.sent_us, r.latency_us});
        spans.push_back({"submit", kService, k, root, r.sent_us, r.submit_us});
        request_total += r.latency_us;
        const double eng = item_engine_us[r.item];
        const double eng_start = r.sent_us + r.latency_us - eng;
        const bool machine = label[r.item] != "sequential";
        const int eng_idx = static_cast<int>(spans.size());
        spans.push_back({label[r.item], machine ? kRuntime : kToom, k, root, eng_start, eng});
        for (const PhaseSpan& p : phases[r.item]) {
            const double start = eng_start + p.start_us;
            const double dur = std::min(p.dur_us, eng_start + eng - start);
            if (dur > 0) {
                spans.push_back({kPhaseName[p.phase], phase_layer(p.phase), k, eng_idx, start, dur});
            }
        }
    }
    const std::array<double, kLayers> self = self_times(spans);
    write_chrome_trace(spans, trace_out, 500);

    // Part 3: kernels and machine set-up.
    put("runtime.machine_setup_ms.w9", machine_setup_ms(9), "ms");
    put("runtime.machine_setup_ms.w12", machine_setup_ms(12), "ms");
    put("runtime.machine_setup_ms.w18", machine_setup_ms(18), "ms");
    {
        ftmul::Rng rng(w.seed + 2048);
        const BigInt a = ftmul::random_bits(rng, 2048);
        const BigInt b = ftmul::random_bits(rng, 2048);
        std::uint64_t sink = 0;
        put("bigint.mul_2048_ns",
            median_ns_per(7, 2000, [&] { sink += (a * b).limb_count(); }), "ns");
        const BigInt addend = ftmul::random_bits(rng, 1024 * 64);
        BigInt acc = ftmul::random_bits(rng, 1024 * 64);
        put("bigint.add_ns_per_limb",
            median_ns_per(7, 4000, [&] { acc += addend; }) / 1024.0, "ns");
        if (sink == 0 || acc.is_zero()) std::cout << "# kernels: empty result\n";
    }
    {
        const Workload small = make_workload("small_pipelined", w.seed);
        std::vector<double> us;
        std::uint64_t ops = 0;
        for (int rep = 0; rep < 2; ++rep) {
            us.clear();
            ops = 0;
            for (const Item& it : small.items) {
                ftmul::OpsCounter::reset();
                const Clock::time_point t0 = Clock::now();
                const BigInt p = ftmul::toom_multiply(it.a, it.b, ftmul::ToomPlan::make(3));
                us.push_back(us_between(t0, Clock::now()));
                ops += ftmul::OpsCounter::get();
                if (!(residues(p) == it.expect)) ++check.wrong;
            }
        }
        put("toom.mul_us", mean(us), "us");
        put("toom.limb_ops_per_mul",
            static_cast<double>(ops) / static_cast<double>(small.items.size()), "count");
    }

    // Service layer.
    std::vector<double> submit_us;
    std::vector<double> wait_ms;
    std::map<ftmul::ReliabilityClass, std::vector<double>> by_class;
    double attempts = 0;
    double crit_flops = 0;
    double crit_words = 0;
    double msgs = 0;
    double words = 0;
    double done = 0;
    for (const Record& r : plain) {
        submit_us.push_back(r.submit_us);
        if (!r.completed) continue;
        done += 1;
        wait_ms.push_back((r.latency_us - item_engine_us[r.item]) * 1e-3);
        by_class[w.items[r.item].cls].push_back(r.latency_us);
        attempts += r.attempts;
        crit_flops += static_cast<double>(r.critical.flops);
        crit_words += static_cast<double>(r.critical.words);
        msgs += static_cast<double>(r.aggregate.msgs);
        words += static_cast<double>(r.aggregate.words);
    }
    put("service.plan_us", safe_div(plan_us, static_cast<double>(plans)), "us");
    put("service.submit_us", median(submit_us), "us");
    put("service.batch_mean",
        safe_div(static_cast<double>(traced.batched_requests), static_cast<double>(traced.batches)),
        "count");
    put("service.queue_depth_peak", static_cast<double>(traced.queue_depth_peak), "count");
    put("service.wait_ms", median(wait_ms), "ms");
    for (const char* engine : {"sequential", "parallel", "replication", "ft_poly"}) {
        const auto it = modeled_vs_measured.find(engine);
        put(std::string("service.modeled_over_measured.") + engine,
            it == modeled_vs_measured.end() ? 0.0 : safe_div(it->second.first, it->second.second),
            "ratio");
    }
    for (const auto& [engine, mm] : modeled_vs_measured) {
        std::cout << "# modeled_over_measured " << engine << " = "
                  << safe_div(mm.first, mm.second) << "\n";
    }

    // Bigint / toom.
    put("bigint.arena_grows", static_cast<double>(grows), "count");

    // Runtime.
    put("runtime.msgs_per_req", safe_div(msgs, done), "count");
    put("runtime.words_per_req", safe_div(words, done), "count");
    put("runtime.blocked_recv_share",
        safe_div(hist_sum(snap, "ftmul_machine_blocked_recv_us"), hist_sum(snap, "ftmul_pool_task_us")),
        "ratio");
    put("runtime.msgpool_fresh_per_req", safe_div(static_cast<double>(pool.fresh_allocs), done),
        "count");
    const ftmul::MetricSample* threads = find(snap, "ftmul_pool_threads_max");
    put("runtime.pool_threads_max", threads ? static_cast<double>(threads->gauge_value) : 0.0,
        "count");
    const double mi = static_cast<double>(machine_items);
    put("runtime.transport.frames_per_req", safe_div(static_cast<double>(transport.sent_frames), mi),
        "count");
    put("runtime.transport.retransmits_per_req",
        safe_div(static_cast<double>(transport.retransmits), mi), "count");
    put("runtime.transport.detected_per_req",
        safe_div(static_cast<double>(transport.detected_losses()), mi), "count");
    put("runtime.transport.goodput_ratio",
        words_all == 0 ? 0.0
                       : 1.0 - static_cast<double>(transport.header_words + transport.retransmit_words) /
                                   words_all,
        "ratio");

    // Core.
    for (const char* engine : {"parallel", "replication", "ft_poly"}) {
        const auto it = engine_ms.find(engine);
        put(std::string("core.engine_ms.") + engine, it == engine_ms.end() ? 0.0 : mean(it->second),
            "ms");
    }
    for (int p = kSplit; p <= kInterp; ++p) {
        put(std::string("core.phase_ms.") + kPhaseName[p], safe_div(phase_total[p] * 1e-3, mi), "ms");
    }
    put("core.ladder_attempts_per_req", safe_div(attempts, done), "count");
    put("core.ladder_success_ratio", safe_div(done, attempts), "ratio");
    put("core.critical_flops_per_req", safe_div(crit_flops, done), "count");
    put("core.critical_words_per_req", safe_div(crit_words, done), "count");
    put("core.ft_overhead_ratio",
        safe_div(median(by_class[ftmul::ReliabilityClass::Verified]),
                 median(by_class[ftmul::ReliabilityClass::Fast])),
        "ratio");

    // Coding.
    const CodingTimes coding = time_coding(w.seed, check);
    put("coding.encode_ms", coding.encode_ms, "ms");
    put("coding.recover_ms", coding.recover_ms, "ms");

    // Tracing overhead and the layer split.
    const double per_plain = safe_div(plain_wall, static_cast<double>(plain.size()));
    const double per_traced = safe_div(traced.wall_s, static_cast<double>(traced.requests));
    put("trace.overhead_ratio", safe_div(per_traced, per_plain), "ratio");
    std::ostringstream split;
    std::array<double, kLayers> share{};
    for (int l = 0; l < kLayers; ++l) {
        share[l] = safe_div(self[l], request_total);
        put(std::string("layer.share.") + kLayerName[l], share[l], "ratio");
        split << " " << kLayerName[l] << "=" << share[l] * 100 << "%";
    }
    std::string prediction = "none";
    bool holds = true;
    if (w.name == "small_pipelined") {
        prediction = "runtime+core+coding < 1%";
        holds = share[kRuntime] + share[kCore] + share[kCoding] < 0.01;
    } else if (w.name == "chaos_recovery") {
        prediction = "service < 1%";
        holds = share[kService] < 0.01;
    }
    std::cout << "# layer_split " << w.name << ":" << split.str() << " | prediction " << prediction
              << (holds ? " holds" : " FAILED") << "\n";
    std::cout << "# trace: " << spans.size() << " spans over " << plain.size()
              << " requests; overhead traced/untraced = " << safe_div(per_traced, per_plain)
              << "\n";
    return m;
}

}  // namespace perfbench
