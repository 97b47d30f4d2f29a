// ftmul_chaos: randomized fault-injection campaigns over the full fault
// taxonomy of the paper's Section 1 — hard faults (fail-stop), soft faults
// (silent miscalculation) and delay faults (stragglers) — plus the
// data-plane transport taxonomy (message corruption / drop / duplication /
// reorder). Every trial draws a seeded, replayable fault plan restricted to
// the target's fault surface, runs the engine, verifies the product against
// the sequential reference, and escalates over-budget trials through the
// resilient driver. The campaign must never produce a wrong product; it
// writes a schema-versioned JSON report (ftmul.chaos_report v3) with
// per-category outcome counts, soft-fault detection/miss rates, straggler
// latency distributions, recovery-cost distributions, survival curves and —
// when the transport category ran — frame-level injection/detection
// accounting with retransmit cost distributions.
//
// Hard trials sweep the six FT engines; soft trials route through
// ft_soft_multiply (the code detects and corrects the corruption, the
// resilient soft ladder absorbs over-budget draws); straggler trials run
// the plain parallel algorithm with the drawn delays and assert the coded
// schedule's critical-path advantage (cf. bench_stragglers): the straggling
// columns are discarded via ft_poly instead of waited for. Transport trials
// (opt-in via --categories transport) sweep the six engines too, with the
// frame-integrity guard armed and all four transport kinds firing at the
// combo's per-frame rate: the checksummed, sequenced, retained frames must
// detect every corruption and drop, absorb dups and reorders, and recover
// via NACK/retransmit — a trial whose retransmit budget runs out escalates
// through the resilient ladder on a fresh interconnect.
//
// Trials execute in parallel on N plain threads (--jobs N), whose Machines
// share the runtime's carrier threads. Results are stored per trial and
// aggregated serially in trial order, so the report JSON is byte-identical
// for --jobs 1 and --jobs N.
//
// Usage:
//   ftmul_chaos [--trials N | --max-trials N] [--time-budget-s S]
//               [--seed S] [--bits B] [--out FILE]
//               [--engines a,b,...] [--rates r1,r2,...]
//               [--categories hard,soft,straggler,transport]
//               [--straggler-rounds R]
//               [--jobs N] [--progress] [--progress-interval-s S]
//               [--metrics] [--metrics-out FILE] [--metrics-format prom|json]
//               [--metrics-stream-s S] [--metrics-stream-out FILE]
//               [--smoke] [--quiet]
//
// --smoke shrinks the campaign (~8 trials/combination, smaller operands)
// for CI. --time-budget-s bounds the campaign's wall clock: trial admission
// stops when the budget or the trial cap trips, whichever comes first, and
// the report's "trials_completed" records how far it got. --progress streams
// a heartbeat line (per-category outcome tallies + throughput) to stderr;
// it never touches the report bytes. --metrics embeds an ftmul.metrics v1
// section as the report's last key; the non-metrics sections stay
// byte-identical to a metrics-off run. --metrics-stream-s appends a full
// ftmul.metrics snapshot to an NDJSON side file every S seconds while the
// campaign runs (live dashboards tail it); the report bytes stay identical
// to a non-streaming run.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bigint/random.hpp"
#include "campaign_budget.hpp"
#include "core/ft_poly.hpp"
#include "core/ft_soft.hpp"
#include "core/parallel.hpp"
#include "core/resilient.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/report.hpp"
#include "toom/sequential.hpp"

namespace {

using namespace ftmul;

enum class Category { Hard, Soft, Straggler, Transport };

const char* to_string(Category c) {
    switch (c) {
        case Category::Hard: return "hard";
        case Category::Soft: return "soft";
        case Category::Straggler: return "straggler";
        case Category::Transport: return "transport";
    }
    return "unknown";
}

struct Options {
    std::uint64_t trials = 1000;
    bool trials_set = false;
    std::uint64_t seed = 42;
    std::size_t bits = 700;
    std::string out = "chaos_report.json";
    std::vector<std::string> engines = {"ft_linear",   "ft_poly",
                                        "ft_mixed",    "ft_multistep",
                                        "replication", "checkpoint"};
    std::vector<double> rates = {0.05, 0.15, 0.35};
    std::vector<Category> categories = {Category::Hard, Category::Soft,
                                        Category::Straggler};
    std::uint64_t straggler_rounds = 65536;
    std::size_t jobs = 1;
    double time_budget_s = 0.0;  ///< 0 = unbounded wall clock
    bool progress = false;
    double progress_interval_s = 2.0;
    bool metrics = false;
    std::string metrics_out;
    std::string metrics_format = "prom";
    double metrics_stream_s = 0.0;  ///< 0 = no NDJSON snapshot streaming
    std::string metrics_stream_out = "chaos_metrics.ndjson";
    bool smoke = false;
    bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--trials N | --max-trials N] [--time-budget-s S]\n"
        "          [--seed S] [--bits B] [--out FILE]\n"
        "          [--engines a,b,...] [--rates r1,r2,...]\n"
        "          [--categories hard,soft,straggler,transport] "
        "[--straggler-rounds R]\n"
        "          [--jobs N] [--progress] [--progress-interval-s S]\n"
        "          [--metrics] [--metrics-out FILE] "
        "[--metrics-format prom|json]\n"
        "          [--metrics-stream-s S] [--metrics-stream-out FILE]\n"
        "          [--smoke] [--quiet]\n",
        argv0);
    std::exit(2);
}

std::vector<std::string> split_list(const std::string& s) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::size_t end = comma == std::string::npos ? s.size() : comma;
        if (end > start) out.push_back(s.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

Options parse_args(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--trials" || arg == "--max-trials") {
            o.trials = std::strtoull(value().c_str(), nullptr, 10);
            o.trials_set = true;
        } else if (arg == "--time-budget-s") {
            o.time_budget_s = std::strtod(value().c_str(), nullptr);
            if (o.time_budget_s < 0.0) usage(argv[0]);
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--bits") {
            o.bits = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--out") {
            o.out = value();
        } else if (arg == "--engines") {
            o.engines = split_list(value());
        } else if (arg == "--rates") {
            o.rates.clear();
            for (const std::string& r : split_list(value())) {
                o.rates.push_back(std::strtod(r.c_str(), nullptr));
            }
        } else if (arg == "--categories") {
            o.categories.clear();
            for (const std::string& c : split_list(value())) {
                if (c == "hard") {
                    o.categories.push_back(Category::Hard);
                } else if (c == "soft") {
                    o.categories.push_back(Category::Soft);
                } else if (c == "straggler") {
                    o.categories.push_back(Category::Straggler);
                } else if (c == "transport") {
                    o.categories.push_back(Category::Transport);
                } else {
                    std::fprintf(stderr, "unknown category: %s\n", c.c_str());
                    usage(argv[0]);
                }
            }
        } else if (arg == "--straggler-rounds") {
            o.straggler_rounds = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--jobs") {
            o.jobs = std::strtoull(value().c_str(), nullptr, 10);
            if (o.jobs == 0) o.jobs = 1;
        } else if (arg == "--progress") {
            o.progress = true;
        } else if (arg == "--progress-interval-s") {
            o.progress_interval_s = std::strtod(value().c_str(), nullptr);
            if (o.progress_interval_s <= 0.0) usage(argv[0]);
            o.progress = true;
        } else if (arg == "--metrics") {
            o.metrics = true;
        } else if (arg == "--metrics-out") {
            o.metrics_out = value();
            o.metrics = true;
        } else if (arg == "--metrics-stream-s") {
            o.metrics_stream_s = std::strtod(value().c_str(), nullptr);
            if (o.metrics_stream_s <= 0.0) usage(argv[0]);
        } else if (arg == "--metrics-stream-out") {
            o.metrics_stream_out = value();
            if (o.metrics_stream_s <= 0.0) o.metrics_stream_s = 2.0;
        } else if (arg == "--metrics-format") {
            o.metrics_format = value();
            if (o.metrics_format != "prom" && o.metrics_format != "json") {
                std::fprintf(stderr, "unknown metrics format: %s\n",
                             o.metrics_format.c_str());
                usage(argv[0]);
            }
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--quiet") {
            o.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            usage(argv[0]);
        }
    }
    if (o.smoke) {
        o.bits = 360;
        if (o.out == "chaos_report.json") o.out = "chaos_smoke_report.json";
    }
    if (o.engines.empty() || o.rates.empty() || o.categories.empty()) {
        usage(argv[0]);
    }
    return o;
}

/// Streaming min/mean/max over uint64 samples (a full histogram would bloat
/// the report; the distribution tails are what campaigns watch).
struct Dist {
    std::uint64_t n = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double sum = 0.0;

    void add(std::uint64_t v) {
        if (n == 0 || v < min) min = v;
        if (n == 0 || v > max) max = v;
        sum += static_cast<double>(v);
        ++n;
    }

    Json to_json() const {
        Json j = Json::object();
        j.set("samples", n);
        j.set("min", min);
        j.set("mean", n == 0 ? 0.0 : sum / static_cast<double>(n));
        j.set("max", max);
        return j;
    }
};

/// One trial's full outcome, stored per trial index so a parallel campaign
/// aggregates in deterministic trial order afterwards.
struct TrialResult {
    bool ran = false;  ///< false when the time budget stopped the campaign
                       ///< before this slot was admitted
    Category cat = Category::Hard;
    std::string engine;    ///< hard trials: the FT engine swept
    std::string rate_key;  ///< "%g" of the combo's rate

    enum class Outcome {
        Clean,      ///< no fault drawn, product correct
        Recovered,  ///< absorbed: in-engine (hard), corrected (soft),
                    ///< coded mitigation (straggler)
        Retried,    ///< escalated through a resilient ladder; straggler:
                    ///< over-budget delay absorbed by the plain run
        WrongProduct,
        Error,  ///< unexpected exception / lost latency advantage
    };
    Outcome outcome = Outcome::Clean;
    std::string error;

    int nfaults = 0;  ///< faults drawn, whatever the category
    // hard
    bool has_recovery_cost = false;
    CostCounters recovery{};
    bool has_retry_cost = false;
    std::uint64_t retry_flops = 0;
    std::string retry_strategy;
    // soft
    int soft_detected = 0;
    int soft_corrected = 0;
    bool soft_wrong_interp = false;
    bool soft_completed = false;  ///< ft_soft ran to completion (counts
                                  ///< toward detection statistics)
    // straggler
    bool coded_ran = false;
    std::uint64_t plain_latency = 0;
    std::uint64_t coded_latency = 0;
    bool coded_faster = false;
    // transport
    bool transport_completed = false;  ///< frame accounting is complete (an
                                       ///< attempt that died mid-run on a
                                       ///< TransportFault loses its counts)
    TransportStats transport{};
};

struct SurvivalBucket {
    std::uint64_t trials = 0;
    std::uint64_t in_engine = 0;  ///< absorbed by the engine's own coding
};

struct RateTally {
    std::uint64_t trials = 0;
    std::uint64_t in_engine = 0;  ///< clean + recovered
    std::uint64_t retried = 0;
};

struct EngineTally {
    std::uint64_t clean = 0;
    std::uint64_t recovered = 0;
    std::uint64_t retried = 0;
    std::uint64_t wrong_product = 0;
    std::uint64_t errors = 0;
    std::map<std::string, std::uint64_t> retry_strategies;
    Dist recovery_flops;
    Dist recovery_words;
    Dist retry_flops;
    std::map<int, SurvivalBucket> survival;  ///< by injected fault count
    std::vector<std::string> sample_errors;
};

struct SoftTally {
    std::uint64_t trials = 0;
    std::uint64_t clean = 0;
    std::uint64_t corrected = 0;  ///< in-code detection + correction
    std::uint64_t escalated = 0;
    std::uint64_t wrong_interpolations = 0;  ///< caught by the verifier
    std::uint64_t wrong_product = 0;
    std::uint64_t errors = 0;
    std::uint64_t injected = 0;   ///< corruption events over completed runs
    std::uint64_t detected = 0;
    std::uint64_t corrected_events = 0;
    std::map<std::string, std::uint64_t> retry_strategies;
    std::map<std::string, RateTally> by_rate;
    std::vector<std::string> sample_errors;
};

struct StragglerTally {
    std::uint64_t trials = 0;
    std::uint64_t clean = 0;
    std::uint64_t mitigated = 0;  ///< coded run discarded the slow columns
    std::uint64_t absorbed = 0;   ///< over-budget: plain run ate the delay
    std::uint64_t wrong_product = 0;
    std::uint64_t errors = 0;
    std::uint64_t coded_trials = 0;
    std::uint64_t coded_faster = 0;
    Dist stragglers_per_trial;  ///< over trials with at least one straggler
    Dist plain_latency;         ///< critical latency, straggled plain run
    Dist coded_latency;         ///< critical latency, coded mitigation run
    std::map<std::string, RateTally> by_rate;
    std::vector<std::string> sample_errors;
};

struct TransportEngineTally {
    std::uint64_t trials = 0;
    std::uint64_t clean = 0;
    std::uint64_t recovered = 0;
    std::uint64_t retried = 0;
    std::uint64_t wrong_product = 0;
    std::uint64_t errors = 0;
    std::uint64_t retransmits = 0;
};

struct TransportTally {
    std::uint64_t trials = 0;
    std::uint64_t clean = 0;
    std::uint64_t recovered = 0;  ///< guard absorbed the injections in-run
    std::uint64_t retried = 0;    ///< escalated through the resilient ladder
    std::uint64_t wrong_product = 0;
    std::uint64_t errors = 0;

    /// Frame accounting summed over runs with complete stats; the invariant
    /// the campaign gates on is injected corrupt+drop == detected losses.
    TransportStats frames;
    Dist injected_per_trial;     ///< over completed runs with injections
    Dist retransmits_per_trial;  ///< same population
    std::map<std::string, std::uint64_t> retry_strategies;
    std::map<std::string, RateTally> by_rate;
    std::map<std::string, TransportEngineTally> by_engine;
    std::vector<std::string> sample_errors;
};

struct Combo {
    Category cat;
    FtEngine engine;  ///< meaningful for Hard and Transport only
    double rate;
};

std::string rate_key_of(double rate) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", rate);
    return buf;
}

void note_error(std::vector<std::string>& samples, const std::string& what) {
    if (samples.size() < 3) samples.push_back(what);
}

constexpr int kCategories = 4;
constexpr int kOutcomes = 5;

const char* outcome_name(TrialResult::Outcome o) {
    switch (o) {
        case TrialResult::Outcome::Clean: return "clean";
        case TrialResult::Outcome::Recovered: return "recovered";
        case TrialResult::Outcome::Retried: return "retried";
        case TrialResult::Outcome::WrongProduct: return "wrong_product";
        case TrialResult::Outcome::Error: return "error";
    }
    return "unknown";
}

/// Worker-maintained running tallies feeding the --progress heartbeat and
/// nothing else: the report is aggregated from the per-trial slots, so these
/// relaxed counters cannot perturb its bytes.
struct LiveTally {
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> counts[kCategories][kOutcomes]{};

    void note(Category c, TrialResult::Outcome o) {
        counts[static_cast<int>(c)][static_cast<int>(o)].fetch_add(
            1, std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_relaxed);
    }
};

/// One heartbeat line on stderr:
///   chaos: <elapsed>s <done>/<target> trials (<rate>/s) | <category>
///   clean=N recovered=N retried=N wrong=N errors=N | ...
/// with one segment per campaign category, in hard,soft,straggler order.
void print_progress(const Options& opt, const LiveTally& live,
                    std::chrono::steady_clock::time_point start) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const std::uint64_t done = live.done.load(std::memory_order_relaxed);
    char head[128];
    std::snprintf(head, sizeof(head), "chaos: %.1fs %llu/%llu trials (%.1f/s)",
                  elapsed, static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(opt.trials),
                  elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0);
    std::string line = head;
    for (Category c : {Category::Hard, Category::Soft, Category::Straggler,
                       Category::Transport}) {
        if (std::find(opt.categories.begin(), opt.categories.end(), c) ==
            opt.categories.end()) {
            continue;
        }
        const auto& row = live.counts[static_cast<int>(c)];
        auto n = [&](TrialResult::Outcome o) {
            return static_cast<unsigned long long>(
                row[static_cast<int>(o)].load(std::memory_order_relaxed));
        };
        char seg[160];
        std::snprintf(seg, sizeof(seg),
                      " | %s clean=%llu recovered=%llu retried=%llu "
                      "wrong=%llu errors=%llu",
                      to_string(c), n(TrialResult::Outcome::Clean),
                      n(TrialResult::Outcome::Recovered),
                      n(TrialResult::Outcome::Retried),
                      n(TrialResult::Outcome::WrongProduct),
                      n(TrialResult::Outcome::Error));
        line += seg;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
}

/// Background periodic task with RAII lifetime. finish() joins on the
/// normal path; the destructor joins on every other path, so a throwing
/// campaign (bad alloc, report I/O) can never leave the thread dangling
/// past the tallies and streams it reads. The task fires once more on the
/// way out, so the final heartbeat line / metrics snapshot reflects the
/// drained campaign rather than stopping an interval short.
class Periodic {
public:
    Periodic() = default;
    Periodic(const Periodic&) = delete;
    Periodic& operator=(const Periodic&) = delete;
    ~Periodic() { finish(); }

    void start(double interval_s, std::function<void()> fn) {
        fn_ = std::move(fn);
        th_ = std::thread([this, interval_s]() {
            std::unique_lock<std::mutex> lock(mu_);
            while (!cv_.wait_for(lock,
                                 std::chrono::duration<double>(interval_s),
                                 [this]() { return over_; })) {
                fn_();
            }
            fn_();
        });
    }

    void finish() noexcept {
        if (!th_.joinable()) return;
        {
            const std::lock_guard<std::mutex> lock(mu_);
            over_ = true;
        }
        cv_.notify_all();
        th_.join();
    }

private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool over_ = false;
    std::function<void()> fn_;
    std::thread th_;
};

// ---------------------------------------------------------------------------
// Per-category trial bodies. Each is a pure function of (seed, trial index,
// combo): the operands, the fault plans and therefore the whole outcome
// replay stand-alone.
// ---------------------------------------------------------------------------

void run_hard_trial(TrialResult& tr, const BigInt& a, const BigInt& b,
                    const BigInt& expected, const ResilientConfig& proto,
                    const Combo& combo, const FaultInjector& injector,
                    std::uint64_t seed, std::uint64_t t) {
    using Outcome = TrialResult::Outcome;
    ResilientConfig cfg = proto;
    cfg.engine = combo.engine;

    const FaultSurface surface = fault_surface(cfg);
    FaultInjectorConfig icfg;
    icfg.phases = surface.phases;
    icfg.ranks = surface.ranks;
    icfg.hard_rate = combo.rate;
    const InjectedFaults injected = injector.draw(icfg, t);
    tr.nfaults = static_cast<int>(injected.hard.total_faults());

    try {
        const FtRunResult r = run_ft_engine(a, b, cfg, injected.hard);
        if (r.product != expected) {
            tr.outcome = Outcome::WrongProduct;
            std::fprintf(stderr,
                         "WRONG PRODUCT: engine=%s seed=%llu trial=%llu\n",
                         tr.engine.c_str(),
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(t));
            return;
        }
        if (tr.nfaults == 0) {
            tr.outcome = Outcome::Clean;
        } else {
            tr.outcome = Outcome::Recovered;
            if (r.events) {
                CostCounters rec{};
                for (const Event& e :
                     r.events->of_kind(EventKind::RecoveryEnd)) {
                    rec += e.counters;
                }
                tr.recovery = rec;
                tr.has_recovery_cost = true;
            }
        }
    } catch (const UnrecoverableFault&) {
        // Over-budget fault set: escalate through the resilient ladder.
        // Retries run fault-free ("fresh processors").
        tr.outcome = Outcome::Retried;
        try {
            const ResilientResult rr =
                resilient_multiply(a, b, cfg, injected.hard);
            if (rr.product != expected) {
                tr.outcome = Outcome::WrongProduct;
                std::fprintf(stderr,
                             "WRONG PRODUCT (retry): engine=%s seed=%llu "
                             "trial=%llu\n",
                             tr.engine.c_str(),
                             static_cast<unsigned long long>(seed),
                             static_cast<unsigned long long>(t));
                return;
            }
            if (!rr.attempts.empty()) {
                tr.retry_strategy = rr.attempts.back().strategy;
            }
            tr.retry_flops = rr.stats.critical.flops;
            tr.has_retry_cost = true;
        } catch (const UnrecoverableFault& uf) {
            tr.outcome = Outcome::Error;
            tr.error = uf.what();
        }
    } catch (const std::exception& e) {
        tr.outcome = Outcome::Error;
        tr.error = e.what();
    }
}

void run_soft_trial(TrialResult& tr, const BigInt& a, const BigInt& b,
                    const BigInt& expected, const ResilientConfig& proto,
                    const Combo& combo, const FaultInjector& injector,
                    std::uint64_t seed, std::uint64_t t) {
    using Outcome = TrialResult::Outcome;
    ResilientConfig cfg = proto;
    cfg.faults = 2;  // code rows f: >= 2 locates *and* corrects

    const FaultSurface surface = soft_fault_surface(cfg);
    FaultInjectorConfig icfg;
    icfg.phases = surface.phases;
    icfg.ranks = surface.ranks;
    icfg.soft_rate = combo.rate;
    const InjectedFaults injected = injector.draw(icfg, t);
    tr.nfaults = static_cast<int>(injected.soft.total());

    // Over-budget draws (two corruptions in one column at one boundary) and
    // wrong interpolations both land here: the soft ladder re-runs on fresh
    // processors and, armed with the verifier, never surfaces a product
    // that does not match the reference.
    auto escalate = [&]() {
        tr.outcome = Outcome::Retried;
        try {
            const ResilientResult rr = resilient_soft_multiply(
                a, b, cfg, injected.soft,
                [&](const BigInt& p) { return p == expected; });
            if (!rr.attempts.empty()) {
                tr.retry_strategy = rr.attempts.back().strategy;
            }
            tr.retry_flops = rr.stats.critical.flops;
            tr.has_retry_cost = true;
        } catch (const UnrecoverableFault& uf) {
            tr.outcome = Outcome::Error;
            tr.error = uf.what();
        }
    };

    FtSoftConfig scfg;
    scfg.base = cfg.base;
    scfg.code_rows = cfg.faults;
    try {
        const FtSoftResult r = ft_soft_multiply(a, b, scfg, injected.soft);
        tr.soft_completed = true;
        tr.soft_detected = r.corruptions_detected;
        tr.soft_corrected = r.corruptions_corrected;
        if (r.product != expected) {
            // A silent miss would be a coding bug; the campaign both counts
            // it as a detection miss and proves the ladder recovers it.
            tr.soft_wrong_interp = true;
            std::fprintf(stderr,
                         "SOFT MISS (wrong interpolation): seed=%llu "
                         "trial=%llu\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(t));
            escalate();
            return;
        }
        tr.outcome = tr.nfaults == 0 ? Outcome::Clean : Outcome::Recovered;
    } catch (const UnrecoverableFault&) {
        escalate();
    } catch (const std::exception& e) {
        tr.outcome = Outcome::Error;
        tr.error = e.what();
    }
}

void run_straggler_trial(TrialResult& tr, const BigInt& a, const BigInt& b,
                         const BigInt& expected, const ResilientConfig& proto,
                         const Combo& combo, const FaultInjector& injector,
                         std::uint64_t straggler_rounds, std::uint64_t seed,
                         std::uint64_t t) {
    using Outcome = TrialResult::Outcome;
    const int npts = 2 * proto.base.k - 1;
    const int P = proto.base.processors;

    FaultInjectorConfig icfg;
    icfg.ranks.resize(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) icfg.ranks[static_cast<std::size_t>(r)] = r;
    icfg.straggler_rate = combo.rate;
    icfg.straggler_rounds = straggler_rounds;
    const InjectedFaults injected = injector.draw(icfg, t);
    tr.nfaults = static_cast<int>(injected.stragglers.size());

    try {
        // The plain schedule has no choice: the slowest rank's delay lands
        // on the critical path.
        ParallelConfig pcfg = proto.base;
        pcfg.events = false;
        pcfg.straggler_delays = injected.stragglers;
        const ParallelRunResult plain = parallel_toom_multiply(a, b, pcfg);
        if (plain.product != expected) {
            tr.outcome = Outcome::WrongProduct;
            std::fprintf(stderr,
                         "WRONG PRODUCT (straggled plain): seed=%llu "
                         "trial=%llu\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(t));
            return;
        }
        tr.plain_latency = plain.stats.critical.latency;
        if (injected.stragglers.empty()) {
            tr.outcome = Outcome::Clean;
            return;
        }

        // The coded schedule discards straggling columns instead of waiting
        // — the same redundancy that tolerates hard faults (bench_stragglers
        // and the coded-computation literature the paper builds on). Budget:
        // at most `faults` distinct columns may be dropped.
        std::set<int> columns;
        for (const auto& [r, rounds] : injected.stragglers) {
            columns.insert(r % npts);
        }
        if (static_cast<int>(columns.size()) > proto.faults) {
            tr.outcome = Outcome::Retried;  // absorbed: plain run ate it
            return;
        }
        FtPolyConfig ft;
        ft.base = proto.base;
        ft.base.events = false;
        ft.faults = proto.faults;
        const int wide = npts + proto.faults;
        FaultPlan drop;
        for (const auto& [r, rounds] : injected.stragglers) {
            drop.add("mul", (r / npts) * wide + (r % npts));
        }
        const FtRunResult coded = ft_poly_multiply(a, b, ft, drop);
        if (coded.product != expected) {
            tr.outcome = Outcome::WrongProduct;
            std::fprintf(stderr,
                         "WRONG PRODUCT (coded straggler): seed=%llu "
                         "trial=%llu\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(t));
            return;
        }
        tr.coded_ran = true;
        tr.coded_latency = coded.stats.critical.latency;
        tr.coded_faster = tr.coded_latency < tr.plain_latency;
        if (!tr.coded_faster) {
            tr.outcome = Outcome::Error;
            tr.error =
                "coded schedule lost its critical-path advantage over the "
                "straggled plain run";
            return;
        }
        tr.outcome = Outcome::Recovered;
    } catch (const std::exception& e) {
        tr.outcome = Outcome::Error;
        tr.error = e.what();
    }
}

void run_transport_trial(TrialResult& tr, const BigInt& a, const BigInt& b,
                         const BigInt& expected, const ResilientConfig& proto,
                         const Combo& combo, const FaultInjector& injector,
                         std::uint64_t seed, std::uint64_t t) {
    using Outcome = TrialResult::Outcome;
    ResilientConfig cfg = proto;
    cfg.engine = combo.engine;

    // All four transport kinds fire at the combo's per-frame rate; every
    // frame's fate is a pure function of (seed, trial, src, dst, link
    // index), so the trial replays stand-alone like the other categories.
    FaultInjectorConfig icfg;
    icfg.msg_corrupt_rate = combo.rate;
    icfg.msg_drop_rate = combo.rate;
    icfg.msg_dup_rate = combo.rate;
    icfg.msg_reorder_rate = combo.rate;
    const InjectedFaults injected = injector.draw(icfg, t);
    cfg.base.transport_faults = injected.transport;

    try {
        // No processor faults: the data plane is the only adversary.
        const FtRunResult r = run_ft_engine(a, b, cfg, FaultPlan{});
        tr.transport = r.transport;
        tr.transport_completed = true;
        tr.nfaults = static_cast<int>(r.transport.injected_total());
        if (r.product != expected) {
            tr.outcome = Outcome::WrongProduct;
            std::fprintf(stderr,
                         "WRONG PRODUCT (transport): engine=%s seed=%llu "
                         "trial=%llu\n",
                         tr.engine.c_str(),
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(t));
            return;
        }
        tr.outcome = tr.nfaults == 0 ? Outcome::Clean : Outcome::Recovered;
    } catch (const TransportFault&) {
        // NACK/retransmit out of budget (retry limit tripped or the retained
        // frame was evicted): escalate through the resilient ladder, whose
        // rung 1 fails the same deterministic way and whose retries run on a
        // fresh interconnect.
        tr.outcome = Outcome::Retried;
        try {
            const ResilientResult rr =
                resilient_multiply(a, b, cfg, FaultPlan{});
            tr.transport = rr.transport;
            tr.transport_completed = true;
            if (rr.product != expected) {
                tr.outcome = Outcome::WrongProduct;
                std::fprintf(stderr,
                             "WRONG PRODUCT (transport retry): engine=%s "
                             "seed=%llu trial=%llu\n",
                             tr.engine.c_str(),
                             static_cast<unsigned long long>(seed),
                             static_cast<unsigned long long>(t));
                return;
            }
            if (!rr.attempts.empty()) {
                tr.retry_strategy = rr.attempts.back().strategy;
            }
            tr.retry_flops = rr.stats.critical.flops;
            tr.has_retry_cost = true;
        } catch (const std::exception& e) {
            tr.outcome = Outcome::Error;
            tr.error = e.what();
        }
    } catch (const std::exception& e) {
        tr.outcome = Outcome::Error;
        tr.error = e.what();
    }
}

}  // namespace

int main(int argc, char** argv) {
    Options opt = parse_args(argc, argv);
    // Snapshot streaming needs live instruments too, but only --metrics may
    // put the section into the report (see below): streaming must leave the
    // report bytes identical to a non-streaming run.
    if (opt.metrics || opt.metrics_stream_s > 0.0) {
        MetricsRegistry::global().set_enabled(true);
    }

    ResilientConfig proto;
    proto.base.k = 2;
    proto.base.processors = 9;
    proto.base.digit_bits = 32;
    proto.base.events = true;
    proto.faults = 1;
    proto.fused_steps = 2;

    const ToomPlan& ref_plan = ToomPlan::make(3);
    const FaultInjector injector(opt.seed);

    // The trial grid: (category-specific combos) x rates, trials distributed
    // round-robin so a campaign of any size touches every combination.
    std::vector<Combo> combos;
    for (Category cat : opt.categories) {
        if (cat == Category::Hard || cat == Category::Transport) {
            for (const std::string& name : opt.engines) {
                const FtEngine e = ft_engine_from_string(name);  // throws
                for (double r : opt.rates) combos.push_back({cat, e, r});
            }
        } else {
            for (double r : opt.rates) {
                combos.push_back({cat, FtEngine::Poly, r});
            }
        }
    }
    if (opt.smoke && !opt.trials_set) {
        opt.trials = 8 * combos.size();
    }
    if (opt.trials == 0) usage(argv[0]);

    // Trial-completion counters, one per (category, outcome). Registered
    // up front — with a fixed label set regardless of which combos run —
    // so workers only touch pre-resolved handles.
    Counter trial_counters[kCategories][kOutcomes];
    for (int c = 0; c < kCategories; ++c) {
        for (int o = 0; o < kOutcomes; ++o) {
            trial_counters[c][o] = metrics::counter(
                "ftmul_chaos_trials_total",
                {{"category", to_string(static_cast<Category>(c))},
                 {"outcome",
                  outcome_name(static_cast<TrialResult::Outcome>(o))}},
                "campaign trials completed, by category and outcome");
        }
    }

    // Run every trial, in parallel when --jobs > 1. Results land in a
    // per-trial slot; all aggregation below walks them serially in trial
    // order, which is what makes the report bytes independent of the job
    // count and the scheduling. The budget gate runs between trials: a
    // campaign over its wall-clock budget stops admitting new trials and
    // reports whatever completed.
    const auto campaign_start = std::chrono::steady_clock::now();
    const chaos::CampaignBudget budget = chaos::CampaignBudget::make(
        opt.trials, opt.time_budget_s, campaign_start);
    std::vector<TrialResult> results(opt.trials);
    std::atomic<std::uint64_t> next{0};
    LiveTally live;
    auto worker = [&]() {
        for (std::uint64_t t = next.fetch_add(1); t < opt.trials;
             t = next.fetch_add(1)) {
            if (!budget.admits(t, std::chrono::steady_clock::now())) break;
            const Combo& combo = combos[t % combos.size()];
            TrialResult& tr = results[t];
            tr.cat = combo.cat;
            tr.engine = combo.cat == Category::Hard ||
                                combo.cat == Category::Transport
                            ? ftmul::to_string(combo.engine)
                            : to_string(combo.cat);
            tr.rate_key = rate_key_of(combo.rate);
            try {
                // Operands are a pure function of (seed, trial) too, so any
                // trial replays stand-alone.
                Rng rng(opt.seed ^
                        (0x6368616f73ull + t * 0x9e3779b97f4a7c15ull));
                const BigInt a = random_bits(rng, opt.bits);
                const BigInt b = random_bits(rng, opt.bits + 37);
                const BigInt expected = toom_multiply(a, b, ref_plan);
                switch (combo.cat) {
                    case Category::Hard:
                        run_hard_trial(tr, a, b, expected, proto, combo,
                                       injector, opt.seed, t);
                        break;
                    case Category::Soft:
                        run_soft_trial(tr, a, b, expected, proto, combo,
                                       injector, opt.seed, t);
                        break;
                    case Category::Straggler:
                        run_straggler_trial(tr, a, b, expected, proto, combo,
                                            injector, opt.straggler_rounds,
                                            opt.seed, t);
                        break;
                    case Category::Transport:
                        run_transport_trial(tr, a, b, expected, proto, combo,
                                            injector, opt.seed, t);
                        break;
                }
            } catch (const std::exception& e) {
                tr.outcome = TrialResult::Outcome::Error;
                tr.error = e.what();
            } catch (...) {
                tr.outcome = TrialResult::Outcome::Error;
                tr.error = "unknown exception";
            }
            tr.ran = true;
            live.note(tr.cat, tr.outcome);
            trial_counters[static_cast<int>(tr.cat)]
                          [static_cast<int>(tr.outcome)]
                              .inc();
        }
    };

    // The heartbeat and the metrics streamer ride on condition variables so
    // the final tick fires the moment workers drain rather than an interval
    // later; their RAII guards join them even when a worker body or the
    // report writer throws.
    Periodic heartbeat;
    if (opt.progress) {
        heartbeat.start(opt.progress_interval_s,
                        [&]() { print_progress(opt, live, campaign_start); });
    }
    std::ofstream metrics_stream;
    Periodic streamer;
    if (opt.metrics_stream_s > 0.0) {
        metrics_stream.open(opt.metrics_stream_out,
                            std::ios::out | std::ios::trunc);
        if (!metrics_stream) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.metrics_stream_out.c_str());
            return 2;
        }
        streamer.start(opt.metrics_stream_s, [&]() {
            const double elapsed =
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              campaign_start)
                    .count();
            Json line = Json::object();
            line.set("elapsed_s", elapsed);
            line.set("trials_done",
                     live.done.load(std::memory_order_relaxed));
            line.set("metrics",
                     MetricsRegistry::global().snapshot().to_json());
            metrics_stream << line.dump(0) << '\n';
            metrics_stream.flush();
        });
    }

    if (opt.jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> jobs;
        for (std::size_t i = 0; i < opt.jobs; ++i) jobs.emplace_back(worker);
        for (std::thread& t : jobs) t.join();
    }

    heartbeat.finish();
    streamer.finish();

    // ---- deterministic aggregation, in trial order --------------------
    using Outcome = TrialResult::Outcome;
    std::map<std::string, EngineTally> tallies;
    std::map<std::string, std::map<std::string, RateTally>> rate_tallies;
    SoftTally soft;
    StragglerTally straggler;
    TransportTally transport;
    std::uint64_t trials_completed = 0;

    for (const TrialResult& tr : results) {
        if (!tr.ran) continue;  // budget stopped the campaign before this slot
        ++trials_completed;
        const bool in_engine =
            tr.outcome == Outcome::Clean || tr.outcome == Outcome::Recovered;
        if (tr.cat == Category::Hard) {
            EngineTally& tally = tallies[tr.engine];
            RateTally& rt = rate_tallies[tr.engine][tr.rate_key];
            ++rt.trials;
            SurvivalBucket& bucket = tally.survival[tr.nfaults];
            ++bucket.trials;
            if (in_engine) {
                ++bucket.in_engine;
                ++rt.in_engine;
            }
            switch (tr.outcome) {
                case Outcome::Clean: ++tally.clean; break;
                case Outcome::Recovered: ++tally.recovered; break;
                case Outcome::Retried: ++tally.retried; ++rt.retried; break;
                case Outcome::WrongProduct: ++tally.wrong_product; break;
                case Outcome::Error:
                    ++tally.errors;
                    note_error(tally.sample_errors, tr.error);
                    break;
            }
            if (tr.has_recovery_cost) {
                tally.recovery_flops.add(tr.recovery.flops);
                tally.recovery_words.add(tr.recovery.words);
            }
            if (tr.has_retry_cost) {
                tally.retry_flops.add(tr.retry_flops);
                if (!tr.retry_strategy.empty()) {
                    ++tally.retry_strategies[tr.retry_strategy];
                }
            }
        } else if (tr.cat == Category::Soft) {
            ++soft.trials;
            RateTally& rt = soft.by_rate[tr.rate_key];
            ++rt.trials;
            if (in_engine) ++rt.in_engine;
            if (tr.soft_completed) {
                soft.injected += static_cast<std::uint64_t>(tr.nfaults);
                soft.detected += static_cast<std::uint64_t>(tr.soft_detected);
                soft.corrected_events +=
                    static_cast<std::uint64_t>(tr.soft_corrected);
            }
            if (tr.soft_wrong_interp) ++soft.wrong_interpolations;
            switch (tr.outcome) {
                case Outcome::Clean: ++soft.clean; break;
                case Outcome::Recovered: ++soft.corrected; break;
                case Outcome::Retried:
                    ++soft.escalated;
                    ++rt.retried;
                    break;
                case Outcome::WrongProduct: ++soft.wrong_product; break;
                case Outcome::Error:
                    ++soft.errors;
                    note_error(soft.sample_errors, tr.error);
                    break;
            }
            if (tr.has_retry_cost && !tr.retry_strategy.empty()) {
                ++soft.retry_strategies[tr.retry_strategy];
            }
        } else if (tr.cat == Category::Transport) {
            ++transport.trials;
            TransportEngineTally& et = transport.by_engine[tr.engine];
            ++et.trials;
            RateTally& rt = transport.by_rate[tr.rate_key];
            ++rt.trials;
            if (in_engine) ++rt.in_engine;
            if (tr.transport_completed) {
                transport.frames += tr.transport;
                et.retransmits += tr.transport.retransmits;
                if (tr.transport.injected_total() > 0) {
                    transport.injected_per_trial.add(
                        tr.transport.injected_total());
                    transport.retransmits_per_trial.add(
                        tr.transport.retransmits);
                }
            }
            switch (tr.outcome) {
                case Outcome::Clean:
                    ++transport.clean;
                    ++et.clean;
                    break;
                case Outcome::Recovered:
                    ++transport.recovered;
                    ++et.recovered;
                    break;
                case Outcome::Retried:
                    ++transport.retried;
                    ++et.retried;
                    ++rt.retried;
                    break;
                case Outcome::WrongProduct:
                    ++transport.wrong_product;
                    ++et.wrong_product;
                    break;
                case Outcome::Error:
                    ++transport.errors;
                    ++et.errors;
                    note_error(transport.sample_errors, tr.error);
                    break;
            }
            if (tr.has_retry_cost && !tr.retry_strategy.empty()) {
                ++transport.retry_strategies[tr.retry_strategy];
            }
        } else {
            ++straggler.trials;
            RateTally& rt = straggler.by_rate[tr.rate_key];
            ++rt.trials;
            if (in_engine) ++rt.in_engine;
            if (tr.nfaults > 0) {
                straggler.stragglers_per_trial.add(
                    static_cast<std::uint64_t>(tr.nfaults));
                straggler.plain_latency.add(tr.plain_latency);
            }
            if (tr.coded_ran) {
                ++straggler.coded_trials;
                straggler.coded_latency.add(tr.coded_latency);
                if (tr.coded_faster) ++straggler.coded_faster;
            }
            switch (tr.outcome) {
                case Outcome::Clean: ++straggler.clean; break;
                case Outcome::Recovered: ++straggler.mitigated; break;
                case Outcome::Retried:
                    ++straggler.absorbed;
                    ++rt.retried;
                    break;
                case Outcome::WrongProduct: ++straggler.wrong_product; break;
                case Outcome::Error:
                    ++straggler.errors;
                    note_error(straggler.sample_errors, tr.error);
                    break;
            }
        }
    }

    // ---- report (ftmul.chaos_report v3) -------------------------------
    Json root = report_header(kChaosReportSchema, kChaosReportVersion);
    root.set("seed", opt.seed);
    root.set("trials", opt.trials);
    root.set("trials_completed", trials_completed);
    if (opt.time_budget_s > 0.0) root.set("time_budget_s", opt.time_budget_s);
    root.set("bits", static_cast<std::uint64_t>(opt.bits));
    {
        Json cfg = Json::object();
        cfg.set("k", proto.base.k);
        cfg.set("processors", proto.base.processors);
        cfg.set("digit_bits",
                static_cast<std::uint64_t>(proto.base.digit_bits));
        cfg.set("faults", proto.faults);
        cfg.set("fused_steps", proto.fused_steps);
        cfg.set("soft_code_rows", 2);
        cfg.set("straggler_rounds", opt.straggler_rounds);
        root.set("config", std::move(cfg));
    }
    {
        Json cats = Json::array();
        for (Category c : {Category::Hard, Category::Soft,
                           Category::Straggler, Category::Transport}) {
            if (std::find(opt.categories.begin(), opt.categories.end(), c) !=
                opt.categories.end()) {
                cats.push_back(to_string(c));
            }
        }
        root.set("categories", std::move(cats));
    }
    Json rates = Json::array();
    for (double r : opt.rates) rates.push_back(r);
    root.set("rates", std::move(rates));

    std::uint64_t total_wrong = 0;
    std::uint64_t total_errors = 0;
    Json engines = Json::array();
    for (const auto& [name, tally] : tallies) {
        Json e = Json::object();
        e.set("engine", name);
        Json counts = Json::object();
        counts.set("clean", tally.clean);
        counts.set("recovered", tally.recovered);
        counts.set("retried", tally.retried);
        counts.set("wrong_product", tally.wrong_product);
        counts.set("errors", tally.errors);
        e.set("counts", std::move(counts));

        Json by_rate = Json::array();
        for (const auto& [rate, rt] : rate_tallies[name]) {
            Json jr = Json::object();
            jr.set("rate", std::strtod(rate.c_str(), nullptr));
            jr.set("trials", rt.trials);
            jr.set("in_engine", rt.in_engine);
            jr.set("retried", rt.retried);
            by_rate.push_back(std::move(jr));
        }
        e.set("by_rate", std::move(by_rate));

        Json rec = Json::object();
        rec.set("flops", tally.recovery_flops.to_json());
        rec.set("words", tally.recovery_words.to_json());
        e.set("recovery_cost", std::move(rec));
        e.set("retry_cost_flops", tally.retry_flops.to_json());

        Json strategies = Json::object();
        for (const auto& [s, n] : tally.retry_strategies) strategies.set(s, n);
        e.set("retry_strategies", std::move(strategies));

        // Survival curve: P(engine absorbs the trial | n faults injected).
        Json survival = Json::array();
        for (const auto& [n, bucket] : tally.survival) {
            Json s = Json::object();
            s.set("faults", n);
            s.set("trials", bucket.trials);
            s.set("in_engine", bucket.in_engine);
            s.set("survival",
                  bucket.trials == 0
                      ? 0.0
                      : static_cast<double>(bucket.in_engine) /
                            static_cast<double>(bucket.trials));
            survival.push_back(std::move(s));
        }
        e.set("survival", std::move(survival));

        if (!tally.sample_errors.empty()) {
            Json errs = Json::array();
            for (const std::string& s : tally.sample_errors) errs.push_back(s);
            e.set("sample_errors", std::move(errs));
        }
        engines.push_back(std::move(e));
        total_wrong += tally.wrong_product;
        total_errors += tally.errors;

        if (!opt.quiet) {
            std::printf(
                "%-14s clean=%llu recovered=%llu retried=%llu wrong=%llu "
                "errors=%llu\n",
                name.c_str(), static_cast<unsigned long long>(tally.clean),
                static_cast<unsigned long long>(tally.recovered),
                static_cast<unsigned long long>(tally.retried),
                static_cast<unsigned long long>(tally.wrong_product),
                static_cast<unsigned long long>(tally.errors));
        }
    }
    root.set("engines", std::move(engines));

    if (soft.trials != 0) {
        Json s = Json::object();
        Json counts = Json::object();
        counts.set("clean", soft.clean);
        counts.set("corrected", soft.corrected);
        counts.set("escalated", soft.escalated);
        counts.set("wrong_interpolations", soft.wrong_interpolations);
        counts.set("wrong_product", soft.wrong_product);
        counts.set("errors", soft.errors);
        s.set("counts", std::move(counts));
        Json corr = Json::object();
        corr.set("injected", soft.injected);
        corr.set("detected", soft.detected);
        corr.set("corrected", soft.corrected_events);
        s.set("corruptions", std::move(corr));
        // Detection statistics over completed in-budget runs: the code must
        // flag every injected corruption; a wrong interpolation that slipped
        // through detection is a miss.
        s.set("detection_rate",
              soft.injected == 0
                  ? 1.0
                  : static_cast<double>(soft.detected) /
                        static_cast<double>(soft.injected));
        s.set("miss_rate",
              soft.trials == 0
                  ? 0.0
                  : static_cast<double>(soft.wrong_interpolations) /
                        static_cast<double>(soft.trials));
        Json strategies = Json::object();
        for (const auto& [name, n] : soft.retry_strategies) {
            strategies.set(name, n);
        }
        s.set("retry_strategies", std::move(strategies));
        Json by_rate = Json::array();
        for (const auto& [rate, rt] : soft.by_rate) {
            Json jr = Json::object();
            jr.set("rate", std::strtod(rate.c_str(), nullptr));
            jr.set("trials", rt.trials);
            jr.set("in_code", rt.in_engine);
            jr.set("escalated", rt.retried);
            by_rate.push_back(std::move(jr));
        }
        s.set("by_rate", std::move(by_rate));
        if (!soft.sample_errors.empty()) {
            Json errs = Json::array();
            for (const std::string& m : soft.sample_errors) errs.push_back(m);
            s.set("sample_errors", std::move(errs));
        }
        root.set("soft", std::move(s));
        total_wrong += soft.wrong_product;
        total_errors += soft.errors;

        if (!opt.quiet) {
            std::printf(
                "%-14s clean=%llu corrected=%llu escalated=%llu wrong=%llu "
                "errors=%llu\n",
                "soft", static_cast<unsigned long long>(soft.clean),
                static_cast<unsigned long long>(soft.corrected),
                static_cast<unsigned long long>(soft.escalated),
                static_cast<unsigned long long>(soft.wrong_product),
                static_cast<unsigned long long>(soft.errors));
        }
    }

    if (straggler.trials != 0) {
        Json s = Json::object();
        Json counts = Json::object();
        counts.set("clean", straggler.clean);
        counts.set("mitigated", straggler.mitigated);
        counts.set("absorbed", straggler.absorbed);
        counts.set("wrong_product", straggler.wrong_product);
        counts.set("errors", straggler.errors);
        s.set("counts", std::move(counts));
        Json adv = Json::object();
        adv.set("coded_trials", straggler.coded_trials);
        adv.set("coded_faster", straggler.coded_faster);
        adv.set("rate", straggler.coded_trials == 0
                            ? 1.0
                            : static_cast<double>(straggler.coded_faster) /
                                  static_cast<double>(straggler.coded_trials));
        s.set("advantage", std::move(adv));
        Json lat = Json::object();
        lat.set("stragglers_per_trial",
                straggler.stragglers_per_trial.to_json());
        lat.set("plain_critical_latency", straggler.plain_latency.to_json());
        lat.set("coded_critical_latency", straggler.coded_latency.to_json());
        s.set("latency", std::move(lat));
        Json by_rate = Json::array();
        for (const auto& [rate, rt] : straggler.by_rate) {
            Json jr = Json::object();
            jr.set("rate", std::strtod(rate.c_str(), nullptr));
            jr.set("trials", rt.trials);
            jr.set("mitigated_or_clean", rt.in_engine);
            jr.set("absorbed", rt.retried);
            by_rate.push_back(std::move(jr));
        }
        s.set("by_rate", std::move(by_rate));
        if (!straggler.sample_errors.empty()) {
            Json errs = Json::array();
            for (const std::string& m : straggler.sample_errors) {
                errs.push_back(m);
            }
            s.set("sample_errors", std::move(errs));
        }
        root.set("straggler", std::move(s));
        total_wrong += straggler.wrong_product;
        total_errors += straggler.errors;

        if (!opt.quiet) {
            std::printf(
                "%-14s clean=%llu mitigated=%llu absorbed=%llu wrong=%llu "
                "errors=%llu\n",
                "straggler", static_cast<unsigned long long>(straggler.clean),
                static_cast<unsigned long long>(straggler.mitigated),
                static_cast<unsigned long long>(straggler.absorbed),
                static_cast<unsigned long long>(straggler.wrong_product),
                static_cast<unsigned long long>(straggler.errors));
        }
    }

    // The transport section is new in v3 and present only when the campaign
    // ran the category, so v2 consumers of the other sections read
    // unchanged bytes.
    std::uint64_t total_undetected = 0;
    if (transport.trials != 0) {
        Json s = Json::object();
        Json counts = Json::object();
        counts.set("clean", transport.clean);
        counts.set("recovered", transport.recovered);
        counts.set("retried", transport.retried);
        counts.set("wrong_product", transport.wrong_product);
        counts.set("errors", transport.errors);
        s.set("counts", std::move(counts));

        const TransportStats& f = transport.frames;
        Json frames = Json::object();
        frames.set("sent", f.sent_frames);
        frames.set("header_words", f.header_words);
        s.set("frames", std::move(frames));

        Json inj = Json::object();
        inj.set("corrupt", f.injected_corrupt);
        inj.set("drop", f.injected_drop);
        inj.set("dup", f.injected_dup);
        inj.set("reorder", f.injected_reorder);
        inj.set("total", f.injected_total());
        s.set("injected", std::move(inj));

        Json det = Json::object();
        det.set("corrupt", f.corrupt_detected);
        det.set("malformed", f.malformed_detected);
        det.set("drop", f.drop_detected);
        det.set("dedup_hits", f.dedup_hits);
        det.set("reorder_stashed", f.reorder_stashed);
        s.set("detected", std::move(det));

        // The gate: every injected corruption and drop must be noticed by
        // the frame guard (dups and reorders are absorbed by the sequence
        // window either way). One undetected loss is a campaign failure.
        const std::uint64_t losses = f.injected_corrupt + f.injected_drop;
        const std::uint64_t noticed = f.detected_losses();
        const std::uint64_t undetected =
            losses > noticed ? losses - noticed : 0;
        s.set("undetected", undetected);
        s.set("detection_rate",
              losses == 0 ? 1.0
                          : std::min(1.0, static_cast<double>(noticed) /
                                              static_cast<double>(losses)));
        total_undetected = undetected;

        Json rec = Json::object();
        rec.set("retransmits", f.retransmits);
        rec.set("retransmit_words", f.retransmit_words);
        rec.set("per_trial", transport.retransmits_per_trial.to_json());
        s.set("retransmit", std::move(rec));

        // Ack-window accounting (program-order deterministic, so these
        // fields are byte-stable across --jobs like the rest of the report).
        Json retention = Json::object();
        retention.set("frames", f.retained_frames);
        retention.set("words", f.retained_words);
        retention.set("live_streams_end", f.live_streams_end);
        s.set("retention", std::move(retention));
        Json acks = Json::object();
        acks.set("piggybacked", f.acks_piggybacked);
        acks.set("standalone", f.acks_standalone);
        acks.set("seqs", f.acked_seqs);
        s.set("acks", std::move(acks));

        s.set("injected_per_trial", transport.injected_per_trial.to_json());

        Json strategies = Json::object();
        for (const auto& [name, n] : transport.retry_strategies) {
            strategies.set(name, n);
        }
        s.set("retry_strategies", std::move(strategies));

        Json by_rate = Json::array();
        for (const auto& [rate, rt] : transport.by_rate) {
            Json jr = Json::object();
            jr.set("rate", std::strtod(rate.c_str(), nullptr));
            jr.set("trials", rt.trials);
            jr.set("in_guard", rt.in_engine);
            jr.set("retried", rt.retried);
            by_rate.push_back(std::move(jr));
        }
        s.set("by_rate", std::move(by_rate));

        Json by_engine = Json::array();
        for (const auto& [name, et] : transport.by_engine) {
            Json je = Json::object();
            je.set("engine", name);
            je.set("trials", et.trials);
            je.set("clean", et.clean);
            je.set("recovered", et.recovered);
            je.set("retried", et.retried);
            je.set("wrong_product", et.wrong_product);
            je.set("errors", et.errors);
            je.set("retransmits", et.retransmits);
            by_engine.push_back(std::move(je));
        }
        s.set("by_engine", std::move(by_engine));

        if (!transport.sample_errors.empty()) {
            Json errs = Json::array();
            for (const std::string& m : transport.sample_errors) {
                errs.push_back(m);
            }
            s.set("sample_errors", std::move(errs));
        }
        root.set("transport", std::move(s));
        total_wrong += transport.wrong_product;
        total_errors += transport.errors;

        if (!opt.quiet) {
            std::printf(
                "%-14s clean=%llu recovered=%llu retried=%llu wrong=%llu "
                "errors=%llu undetected=%llu\n",
                "transport", static_cast<unsigned long long>(transport.clean),
                static_cast<unsigned long long>(transport.recovered),
                static_cast<unsigned long long>(transport.retried),
                static_cast<unsigned long long>(transport.wrong_product),
                static_cast<unsigned long long>(transport.errors),
                static_cast<unsigned long long>(undetected));
        }
    }

    {
        Json totals = Json::object();
        totals.set("wrong_product", total_wrong);
        totals.set("errors", total_errors);
        root.set("totals", std::move(totals));
    }

    // The metrics section is the report's LAST key: stripping it (or running
    // metrics-off) leaves the report byte-identical up to that point. Gated
    // on the flag, not on registry state — snapshot streaming enables the
    // registry without opting the report into the section.
    if (opt.metrics) {
        root.set("metrics", MetricsRegistry::global().snapshot().to_json());
    }

    if (!write_text_file(opt.out, root.dump(2) + "\n")) {
        std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
        return 2;
    }
    if (!opt.quiet) std::printf("wrote %s\n", opt.out.c_str());

    if (!opt.metrics_out.empty()) {
        const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
        const std::string text = opt.metrics_format == "json"
                                     ? snap.to_json().dump(2) + "\n"
                                     : snap.to_prometheus();
        if (!write_text_file(opt.metrics_out, text)) {
            std::fprintf(stderr, "cannot write %s\n", opt.metrics_out.c_str());
            return 2;
        }
        if (!opt.quiet) std::printf("wrote %s\n", opt.metrics_out.c_str());
    }

    if (total_wrong != 0 || total_errors != 0 || total_undetected != 0) {
        std::fprintf(stderr,
                     "CAMPAIGN FAILED: %llu wrong products, %llu errors, "
                     "%llu undetected transport losses\n",
                     static_cast<unsigned long long>(total_wrong),
                     static_cast<unsigned long long>(total_errors),
                     static_cast<unsigned long long>(total_undetected));
        return 1;
    }
    return 0;
}
