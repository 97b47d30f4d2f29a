// Command-line long-integer multiplier exposing every engine.
//
//   ftmul_cli [options] A B          multiply A by B
//   options:
//     --engine seq|lazy|parallel|replication|ft-linear|ft-poly|ft-mixed|auto
//     --class fast|fast_redundant|verified
//                       reliability class steering --engine auto (default
//                       fast); see docs/SERVICE.md for the policy table
//     --k K             split number (default 3 sequential, 2 parallel)
//     --procs P         processors for the parallel engines (default 9)
//     --faults F        redundancy for the FT engines (default 1)
//     --kill PHASE:RANK inject a hard fault (repeatable; FT engines only)
//     --hex             operands and output in hexadecimal
//     --stats           print machine-model cost counters
//     --report json     print the JSON run report instead of the product
//                       (machine engines only; see docs/OBSERVABILITY.md)
//     --report-out FILE write the JSON run report to FILE
//     --trace-out FILE  write a Chrome Trace Event file (chrome://tracing)
//     --metrics         enable the live metrics registry (also FTMUL_METRICS=1);
//                       run reports gain an embedded "metrics" section
//     --metrics-out FILE  write a metrics dump to FILE (implies --metrics)
//     --metrics-format prom|json  dump format (default prom)
//     --transport-guard arm the frame-integrity transport guard (machine
//                       engines only); run reports gain a "transport"
//                       section with retention/ack-window accounting
//
// Example: ftmul_cli --engine ft-poly --kill mul:0 --stats 123456789 987654321

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/ft_linear.hpp"
#include "core/ft_mixed.hpp"
#include "core/ft_poly.hpp"
#include "core/parallel.hpp"
#include "core/replication.hpp"
#include "service/planner.hpp"
#include "runtime/metrics.hpp"
#include "runtime/report.hpp"
#include "toom/lazy.hpp"
#include "toom/sequential.hpp"

namespace {

using namespace ftmul;

struct Options {
    std::string engine = "seq";
    std::string cls = "fast";  // reliability class for --engine auto
    int k = 0;  // 0 = engine default
    int procs = 9;
    int faults = 1;
    bool hex = false;
    bool stats = false;
    std::string report;      // "json" = print run report on stdout
    std::string report_out;  // write run report to this file
    std::string trace_out;   // write Chrome trace to this file
    bool metrics = false;
    std::string metrics_out;            // metrics dump file
    std::string metrics_format = "prom";  // "prom" or "json"
    bool transport_guard = false;
    FaultPlan plan;
    std::vector<std::string> operands;
};

[[noreturn]] void usage() {
    std::fprintf(
        stderr,
        "usage: ftmul_cli [--engine seq|lazy|parallel|replication|"
        "ft-linear|ft-poly|ft-mixed|auto] [--class CLS] [--k K] [--procs P] "
        "[--faults F] [--kill PHASE:RANK] [--hex] [--stats] "
        "[--report json] [--report-out FILE] [--trace-out FILE] "
        "[--metrics] [--metrics-out FILE] "
        "[--metrics-format prom|json] [--transport-guard] A B\n"
        "\n"
        "--engine auto routes through the serving layer's cost-model "
        "planner:\n"
        "  operands under 4096 bits  -> seq (sequential Toom-Cook) for "
        "every class;\n"
        "  --class fast              -> parallel (no redundancy);\n"
        "  --class fast_redundant    -> replication (f+1 full replicas);\n"
        "  --class verified          -> the cheapest FT-coded engine "
        "(ft-poly /\n"
        "                               ft-linear / ft-mixed) under the "
        "cost model.\n"
        "--procs and --faults feed the planner's policy; the chosen engine "
        "is\nprinted on stderr.\n");
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc) usage();
            return argv[i];
        };
        if (arg == "--engine") {
            o.engine = next();
        } else if (arg == "--class") {
            o.cls = next();
        } else if (arg == "--k") {
            o.k = std::atoi(next().c_str());
            if (o.k != 0 && o.k < 2) usage();  // 0 selects the default
        } else if (arg == "--procs") {
            o.procs = std::atoi(next().c_str());
        } else if (arg == "--faults") {
            o.faults = std::atoi(next().c_str());
        } else if (arg == "--kill") {
            const std::string spec = next();
            const auto colon = spec.find(':');
            if (colon == std::string::npos) usage();
            o.plan.add(spec.substr(0, colon),
                       std::atoi(spec.c_str() + colon + 1));
        } else if (arg == "--hex") {
            o.hex = true;
        } else if (arg == "--stats") {
            o.stats = true;
        } else if (arg == "--report") {
            o.report = next();
            if (o.report != "json") usage();
        } else if (arg == "--report-out") {
            o.report_out = next();
        } else if (arg == "--trace-out") {
            o.trace_out = next();
        } else if (arg == "--metrics") {
            o.metrics = true;
        } else if (arg == "--metrics-out") {
            o.metrics_out = next();
            o.metrics = true;
        } else if (arg == "--transport-guard") {
            o.transport_guard = true;
        } else if (arg == "--metrics-format") {
            o.metrics_format = next();
            if (o.metrics_format != "prom" && o.metrics_format != "json") {
                usage();
            }
        } else if (arg.rfind("--", 0) == 0) {
            usage();
        } else {
            o.operands.push_back(arg);
        }
    }
    if (o.operands.size() != 2) usage();
    return o;
}

void print_stats(const RunStats& s) {
    std::fprintf(stderr,
                 "critical path: F=%llu limb-ops, BW=%llu words, L=%llu "
                 "rounds; machine total F=%llu; peak memory %llu words\n",
                 static_cast<unsigned long long>(s.critical.flops),
                 static_cast<unsigned long long>(s.critical.words),
                 static_cast<unsigned long long>(s.critical.latency),
                 static_cast<unsigned long long>(s.aggregate.flops),
                 static_cast<unsigned long long>(s.peak_memory_words));
}

/// Final metrics dump (--metrics-out): Prometheus text or the ftmul.metrics
/// v1 JSON document, whichever --metrics-format selected.
int write_metrics_dump(const Options& o) {
    if (o.metrics_out.empty()) return 0;
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    const std::string text = o.metrics_format == "json"
                                 ? snap.to_json().dump(2) + "\n"
                                 : snap.to_prometheus();
    if (!write_text_file(o.metrics_out, text)) {
        std::fprintf(stderr, "ftmul_cli: cannot write %s\n",
                     o.metrics_out.c_str());
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options o = parse(argc, argv);
    if (o.metrics) MetricsRegistry::global().set_enabled(true);
    auto read = [&](const std::string& s) {
        return o.hex ? BigInt::from_hex(s) : BigInt::from_decimal(s);
    };
    const BigInt a = read(o.operands[0]);
    const BigInt b = read(o.operands[1]);

    if (o.engine == "auto") {
        // Route through the serving layer's cost-model planner (see the
        // heuristic in --help and the policy table in docs/SERVICE.md).
        ReliabilityClass cls;
        try {
            cls = reliability_class_from_string(o.cls);
        } catch (const std::invalid_argument&) {
            usage();
        }
        PlannerPolicy policy;
        policy.processors = o.procs;
        policy.faults = o.faults;
        const MultiplyPlan chosen =
            plan_multiply(a.bit_length(), b.bit_length(), cls, policy);
        if (chosen.engine == "sequential") {
            o.engine = "seq";
        } else if (chosen.engine == "ft_linear") {
            o.engine = "ft-linear";
        } else if (chosen.engine == "ft_poly") {
            o.engine = "ft-poly";
        } else if (chosen.engine == "ft_mixed") {
            o.engine = "ft-mixed";
        } else {
            o.engine = chosen.engine;  // "parallel" / "replication"
        }
        std::fprintf(stderr,
                     "ftmul_cli: auto (class %s, %zu x %zu bits) -> %s "
                     "(world %d, modeled %llu us)\n",
                     to_string(cls), a.bit_length(), b.bit_length(),
                     o.engine.c_str(), chosen.world,
                     static_cast<unsigned long long>(chosen.modeled_us));
    }

    // The observability exports only make sense for the machine engines.
    const bool wants_obs =
        !o.report.empty() || !o.report_out.empty() || !o.trace_out.empty();

    BigInt product;
    RunStats stats;
    std::shared_ptr<EventLog> events;
    ReportMeta meta;
    if (o.engine == "seq") {
        if (wants_obs) {
            std::fprintf(stderr,
                         "ftmul_cli: --report/--trace-out need a machine "
                         "engine (parallel/ft-*)\n");
            return 2;
        }
        product = toom_multiply(a, b, ToomPlan::make(o.k ? o.k : 3));
    } else if (o.engine == "lazy") {
        if (wants_obs) {
            std::fprintf(stderr,
                         "ftmul_cli: --report/--trace-out need a machine "
                         "engine (parallel/ft-*)\n");
            return 2;
        }
        product = toom_multiply_lazy(a, b, ToomPlan::make(o.k ? o.k : 3));
    } else {
        ParallelConfig base;
        base.k = o.k ? o.k : 2;
        base.processors = o.procs;
        base.events = wants_obs;
        base.transport_guard = o.transport_guard;
        meta.algorithm = o.engine;
        meta.processors = o.procs;
        meta.bits_a = a.bit_length();
        meta.bits_b = b.bit_length();
        TransportStats transport;
        if (o.engine == "parallel") {
            auto r = parallel_toom_multiply(a, b, base);
            product = r.product;
            stats = r.stats;
            events = r.events;
            transport = r.transport;
        } else if (o.engine == "replication") {
            auto r = replicated_toom_multiply(a, b, {base, o.faults}, o.plan);
            product = r.product;
            stats = r.stats;
            events = r.events;
            transport = r.transport;
            meta.extra_processors = r.extra_processors;
            meta.tolerance = o.faults;
        } else if (o.engine == "ft-linear") {
            auto r = ft_linear_multiply(a, b, {base, o.faults}, o.plan);
            product = r.product;
            stats = r.stats;
            events = r.events;
            transport = r.transport;
            meta.extra_processors = r.extra_processors;
            meta.tolerance = o.faults;
        } else if (o.engine == "ft-poly") {
            auto r = ft_poly_multiply(a, b, {base, o.faults}, o.plan);
            product = r.product;
            stats = r.stats;
            events = r.events;
            transport = r.transport;
            meta.extra_processors = r.extra_processors;
            meta.tolerance = o.faults;
        } else if (o.engine == "ft-mixed") {
            auto r = ft_mixed_multiply(a, b, {base, o.faults}, o.plan);
            product = r.product;
            stats = r.stats;
            events = r.events;
            transport = r.transport;
            meta.extra_processors = r.extra_processors;
            meta.tolerance = o.faults;
        } else {
            usage();
        }
        if (o.stats) print_stats(stats);
        if (wants_obs) {
            meta.product_hex = product.to_hex();
            Json report_doc = build_run_report(stats, meta, &o.plan,
                                               events.get(), {}, &transport);
            if (metrics::enabled()) {
                report_doc.set("metrics",
                               MetricsRegistry::global().snapshot().to_json());
            }
            const std::string report = report_doc.dump(2) + "\n";
            if (o.report == "json") std::fputs(report.c_str(), stdout);
            if (!o.report_out.empty() &&
                !write_text_file(o.report_out, report)) {
                std::fprintf(stderr, "ftmul_cli: cannot write %s\n",
                             o.report_out.c_str());
                return 1;
            }
            if (!o.trace_out.empty()) {
                if (events == nullptr) {
                    std::fprintf(stderr,
                                 "ftmul_cli: no event log for trace\n");
                    return 1;
                }
                if (!write_text_file(o.trace_out,
                                     chrome_trace_json(*events))) {
                    std::fprintf(stderr, "ftmul_cli: cannot write %s\n",
                                 o.trace_out.c_str());
                    return 1;
                }
            }
        }
    }

    // --report=json replaces the product on stdout with the report.
    if (o.report != "json") {
        std::printf("%s\n", o.hex ? product.to_hex().c_str()
                                  : product.to_decimal().c_str());
    }
    return write_metrics_dump(o);
}
