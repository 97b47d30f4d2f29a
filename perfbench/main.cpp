// End-to-end benchmark of ftmul through MultiplyService.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the traced per-layer run instead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Lines before it starting with '#' are diagnostics.

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

constexpr int kSegments = 7;

/// Memory-bound reference loop owned by the benchmark: a dependent walk over
/// a 32 MiB permutation. Its time separates a slow host phase from a slow
/// program; it is printed, never gated. It runs in a forked child, so its
/// memory never counts in this process's peak RSS; the child makes only
/// async-signal-safe calls, as a child of a threaded process must.
double host_reference_ms() {
    int fds[2];
    if (pipe(fds) != 0) return -1;
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return -1;
    }
    if (pid == 0) {
        const std::uint32_t n = 1u << 23;
        void* mem = mmap(nullptr, n * sizeof(std::uint32_t), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        double ms = -1;
        if (mem != MAP_FAILED) {
            auto* next = static_cast<std::uint32_t*>(mem);
            // Sattolo's shuffle: one cycle through every slot.
            std::uint64_t x = 88172645463325252ull;
            for (std::uint32_t i = 0; i < n; ++i) next[i] = i;
            for (std::uint32_t i = n - 1; i > 0; --i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                std::swap(next[i], next[x % i]);
            }
            const Clock::time_point t0 = Clock::now();
            std::uint32_t at = 0;
            for (int i = 0; i < 500000; ++i) at = next[at];
            ms = us_between(t0, Clock::now()) * 1e-3;
            if (at == 0xffffffffu) ms = -ms;  // keeps the walk observable
        }
        const ssize_t wrote = write(fds[1], &ms, sizeof ms);
        _exit(wrote == sizeof ms ? 0 : 1);
    }
    close(fds[1]);
    double ms = -1;
    if (read(fds[0], &ms, sizeof ms) != sizeof ms) ms = -1;
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return ms;
}

std::string num(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

int usage() {
    std::cerr << "usage: perfbench --workload small_pipelined|chaos_recovery"
                 " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::string trace_out;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            workload = val;
        } else if (key == "--seed") {
            seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            seconds = std::strtod(val.c_str(), nullptr);
        } else if (key == "--trace") {
            trace = val == "1" ? 1 : val == "0" ? 0 : -1;
        } else if (key == "--trace-out") {
            trace_out = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || workload.empty() || seconds <= 0 || trace < 0) return usage();

    try {
        const double ref_start = host_reference_ms();
        Metrics metrics;
        Check check;
        std::uint64_t attempted = 0;
        if (trace == 1) {
            const Workload w = make_workload(workload, seed);
            metrics = traced_run(w, seconds, trace_out, check, attempted);
        } else {
            // Set-up (operand generation, service construction, warm-up) is
            // timed before each of kSegments segments of the measured run, so
            // its median spans the same host phases as the measurement.
            std::vector<double> setups;
            Blocks b(1.0);
            Workload w;
            std::size_t passes = 0;
            double wall_s = 0;
            for (int seg = 0; seg < kSegments; ++seg) {
                const Clock::time_point t0 = Clock::now();
                w = make_workload(workload, seed);
                // Without chaos, the warm-up's work is the same for every seed.
                const bool chaos = w.config.chaos.enabled;
                w.config.chaos.enabled = false;
                run_service(w, 0, 1, w.warmup_requests);
                w.config.chaos.enabled = chaos;
                setups.push_back(us_between(t0, Clock::now()) * 1e-6);
                const ServiceRun run = run_service(
                    w, seconds / kSegments, SIZE_MAX, 0,
                    [&](std::span<const Record> pass, double end_s, double end_cpu_s) {
                        check.add_pass(w, pass);
                        b.add_pass(pass, end_s, end_cpu_s);
                    });
                b.end_segment();
                check.add_samples(w, run);
                attempted += run.requests;
                passes += run.passes;
                wall_s += run.wall_s;
            }

            metrics["throughput_rps"] = {median(b.rps), "1/s"};
            metrics["latency_p50_ms"] = {median(b.p50_ms), "ms"};
            metrics["latency_p90_ms"] = {median(b.p90_ms), "ms"};
            metrics["cpu_ms_per_req"] = {median(b.cpu_ms), "ms"};
            metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
            metrics["setup_s"] = {median(setups), "s"};
            metrics["ok_frac"] = {
                static_cast<double>(attempted - std::min(attempted, check.failed())) /
                    static_cast<double>(attempted),
                "ratio"};
            std::cout << "# run: " << passes << " passes of " << w.items.size()
                      << " requests in " << wall_s << " s; " << b.rps.size()
                      << " blocks; latency samples " << b.samples << "\n";
            auto print_list = [](const char* name, const std::vector<double>& v) {
                std::cout << "# " << name << ":";
                for (double x : v) std::cout << " " << x;
                std::cout << "\n";
            };
            print_list("setup_s", setups);
            print_list("blocks rps", b.rps);
            print_list("blocks p50_ms", b.p50_ms);
            print_list("blocks p90_ms", b.p90_ms);
            print_list("blocks cpu_ms", b.cpu_ms);
        }
        std::cout << "# check: not_completed " << check.not_completed << ", residue_wrong "
                  << check.wrong << ", sample " << check.sample_checked << " recomputed / "
                  << check.sample_mismatch << " mismatched, deterministic "
                  << (check.deterministic ? "yes" : "NO") << "\n";
        std::cout << "# signature: completed " << check.signature.completed << " attempts "
                  << check.signature.attempts << " msgs " << check.signature.msgs << " words "
                  << check.signature.words << " limb_ops " << check.signature.limb_ops << "\n";
        std::cout << "# host_reference_ms: start " << ref_start << " end " << host_reference_ms()
                  << "\n";
        const bool correct = check.wrong == 0 && check.sample_mismatch == 0 && check.deterministic;
        print_result(correct, attempted, check.failed(), metrics);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
