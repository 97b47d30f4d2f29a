// Visualize the parallel algorithm's communication structure: the paper's
// grid claims made visible. Prints the rank-to-rank traffic matrix of a run,
// read from its event log — BFS level 0 exchanges only inside rows
// {0,1,2},{3,4,5},...; level 1 only inside the column subgroups {c, c+3, c+6}.
//
//   ./comm_structure [bits]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bigint/random.hpp"
#include "core/parallel.hpp"

namespace {

using ftmul::Event;
using ftmul::EventKind;
using ftmul::EventLog;

/// Words each rank (row) sent to each rank (column) in the phases starting
/// with @p prefix, as an ASCII heat map: '.' for none, else the single-digit
/// log10 of the words.
std::string render_comm_matrix(const EventLog& log, int world,
                               const std::string& prefix = "") {
    const auto n = static_cast<std::size_t>(world);
    std::vector<std::uint64_t> words(n * n, 0);
    for (const Event& e : log.of_kind(EventKind::MessageSend)) {
        if (e.phase.rfind(prefix, 0) == 0) {
            words[static_cast<std::size_t>(e.rank) * n +
                  static_cast<std::size_t>(e.peer)] += e.words;
        }
    }
    std::string out = "      ";
    for (std::size_t j = 0; j < n; ++j) {
        out += std::to_string(j % 10);
        out += ' ';
    }
    out += "  (columns = destination rank)\n";
    for (std::size_t i = 0; i < n; ++i) {
        char head[16];
        std::snprintf(head, sizeof head, "%4d  ", static_cast<int>(i));
        out += head;
        for (std::size_t j = 0; j < n; ++j) {
            std::uint64_t w = words[i * n + j];
            if (w == 0) {
                out += ". ";
                continue;
            }
            int mag = 0;
            for (; w >= 10; w /= 10) ++mag;
            out += static_cast<char>('0' + std::min(mag, 9));
            out += ' ';
        }
        out += '\n';
    }
    return out;
}

/// One line per rank: the phases it entered, consecutive repeats collapsed.
/// The log keeps each rank's events in its program order.
std::string render_phase_walks(const EventLog& log, int world) {
    std::vector<std::vector<std::string>> walks(
        static_cast<std::size_t>(world));
    for (const Event& e : log.of_kind(EventKind::PhaseBegin)) {
        auto& walk = walks[static_cast<std::size_t>(e.rank)];
        if (walk.empty() || walk.back() != e.phase) walk.push_back(e.phase);
    }
    std::string out;
    for (std::size_t r = 0; r < walks.size(); ++r) {
        out += "rank " + std::to_string(r) + ": ";
        for (std::size_t i = 0; i < walks[r].size(); ++i) {
            if (i > 0) out += " -> ";
            out += walks[r][i];
        }
        out += '\n';
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace ftmul;
    const std::size_t bits =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1 << 14;

    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.events = true;
    Rng rng{3};
    const BigInt a = random_bits(rng, bits);
    const BigInt b = random_bits(rng, bits);
    auto res = parallel_toom_multiply(a, b, cfg);
    std::printf("parallel Toom-2 on a 3x3 grid, n=%zu bits; product %s\n\n",
                bits, res.product == a * b ? "verified" : "WRONG");

    const EventLog& log = *res.events;
    const int world = cfg.processors;
    std::printf("words sent, all phases (digit = log10 of words; '.' = none):\n%s\n",
                render_comm_matrix(log, world).c_str());
    std::printf("BFS step 0 only — communication stays within grid *rows* "
                "{0,1,2}, {3,4,5}, {6,7,8}:\n%s\n",
                render_comm_matrix(log, world, "xfwd-L0").c_str());
    std::printf("BFS step 1 only — rows of the repositioned grid are the "
                "column subgroups {c, c+3, c+6}:\n%s\n",
                render_comm_matrix(log, world, "xfwd-L1").c_str());
    std::printf("phase walk of each processor:\n%s",
                render_phase_walks(log, world).c_str());
    return 0;
}
