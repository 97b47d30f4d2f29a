// The observability layer: typed event log, JSON library, run report and
// Chrome-trace export (docs/OBSERVABILITY.md).

#include "runtime/events.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "../bench/common.hpp"
#include "bigint/random.hpp"
#include "core/ft_linear.hpp"
#include "core/parallel.hpp"
#include "runtime/collectives.hpp"
#include "runtime/json.hpp"
#include "runtime/machine.hpp"
#include "runtime/report.hpp"

namespace ftmul {
namespace {

// ---------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------

TEST(EventLog, RecordsPhaseAndMessageEvents) {
    Machine m(2);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        r.phase("work");
        if (r.id() == 0) r.send(1, 7, {1, 2, 3});
        if (r.id() == 1) (void)r.recv(0, 7);
    });
    EXPECT_GT(log.size(), 0u);
    EXPECT_EQ(log.world(), 2);

    const auto sends = log.of_kind(EventKind::MessageSend);
    ASSERT_EQ(sends.size(), 1u);
    EXPECT_EQ(sends[0].rank, 0);
    EXPECT_EQ(sends[0].peer, 1);
    EXPECT_EQ(sends[0].tag, 7);
    EXPECT_EQ(sends[0].words, 3u);
    EXPECT_EQ(sends[0].phase, "work");

    std::set<int> entered;
    for (const Event& e : log.of_kind(EventKind::PhaseBegin)) {
        if (e.phase == "work") entered.insert(e.rank);
    }
    EXPECT_EQ(entered, (std::set<int>{0, 1}));

    const auto recvs = log.of_kind(EventKind::MessageRecv);
    ASSERT_EQ(recvs.size(), 1u);
    EXPECT_EQ(recvs[0].rank, 1);
    EXPECT_EQ(recvs[0].peer, 0);
    EXPECT_EQ(recvs[0].words, 3u);
}

TEST(EventLog, PhaseEndCarriesTheClosedPhaseCounters) {
    Machine m(1);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        r.phase("alpha");
        r.add_latency(42);
        r.phase("beta");  // closes alpha
    });
    bool saw_alpha_end = false;
    for (const Event& e : log.of_kind(EventKind::PhaseEnd)) {
        if (e.phase == "alpha") {
            saw_alpha_end = true;
            EXPECT_EQ(e.counters.latency, 42u);
        }
    }
    EXPECT_TRUE(saw_alpha_end);
}

TEST(EventLog, ConcurrentRanksGetGapFreeSeqAndPerRankProgramOrder) {
    // Many ranks hammer the log concurrently; the invariants the exports
    // rely on: globally gap-free seq numbers, per-rank monotone seq, and
    // balanced begin/end pairs per rank.
    constexpr int kWorld = 8;
    Machine m(kWorld);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        for (int i = 0; i < 25; ++i) {
            std::string phase = "p";  // appends: GCC 12 -Wrestrict
            phase += std::to_string(i);
            r.phase(phase);
            r.add_latency(1);
            const int peer = (r.id() + 1) % kWorld;
            const int prev = (r.id() + kWorld - 1) % kWorld;
            r.send(peer, i, {static_cast<std::uint64_t>(i)});
            (void)r.recv(prev, i);
        }
    });
    const auto all = log.events();
    ASSERT_EQ(all.size(), log.size());
    std::map<int, std::uint64_t> last_seq;
    std::map<int, int> open_phases;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Event& e = all[i];
        EXPECT_EQ(e.seq, i);  // gap-free admission order
        auto it = last_seq.find(e.rank);
        if (it != last_seq.end()) {
            EXPECT_GT(e.seq, it->second);  // per-rank program order
        }
        last_seq[e.rank] = e.seq;
        if (e.kind == EventKind::PhaseBegin) ++open_phases[e.rank];
        if (e.kind == EventKind::PhaseEnd) --open_phases[e.rank];
    }
    EXPECT_EQ(last_seq.size(), static_cast<std::size_t>(kWorld));
    // run() closes every rank's final phase, so the pairs balance.
    for (const auto& [rank, open] : open_phases) {
        EXPECT_EQ(open, 0) << "rank " << rank;
    }
    // for_rank agrees with filtering the global snapshot.
    const auto r0 = log.for_rank(0);
    std::size_t count0 = 0;
    for (const Event& e : all) count0 += e.rank == 0 ? 1 : 0;
    EXPECT_EQ(r0.size(), count0);
}

TEST(EventLog, ClearedBetweenRuns) {
    Machine m(2);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        r.phase("first");
        if (r.id() == 0) r.send(1, 1, {9});
        if (r.id() == 1) (void)r.recv(0, 1);
    });
    const auto n1 = log.size();
    EXPECT_GT(n1, 0u);
    EXPECT_EQ(log.of_kind(EventKind::MessageSend).size(), 1u);
    m.run([&](Rank& r) { r.phase("second"); });
    EXPECT_TRUE(log.of_kind(EventKind::MessageSend).empty());
    for (const Event& e : log.events()) {
        EXPECT_NE(e.phase, "first");
    }
}

TEST(EventLog, ParallelToomCommunicatesOnlyWithinRows) {
    // The paper's structural claim (Section 3 / Figure 1): "A BFS step
    // involves communication only within rows of the grid". Level-0 rows of
    // the 3x3 grid are {0,1,2}, {3,4,5}, {6,7,8}; level-1 rows are the
    // column subgroups {c, c+3, c+6}.
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 9;
    cfg.digit_bits = 32;
    cfg.events = true;
    Rng rng{5};
    BigInt a = random_bits(rng, 3000), b = random_bits(rng, 3000);
    auto res = parallel_toom_multiply(a, b, cfg);
    ASSERT_NE(res.events, nullptr);

    int level0_sends = 0, level1_sends = 0;
    for (const Event& e : res.events->of_kind(EventKind::MessageSend)) {
        const bool level0 = e.phase.find("L0") != std::string::npos;
        const bool level1 = e.phase.find("L1") != std::string::npos;
        ASSERT_TRUE(level0 || level1) << e.phase;
        if (level0) {
            ++level0_sends;
            EXPECT_EQ(e.rank / 3, e.peer / 3)
                << e.rank << "->" << e.peer << " in " << e.phase;
        } else {
            ++level1_sends;
            EXPECT_EQ(e.rank % 3, e.peer % 3)
                << e.rank << "->" << e.peer << " in " << e.phase;
        }
    }
    EXPECT_GT(level0_sends, 0);
    EXPECT_GT(level1_sends, 0);

    // Every rank walks the same phase skeleton.
    std::vector<std::set<std::string>> walks(9);
    for (const Event& e : res.events->of_kind(EventKind::PhaseBegin)) {
        walks[static_cast<std::size_t>(e.rank)].insert(e.phase);
    }
    for (std::size_t r = 0; r < walks.size(); ++r) {
        EXPECT_EQ(walks[r].count("eval-L0"), 1u) << "rank " << r;
        EXPECT_EQ(walks[r].count("leaf-mul"), 1u) << "rank " << r;
    }
}

struct TrafficCase {
    const char* name;
    int k;
    int P;
    int dfs_steps;
    bool fault;
};

void PrintTo(const TrafficCase& c, std::ostream* os) { *os << c.name; }

class EventLogTraffic : public ::testing::TestWithParam<TrafficCase> {};

TEST_P(EventLogTraffic, SendEventsAddUpToTheChargedTraffic) {
    // The communication matrices comm_structure prints are built from the
    // log's MessageSend events; per phase, their count and words must be
    // exactly the messages and words the cost ledgers charged.
    const TrafficCase c = GetParam();
    Rng rng{static_cast<std::uint64_t>(c.P * 10 + c.k)};
    const BigInt a = random_bits(rng, 4000), b = random_bits(rng, 3500);
    ParallelConfig base;
    base.k = c.k;
    base.processors = c.P;
    base.digit_bits = 32;
    base.forced_dfs_steps = c.dfs_steps;
    base.events = true;
    RunStats stats;
    std::shared_ptr<EventLog> log;
    if (c.fault) {
        FaultPlan plan;
        plan.add("eval-L0", 1);
        plan.add("leaf-mul", c.P - 1);
        auto res = ft_linear_multiply(a, b, {base, 1}, plan);
        EXPECT_EQ(res.product, a * b);
        stats = res.stats;
        log = res.events;
    } else {
        auto res = parallel_toom_multiply(a, b, base);
        EXPECT_EQ(res.product, a * b);
        stats = res.stats;
        log = res.events;
    }
    ASSERT_NE(log, nullptr);
    std::map<std::string, CostCounters> sent;
    for (const Event& e : log->of_kind(EventKind::MessageSend)) {
        sent[e.phase].words += e.words;
        sent[e.phase].msgs += 1;
    }
    EXPECT_FALSE(sent.empty());
    for (const auto& [phase, agg] : stats.per_phase_agg) {
        EXPECT_EQ(sent[phase].words, agg.words) << c.name << " " << phase;
        EXPECT_EQ(sent[phase].msgs, agg.msgs) << c.name << " " << phase;
    }
    for (const auto& [phase, s] : sent) {
        EXPECT_EQ(stats.per_phase_agg.count(phase), 1u) << c.name << " " << phase;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, EventLogTraffic,
    ::testing::Values(TrafficCase{"bfs_k2_P9", 2, 9, -1, false},
                      TrafficCase{"bfs_k3_P25", 3, 25, -1, false},
                      TrafficCase{"dfs_k2_P9", 2, 9, 1, false},
                      TrafficCase{"ft_linear_k2_P9", 2, 9, -1, true}),
    [](const ::testing::TestParamInfo<TrafficCase>& info) {
        return std::string(info.param.name);
    });

TEST(EventLog, CollectivesStayInsideTheirGroup) {
    Machine m(6);
    EventLog& log = m.enable_event_log();
    m.run([&](Rank& r) {
        Group g = r.id() < 3 ? Group::strided(0, 3) : Group::strided(3, 3);
        (void)allreduce_sum(r, g, {BigInt{1}}, 4);
    });
    const auto sends = log.of_kind(EventKind::MessageSend);
    EXPECT_FALSE(sends.empty());
    for (const Event& e : sends) {
        EXPECT_EQ(e.rank < 3, e.peer < 3) << e.rank << "->" << e.peer;
    }
}

// ---------------------------------------------------------------------
// JSON library
// ---------------------------------------------------------------------

TEST(Json, RoundTripsThroughDumpAndParse) {
    Json obj = Json::object();
    obj.set("int", static_cast<std::int64_t>(-42));
    obj.set("uint", std::uint64_t{18446744073709551615ull});
    obj.set("double", 1.5);
    obj.set("string", "hi \"there\"\n\\");
    obj.set("bool", true);
    obj.set("null", Json{});
    Json arr = Json::array();
    arr.push_back(1);
    arr.push_back("two");
    obj.set("arr", std::move(arr));

    for (int indent : {0, 2}) {
        const Json back = Json::parse(obj.dump(indent));
        EXPECT_EQ(back.at("int").as_int(), -42);
        EXPECT_EQ(back.at("uint").as_uint(), 18446744073709551615ull);
        EXPECT_DOUBLE_EQ(back.at("double").as_double(), 1.5);
        EXPECT_EQ(back.at("string").as_string(), "hi \"there\"\n\\");
        EXPECT_TRUE(back.at("bool").as_bool());
        EXPECT_EQ(back.at("null").type(), Json::Type::Null);
        ASSERT_EQ(back.at("arr").size(), 2u);
        EXPECT_EQ(back.at("arr").at(0).as_int(), 1);
        EXPECT_EQ(back.at("arr").at(1).as_string(), "two");
    }
}

TEST(Json, ObjectsPreserveInsertionOrder) {
    Json obj = Json::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("mango", 3);
    const std::string s = obj.dump();
    EXPECT_LT(s.find("zebra"), s.find("apple"));
    EXPECT_LT(s.find("apple"), s.find("mango"));
}

TEST(Json, ParserRejectsGarbage) {
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
    EXPECT_THROW(Json::parse("'single'"), std::runtime_error);
}

// ---------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------

FtRunResult faulty_linear_run() {
    Rng rng{7};
    const BigInt a = random_bits(rng, 4000);
    const BigInt b = random_bits(rng, 4000);
    ParallelConfig base;
    base.k = 2;
    base.processors = 9;
    base.digit_bits = 32;
    base.events = true;
    FaultPlan plan;
    plan.add("eval-L0", 4);
    return ft_linear_multiply(a, b, FtLinearConfig{base, 1}, plan);
}

TEST(RunReport, SchemaVersionedAndComplete) {
    const FtRunResult res = faulty_linear_run();
    ASSERT_NE(res.events, nullptr);

    ReportMeta meta;
    meta.algorithm = "ft-linear";
    meta.processors = 9;
    meta.extra_processors = res.extra_processors;
    meta.tolerance = 1;
    const Json r = Json::parse(
        run_report_json(res.stats, meta, nullptr, res.events.get()));

    EXPECT_EQ(r.at("schema").as_string(), kRunReportSchema);
    EXPECT_EQ(r.at("version").as_int(), kRunReportVersion);
    EXPECT_EQ(r.at("algorithm").as_string(), "ft-linear");
    EXPECT_EQ(r.at("machine").at("world").as_int(), 12);
    EXPECT_EQ(r.at("machine").at("extra_processors").as_int(), 3);

    // Per-phase table mirrors RunStats, with critical and aggregate counters.
    ASSERT_GT(r.at("phases").size(), 0u);
    bool saw_recover_phase = false;
    for (const Json& p : r.at("phases").items()) {
        EXPECT_FALSE(p.at("name").as_string().empty());
        EXPECT_GE(p.at("aggregate").at("flops").as_uint(),
                  p.at("critical").at("flops").as_uint());
        if (p.at("name").as_string() == "recover-eval-L0") {
            saw_recover_phase = true;
        }
    }
    EXPECT_TRUE(saw_recover_phase);

    // The injected fault and its (nonzero-cost) recoveries.
    ASSERT_EQ(r.at("faults").size(), 1u);
    EXPECT_EQ(r.at("faults").at(0).at("phase").as_string(), "eval-L0");
    EXPECT_EQ(r.at("faults").at(0).at("rank").as_int(), 4);

    ASSERT_GT(r.at("recoveries").size(), 0u);
    for (const Json& rec : r.at("recoveries").items()) {
        EXPECT_EQ(rec.at("phase").as_string(), "recover-eval-L0");
        ASSERT_EQ(rec.at("ranks").size(), 1u);
        EXPECT_EQ(rec.at("ranks").at(0).as_int(), 4);
    }
    EXPECT_GT(r.at("recovery_total").at("words").as_uint(), 0u);
    EXPECT_GT(r.at("recovery_total").at("flops").as_uint(), 0u);
    EXPECT_GT(r.at("events").at("count").as_uint(), 0u);
}

TEST(RunReport, TransportSectionOnlyWhenGuardSentFrames) {
    const FtRunResult res = faulty_linear_run();

    // Guard off (or no TransportStats passed): no "transport" key, so v1
    // consumers of guard-off reports read unchanged bytes.
    Json off = Json::parse(run_report_json(res.stats));
    EXPECT_EQ(off.find("transport"), nullptr);
    TransportStats idle;  // guard never armed: zero frames
    off = Json::parse(
        run_report_json(res.stats, {}, nullptr, nullptr, {}, &idle));
    EXPECT_EQ(off.find("transport"), nullptr);

    // Guard on: the section carries traffic, retention, acks, recovery and
    // detection sub-objects.
    TransportStats t;
    t.sent_frames = 10;
    t.header_words = 10 * 5;
    t.retained_frames = 10;
    t.retained_words = 40;
    t.acked_seqs = 10;
    t.acks_piggybacked = 4;
    t.acks_standalone = 1;
    t.retransmits = 2;
    t.retransmit_words = 8;
    t.corrupt_detected = 2;
    const Json on = Json::parse(
        run_report_json(res.stats, {}, nullptr, nullptr, {}, &t));
    ASSERT_NE(on.find("transport"), nullptr);
    const Json& sec = on.at("transport");
    EXPECT_EQ(sec.at("sent_frames").as_uint(), 10u);
    EXPECT_EQ(sec.at("retention").at("frames").as_uint(), 10u);
    EXPECT_EQ(sec.at("retention").at("words").as_uint(), 40u);
    EXPECT_EQ(sec.at("retention").at("live_streams_end").as_uint(), 0u);
    EXPECT_EQ(sec.at("acks").at("seqs").as_uint(), 10u);
    EXPECT_EQ(sec.at("acks").at("piggybacked").as_uint(), 4u);
    EXPECT_EQ(sec.at("acks").at("standalone").as_uint(), 1u);
    EXPECT_EQ(sec.at("recovery").at("retransmits").as_uint(), 2u);
    EXPECT_EQ(sec.at("detected").at("corrupt").as_uint(), 2u);
    EXPECT_EQ(sec.at("detected").at("total").as_uint(), 2u);
}

TEST(RunReport, FallsBackToPlanAndPhaseBucketsWithoutEvents) {
    const FtRunResult res = faulty_linear_run();
    FaultPlan plan;
    plan.add("eval-L0", 4);
    const Json r =
        Json::parse(run_report_json(res.stats, {}, &plan, nullptr));
    ASSERT_EQ(r.at("faults").size(), 1u);
    EXPECT_EQ(r.at("faults").at(0).at("rank").as_int(), 4);
    // Recovery costs fall back to the machine-wide recover-* buckets.
    ASSERT_GT(r.at("recoveries").size(), 0u);
    EXPECT_GT(r.at("recovery_total").at("words").as_uint(), 0u);
}

// ---------------------------------------------------------------------
// Chrome trace
// ---------------------------------------------------------------------

TEST(ChromeTrace, ValidTraceEventFormat) {
    const FtRunResult res = faulty_linear_run();
    ASSERT_NE(res.events, nullptr);
    const Json t = Json::parse(chrome_trace_json(*res.events));

    EXPECT_EQ(t.at("otherData").at("schema").as_string(), kChromeTraceSchema);
    EXPECT_EQ(t.at("otherData").at("version").as_int(), kChromeTraceVersion);
    const int world = static_cast<int>(t.at("otherData").at("world").as_int());
    EXPECT_EQ(world, 12);

    // One named track per rank.
    std::set<std::int64_t> named_tids;
    std::size_t durations = 0, instants = 0, flows_s = 0, flows_f = 0;
    std::set<std::int64_t> s_ids, f_ids;
    for (const Json& e : t.at("traceEvents").items()) {
        const std::string ph = e.at("ph").as_string();
        if (ph == "M" && e.at("name").as_string() == "thread_name") {
            named_tids.insert(e.at("tid").as_int());
        } else if (ph == "X") {
            ++durations;
            EXPECT_NE(e.find("dur"), nullptr);
            EXPECT_GE(e.at("dur").as_int(), 0);
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(e.at("cat").as_string(), "fault");
            EXPECT_EQ(e.at("tid").as_int(), 4);
        } else if (ph == "s") {
            ++flows_s;
            s_ids.insert(e.at("id").as_int());
        } else if (ph == "f") {
            ++flows_f;
            f_ids.insert(e.at("id").as_int());
        }
    }
    EXPECT_EQ(named_tids.size(), static_cast<std::size_t>(world));
    EXPECT_GT(durations, 0u);
    EXPECT_EQ(instants, 1u);  // exactly the injected fault
    EXPECT_GT(flows_s, 0u);
    EXPECT_EQ(flows_s, flows_f);  // every send matched to its receive
    EXPECT_EQ(s_ids, f_ids);
}

// ---------------------------------------------------------------------
// Bench JSON rows
// ---------------------------------------------------------------------

TEST(BenchJson, WritesAndParsesBack) {
    ::setenv("FTMUL_BENCH_DIR", ::testing::TempDir().c_str(), 1);
    bench::JsonReport report("unit_test");
    std::vector<bench::Row> rows;
    bench::Row base;
    base.name = "baseline";
    base.crit = {100, 200, 8, 16};
    base.agg = {900, 1800, 72, 144};
    base.peak_mem = 64;
    base.processors = 9;
    rows.push_back(base);
    bench::Row ft = base;
    ft.name = "ft";
    ft.extra_processors = 3;
    ft.tolerance = 1;
    rows.push_back(ft);
    report.add_table("unit table", rows, 0);
    ASSERT_TRUE(report.write());

    std::ifstream in(report.path());
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const Json r = Json::parse(ss.str());
    EXPECT_EQ(r.at("schema").as_string(), kBenchRowsSchema);
    EXPECT_EQ(r.at("version").as_int(), kBenchRowsVersion);
    EXPECT_EQ(r.at("bench").as_string(), "unit_test");
    ASSERT_EQ(r.at("tables").size(), 1u);
    const Json& table = r.at("tables").at(0);
    EXPECT_EQ(table.at("title").as_string(), "unit table");
    EXPECT_EQ(table.at("baseline").as_uint(), 0u);
    ASSERT_EQ(table.at("rows").size(), 2u);
    EXPECT_EQ(table.at("rows").at(0).at("name").as_string(), "baseline");
    EXPECT_EQ(table.at("rows").at(0).at("critical").at("flops").as_uint(),
              100u);
    EXPECT_EQ(table.at("rows").at(1).at("extra_processors").as_int(), 3);
    EXPECT_TRUE(table.at("rows").at(1).at("ok").as_bool());
    ::unsetenv("FTMUL_BENCH_DIR");
}

}  // namespace
}  // namespace ftmul
