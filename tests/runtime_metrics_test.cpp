// Tests for the runtime metrics registry (src/runtime/metrics.*): exactness
// of sharded counters under concurrent writers, histogram `le` bucket edges,
// label-set canonicalization, snapshot determinism, the ftmul.metrics v1
// JSON export, Prometheus text escaping, and the inertness guarantee of a
// disabled registry. The concurrency tests run on plain threads so the TSan
// CI job exercises the wait-free shard paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bigint/limb_ops.hpp"
#include "bigint/random.hpp"
#include "core/parallel.hpp"
#include "runtime/metrics.hpp"
#include "toom/sequential.hpp"

namespace ftmul {
namespace {

const MetricSample* find_sample(const MetricsSnapshot& snap,
                                const std::string& name,
                                const MetricLabels& labels = {}) {
    for (const MetricSample& s : snap.samples) {
        if (s.name == name && s.labels == labels) return &s;
    }
    return nullptr;
}

TEST(Metrics, CounterCountsAndGaugeOps) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const Counter c = reg.counter("requests_total", {}, "help text");
    EXPECT_TRUE(c.live());
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    const Gauge g = reg.gauge("depth");
    g.set(7);
    EXPECT_EQ(g.value(), 7);
    g.add(-3);
    EXPECT_EQ(g.value(), 4);
    g.update_max(10);
    EXPECT_EQ(g.value(), 10);
    g.update_max(2);  // lower: high-water mark keeps 10
    EXPECT_EQ(g.value(), 10);
}

TEST(Metrics, DisabledRegistryIsInert) {
    MetricsRegistry reg;  // starts disabled
    ASSERT_FALSE(reg.enabled());
    const Counter c = reg.counter("noop_total");
    const Histogram h = reg.histogram("noop_us", {}, {10, 100});
    EXPECT_FALSE(c.live());
    EXPECT_FALSE(h.live());
    c.inc(5);
    h.observe(3);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);

    // A default-constructed (unbound) handle must also be a safe no-op.
    const Counter unbound;
    unbound.inc();
    EXPECT_EQ(unbound.value(), 0u);
    EXPECT_FALSE(unbound.live());
}

TEST(Metrics, ConcurrentIncrementsMergeToExactTotals) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const Counter c = reg.counter("concurrent_total");
    const Histogram h = reg.histogram("concurrent_obs", {}, {8});

    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;
    std::vector<std::thread> workers;
    for (std::size_t worker = 0; worker < kThreads; ++worker) {
        workers.emplace_back([&, worker] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                c.inc();
                h.observe(worker);  // workers 0..8 straddle the le=8 edge
            }
        });
    }
    for (std::thread& t : workers) t.join();

    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    std::uint64_t expected_sum = 0;
    for (std::size_t w = 0; w < kThreads; ++w) expected_sum += w * kPerThread;
    EXPECT_EQ(h.sum(), expected_sum);
}

TEST(Metrics, HistogramBucketEdgesAreLeInclusive) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const Histogram h = reg.histogram("edges", {}, {10, 100});
    h.observe(0);
    h.observe(10);   // == bound: le semantics put it in the first bucket
    h.observe(11);
    h.observe(100);  // == bound: second bucket
    h.observe(101);  // overflow (+Inf)

    const MetricsSnapshot snap = reg.snapshot();
    const MetricSample* s = find_sample(snap, "edges");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->bounds, (std::vector<std::uint64_t>{10, 100}));
    ASSERT_EQ(s->buckets.size(), 3u);  // bounds + the +Inf overflow bucket
    EXPECT_EQ(s->buckets[0], 2u);      // 0, 10
    EXPECT_EQ(s->buckets[1], 2u);      // 11, 100
    EXPECT_EQ(s->buckets[2], 1u);      // 101
    EXPECT_EQ(s->count, 5u);
    EXPECT_EQ(s->sum, 222u);
}

TEST(Metrics, LabelOrderIsCanonicalized) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    // The same label *set* in two orders must address the same storage.
    const Counter c1 = reg.counter("ops_total", {{"b", "2"}, {"a", "1"}});
    const Counter c2 = reg.counter("ops_total", {{"a", "1"}, {"b", "2"}});
    c1.inc();
    c2.inc();

    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 1u);
    EXPECT_EQ(snap.samples[0].value, 2u);
    // Exported labels come out key-sorted regardless of registration order.
    ASSERT_EQ(snap.samples[0].labels.size(), 2u);
    EXPECT_EQ(snap.samples[0].labels[0].first, "a");
    EXPECT_EQ(snap.samples[0].labels[1].first, "b");
}

TEST(Metrics, SnapshotOrderIndependentOfRegistrationOrder) {
    auto build = [](bool reversed) {
        auto reg = std::make_unique<MetricsRegistry>();
        reg->set_enabled(true);
        std::vector<std::pair<std::string, std::string>> engines = {
            {"zeta", "1"}, {"alpha", "2"}, {"mid", "3"}};
        if (reversed) std::reverse(engines.begin(), engines.end());
        for (const auto& [e, v] : engines) {
            reg->counter("runs_total", {{"engine", e}}).inc();
        }
        reg->gauge("a_gauge").set(1);
        return reg;
    };
    const auto r1 = build(false);
    const auto r2 = build(true);
    const MetricsSnapshot s1 = r1->snapshot();
    const MetricsSnapshot s2 = r2->snapshot();
    ASSERT_EQ(s1.samples.size(), s2.samples.size());
    for (std::size_t i = 0; i < s1.samples.size(); ++i) {
        EXPECT_EQ(s1.samples[i].name, s2.samples[i].name);
        EXPECT_EQ(s1.samples[i].labels, s2.samples[i].labels);
    }
    // And the rendered exports agree byte-for-byte.
    EXPECT_EQ(s1.to_json().dump(2), s2.to_json().dump(2));
    EXPECT_EQ(s1.to_prometheus(), s2.to_prometheus());
}

TEST(Metrics, JsonExportMatchesSchema) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.counter("c_total", {{"kind", "x"}}, "a counter").inc(3);
    reg.gauge("g").set(-4);
    const Histogram h = reg.histogram("h_us", {}, {10, 100});
    h.observe(5);
    h.observe(1000);

    const Json doc = reg.snapshot().to_json();
    EXPECT_EQ(doc.at("schema").as_string(), kMetricsSchema);
    EXPECT_EQ(doc.at("version").as_int(), kMetricsVersion);
    ASSERT_EQ(doc.at("counters").size(), 1u);
    const Json& c = doc.at("counters").at(0);
    EXPECT_EQ(c.at("name").as_string(), "c_total");
    EXPECT_EQ(c.at("labels").at("kind").as_string(), "x");
    EXPECT_EQ(c.at("value").as_int(), 3);
    ASSERT_EQ(doc.at("gauges").size(), 1u);
    EXPECT_EQ(doc.at("gauges").at(0).at("value").as_int(), -4);

    ASSERT_EQ(doc.at("histograms").size(), 1u);
    const Json& jh = doc.at("histograms").at(0);
    EXPECT_EQ(jh.at("count").as_int(), 2);
    EXPECT_EQ(jh.at("sum").as_int(), 1005);
    // Buckets are exported cumulatively; the +Inf bucket equals count.
    const Json& buckets = jh.at("buckets");
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets.at(0).at("le").as_int(), 10);
    EXPECT_EQ(buckets.at(0).at("count").as_int(), 1);
    EXPECT_EQ(buckets.at(1).at("count").as_int(), 1);
    EXPECT_EQ(buckets.at(2).at("le").as_string(), "+Inf");
    EXPECT_EQ(buckets.at(2).at("count").as_int(), 2);
}

TEST(Metrics, PrometheusTextEscapesLabelValues) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.counter("esc_total", {{"path", "a\\b\"c\nd"}}).inc();
    const std::string text = reg.snapshot().to_prometheus();
    EXPECT_NE(text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE esc_total counter"), std::string::npos);
}

TEST(Metrics, PrometheusHistogramIsCumulative) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const Histogram h = reg.histogram("lat_us", {{"op", "x"}}, {10});
    h.observe(5);
    h.observe(50);
    const std::string text = reg.snapshot().to_prometheus();
    EXPECT_NE(text.find("lat_us_bucket{op=\"x\",le=\"10\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("lat_us_bucket{op=\"x\",le=\"+Inf\"} 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("lat_us_sum{op=\"x\"} 55"), std::string::npos);
    EXPECT_NE(text.find("lat_us_count{op=\"x\"} 2"), std::string::npos);
}

TEST(Metrics, RegistrationValidation) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.counter("taken_total");
    // Same key, different kind.
    EXPECT_THROW(reg.gauge("taken_total"), std::logic_error);
    // Same histogram re-registered with different bounds.
    reg.histogram("hist", {}, {1, 2});
    EXPECT_THROW(reg.histogram("hist", {}, {1, 3}), std::logic_error);
    // Invalid names / labels / bounds.
    EXPECT_THROW(reg.counter("1starts_with_digit"), std::invalid_argument);
    EXPECT_THROW(reg.counter("has space"), std::invalid_argument);
    EXPECT_THROW(reg.counter("ok", {{"bad key", "v"}}),
                 std::invalid_argument);
    EXPECT_THROW(reg.counter("ok", {{"k", "1"}, {"k", "2"}}),
                 std::invalid_argument);
    EXPECT_THROW(reg.histogram("decreasing", {}, {10, 10}),
                 std::invalid_argument);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const Counter c = reg.counter("r_total");
    const Histogram h = reg.histogram("r_us", {}, {10});
    c.inc(5);
    h.observe(3);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_NE(find_sample(snap, "r_total"), nullptr);
    EXPECT_NE(find_sample(snap, "r_us"), nullptr);
    c.inc();  // handles stay bound after reset
    EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, ProfileScopeObservesOnlyWhenLive) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    const Histogram h = reg.histogram("scope_us", {}, duration_buckets_us());
    { ProfileScope scope(h); }
    EXPECT_EQ(h.count(), 1u);

    reg.set_enabled(false);
    { ProfileScope scope(h); }  // dead histogram: clock never read
    reg.set_enabled(true);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Metrics, ExponentialBucketsAreStrictlyIncreasing) {
    const std::vector<std::uint64_t> b = exponential_buckets(100, 4.0, 12);
    ASSERT_EQ(b.size(), 12u);
    EXPECT_EQ(b.front(), 100u);
    for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
    const std::vector<std::uint64_t>& d = duration_buckets_us();
    for (std::size_t i = 1; i < d.size(); ++i) EXPECT_GT(d[i], d[i - 1]);
}

TEST(Metrics, CollectorRunsAtSnapshot) {
    MetricsRegistry reg;
    reg.set_enabled(true);
    int calls = 0;
    reg.add_collector([&]() {
        ++calls;
        // Collectors may register instruments (runs outside the lock).
        reg.gauge("collected").set(calls);
    });
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(calls, 1);
    const MetricSample* s = find_sample(snap, "collected");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->gauge_value, 1);
}

/// End-to-end through the global registry: a parallel multiply with metrics
/// enabled ticks the built-in engine/machine/collective instruments.
TEST(Metrics, GlobalWiringCountsAParallelRun) {
    MetricsRegistry& reg = MetricsRegistry::global();
    const bool was_enabled = reg.enabled();
    reg.set_enabled(true);

    const Counter runs =
        reg.counter("ftmul_engine_runs_total", {{"engine", "parallel"}});
    const Counter msgs = reg.counter("ftmul_machine_messages_total");
    const std::uint64_t runs_before = runs.value();
    const std::uint64_t msgs_before = msgs.value();

    Rng rng(7);
    const BigInt a = random_bits(rng, 256);
    const BigInt b = random_bits(rng, 300);
    ParallelConfig cfg;
    cfg.k = 2;
    cfg.processors = 3;
    const ParallelRunResult r = parallel_toom_multiply(a, b, cfg);
    EXPECT_EQ(r.product, toom_multiply(a, b, ToomPlan::make(3)));

    EXPECT_EQ(runs.value(), runs_before + 1);
    EXPECT_GT(msgs.value(), msgs_before);

    reg.set_enabled(was_enabled);
}

TEST(Metrics, KernelRowHistogramsFollowTheRegistrySwitch) {
    MetricsRegistry& reg = MetricsRegistry::global();
    const bool was_enabled = reg.enabled();

    // Disabled by default: kernels record nothing.
    reg.set_enabled(false);
    EXPECT_FALSE(detail::kernel_stats::enabled());
    detail::kernel_stats::reset();
    (void)detail::mul(detail::Limbs(100, 7), detail::Limbs(200, 9));
    auto snap = detail::kernel_stats::snapshot();
    std::uint64_t total = 0;
    for (const auto c : snap.mul_rows) total += c;
    EXPECT_EQ(total, 0u);

    // Enabling the registry flips the kernel flag; a 100x200 schoolbook
    // product streams its rows at length 200 → bucket 7 ([128, 256)).
    reg.set_enabled(true);
    EXPECT_TRUE(detail::kernel_stats::enabled());
    (void)detail::mul(detail::Limbs(100, 7), detail::Limbs(200, 9));
    snap = detail::kernel_stats::snapshot();
    EXPECT_GE(snap.mul_rows[7], 1u);

    // The collector publishes nonzero buckets as labeled gauges.
    const MetricsSnapshot ms = reg.snapshot();
    const bool found = std::any_of(
        ms.samples.begin(), ms.samples.end(), [](const auto& m) {
            return m.name == "ftmul_kernel_rows";
        });
    EXPECT_TRUE(found);

    detail::kernel_stats::reset();
    reg.set_enabled(was_enabled);
}

}  // namespace
}  // namespace ftmul
