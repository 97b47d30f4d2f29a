#include "runtime/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bigint/limb_arena.hpp"
#include "bigint/limb_ops.hpp"
#include "runtime/msg_pool.hpp"

namespace ftmul {

const char* to_string(MetricKind kind) {
    switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
    }
    return "unknown";
}

namespace detail_metrics {

// Shard count for wait-free writers. Each shard is cache-line padded;
// threads pick a slot round-robin once and keep it for life, so two busy
// threads rarely share a line. Snapshot sums the shards.
constexpr std::size_t kShards = 16;
static_assert((kShards & (kShards - 1)) == 0, "kShards must be a power of 2");

std::size_t shard_slot() noexcept {
    static std::atomic<unsigned> next{0};
    static thread_local const unsigned slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot & (kShards - 1);
}

struct alignas(64) PaddedCell {
    std::atomic<std::uint64_t> v{0};
};

struct Instrument {
    MetricKind kind;
    std::string name;
    MetricLabels labels;
    std::string help;
    const std::atomic<bool>* enabled = nullptr;

    explicit Instrument(MetricKind k) : kind(k) {}
    virtual ~Instrument() = default;
    virtual void sample_into(MetricSample& out) const = 0;
    virtual void reset_state() = 0;
};

struct CounterImpl final : Instrument {
    CounterImpl() : Instrument(MetricKind::Counter) {}
    std::array<PaddedCell, kShards> shards;

    std::uint64_t total() const noexcept {
        std::uint64_t t = 0;
        for (const auto& s : shards) t += s.v.load(std::memory_order_relaxed);
        return t;
    }
    void sample_into(MetricSample& out) const override { out.value = total(); }
    void reset_state() override {
        for (auto& s : shards) s.v.store(0, std::memory_order_relaxed);
    }
};

struct GaugeImpl final : Instrument {
    GaugeImpl() : Instrument(MetricKind::Gauge) {}
    std::atomic<std::int64_t> v{0};

    void sample_into(MetricSample& out) const override {
        out.gauge_value = v.load(std::memory_order_relaxed);
    }
    void reset_state() override { v.store(0, std::memory_order_relaxed); }
};

struct HistogramImpl final : Instrument {
    explicit HistogramImpl(std::vector<std::uint64_t> b)
        : Instrument(MetricKind::Histogram), bounds(std::move(b)) {
        const std::size_t n = bounds.size() + 1;  // +Inf overflow bucket
        for (auto& s : shards) {
            s.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(n);
            for (std::size_t i = 0; i < n; ++i) s.buckets[i] = 0;
        }
    }

    struct alignas(64) Shard {
        std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
        std::atomic<std::uint64_t> sum{0};
    };
    std::vector<std::uint64_t> bounds;
    std::array<Shard, kShards> shards;

    void observe(std::uint64_t v) noexcept {
        // First bound >= v gives the `le` bucket; past-the-end is +Inf.
        const std::size_t idx = static_cast<std::size_t>(
            std::lower_bound(bounds.begin(), bounds.end(), v) -
            bounds.begin());
        Shard& s = shards[shard_slot()];
        s.buckets[idx].fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
    }
    void sample_into(MetricSample& out) const override {
        const std::size_t n = bounds.size() + 1;
        out.bounds = bounds;
        out.buckets.assign(n, 0);
        out.sum = 0;
        for (const auto& s : shards) {
            for (std::size_t i = 0; i < n; ++i) {
                out.buckets[i] +=
                    s.buckets[i].load(std::memory_order_relaxed);
            }
            out.sum += s.sum.load(std::memory_order_relaxed);
        }
        out.count = 0;
        for (std::uint64_t b : out.buckets) out.count += b;
    }
    void reset_state() override {
        const std::size_t n = bounds.size() + 1;
        for (auto& s : shards) {
            for (std::size_t i = 0; i < n; ++i) {
                s.buckets[i].store(0, std::memory_order_relaxed);
            }
            s.sum.store(0, std::memory_order_relaxed);
        }
    }
};

bool is_live(const Instrument* i) noexcept {
    return i != nullptr && i->enabled->load(std::memory_order_relaxed);
}

}  // namespace detail_metrics

using detail_metrics::CounterImpl;
using detail_metrics::GaugeImpl;
using detail_metrics::HistogramImpl;
using detail_metrics::is_live;

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

void Counter::inc(std::uint64_t n) const noexcept {
    if (!is_live(impl_)) return;
    impl_->shards[detail_metrics::shard_slot()].v.fetch_add(
        n, std::memory_order_relaxed);
}
std::uint64_t Counter::value() const noexcept {
    return impl_ ? impl_->total() : 0;
}
bool Counter::live() const noexcept { return is_live(impl_); }

void Gauge::set(std::int64_t v) const noexcept {
    if (is_live(impl_)) impl_->v.store(v, std::memory_order_relaxed);
}
void Gauge::add(std::int64_t delta) const noexcept {
    if (is_live(impl_)) impl_->v.fetch_add(delta, std::memory_order_relaxed);
}
void Gauge::update_max(std::int64_t v) const noexcept {
    if (!is_live(impl_)) return;
    std::int64_t cur = impl_->v.load(std::memory_order_relaxed);
    while (cur < v && !impl_->v.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
}
std::int64_t Gauge::value() const noexcept {
    return impl_ ? impl_->v.load(std::memory_order_relaxed) : 0;
}
bool Gauge::live() const noexcept { return is_live(impl_); }

void Histogram::observe(std::uint64_t v) const noexcept {
    if (is_live(impl_)) impl_->observe(v);
}
std::uint64_t Histogram::count() const noexcept {
    if (impl_ == nullptr) return 0;
    MetricSample s;
    impl_->sample_into(s);
    return s.count;
}
std::uint64_t Histogram::sum() const noexcept {
    if (impl_ == nullptr) return 0;
    MetricSample s;
    impl_->sample_into(s);
    return s.sum;
}
bool Histogram::live() const noexcept { return is_live(impl_); }

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
    std::atomic<bool> enabled{false};
    std::mutex mu;  // guards instruments
    // Canonical key -> instrument; the map's order IS the snapshot order,
    // which makes snapshots deterministic across registration order and
    // thread interleavings.
    std::map<std::string, std::unique_ptr<detail_metrics::Instrument>>
        instruments;
    std::mutex collectors_mu;
    std::vector<std::function<void()>> collectors;
};

namespace {

bool valid_metric_name(std::string_view name) {
    if (name.empty()) return false;
    auto head = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
               c == ':';
    };
    if (!head(name[0])) return false;
    for (char c : name.substr(1)) {
        if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) {
            return false;
        }
    }
    return true;
}

bool valid_label_key(const std::string& key) {
    if (key.empty()) return false;
    if (!std::isalpha(static_cast<unsigned char>(key[0])) && key[0] != '_') {
        return false;
    }
    for (char c : key.substr(1)) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
            return false;
        }
    }
    return true;
}

/// Sorts labels by key and builds the registry key. Separators are control
/// characters that valid names/keys can't contain, so distinct (name,
/// labels) pairs can't collide.
std::string canonical_key(std::string_view name, MetricLabels& labels) {
    std::sort(labels.begin(), labels.end());
    std::string key(name);
    for (const auto& [k, v] : labels) {
        key += '\x1e';
        key += k;
        key += '\x1f';
        key += v;
    }
    return key;
}

void validate(std::string_view name, const MetricLabels& labels) {
    if (!valid_metric_name(name)) {
        throw std::invalid_argument("metrics: invalid metric name \"" +
                                    std::string(name) + "\"");
    }
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (!valid_label_key(labels[i].first)) {
            throw std::invalid_argument("metrics: invalid label key \"" +
                                        labels[i].first + "\" on " +
                                        std::string(name));
        }
        if (i > 0 && labels[i].first == labels[i - 1].first) {
            throw std::invalid_argument("metrics: duplicate label key \"" +
                                        labels[i].first + "\" on " +
                                        std::string(name));
        }
    }
}

}  // namespace

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::global() {
    // Leaked on purpose; see the header. The arena collector lives here so
    // every export path (CLI, chaos, bench) sees arena high-water marks
    // without bigint ever depending on the runtime layer.
    static MetricsRegistry* reg = [] {
        auto* r = new MetricsRegistry();
        if (const char* env = std::getenv("FTMUL_METRICS")) {
            const std::string v = env;
            if (v == "1" || v == "true" || v == "on" || v == "yes") {
                // Not set_enabled(): it calls global(), whose static is
                // still being initialized here, and would never return.
                r->impl_->enabled.store(true, std::memory_order_relaxed);
                detail::kernel_stats::set_enabled(true);
            }
        }
        r->add_collector([r] {
            r->gauge("ftmul_arena_capacity_words_max", {},
                     "largest single LimbArena capacity seen (words)")
                .set(static_cast<std::int64_t>(
                    detail::LimbArena::process_capacity_high_water()));
            r->gauge("ftmul_arena_grows", {},
                     "LimbArena slab growths since process start")
                .set(static_cast<std::int64_t>(
                    detail::LimbArena::process_grow_count()));
        });
        r->add_collector([r] {
            const auto s = MsgPool::stats();
            const std::pair<const char*, std::uint64_t> rows[] = {
                {"acquires", s.acquires},       {"local_hits", s.local_hits},
                {"global_hits", s.global_hits}, {"fresh_allocs", s.fresh_allocs},
                {"returns", s.returns},         {"dropped", s.dropped},
                {"poison_failures", s.poison_failures},
            };
            for (const auto& [event, n] : rows) {
                r->gauge("ftmul_msgpool_events", {{"event", event}},
                         "MsgPool payload-buffer lifecycle counters")
                    .set(static_cast<std::int64_t>(n));
            }
        });
        r->add_collector([r] {
            if (!detail::kernel_stats::enabled()) return;
            const auto s = detail::kernel_stats::snapshot();
            const std::pair<const char*,
                            const std::array<std::uint64_t,
                                             detail::kernel_stats::kBuckets>*>
                kernels[] = {{"mul", &s.mul_rows},
                             {"addmul", &s.addmul_rows},
                             {"add", &s.add_rows}};
            for (const auto& [kernel, rows] : kernels) {
                for (std::size_t b = 0; b < rows->size(); ++b) {
                    if ((*rows)[b] == 0) continue;
                    r->gauge("ftmul_kernel_rows",
                             {{"ge", std::to_string(std::size_t{1} << b)},
                              {"kernel", kernel}},
                             "limb-kernel streamed rows by power-of-two "
                             "length bucket")
                        .set(static_cast<std::int64_t>((*rows)[b]));
                }
            }
        });
        return r;
    }();
    return *reg;
}

void MetricsRegistry::set_enabled(bool on) noexcept {
    impl_->enabled.store(on, std::memory_order_relaxed);
    // The limb-kernel row histograms ride the same switch: bigint cannot
    // see the registry (layering), so the registry pushes the flag down.
    if (this == &global()) detail::kernel_stats::set_enabled(on);
}
bool MetricsRegistry::enabled() const noexcept {
    return impl_->enabled.load(std::memory_order_relaxed);
}

Counter MetricsRegistry::counter(std::string_view name, MetricLabels labels,
                                 std::string_view help) {
    validate(name, labels);
    const std::string key = canonical_key(name, labels);
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->instruments.find(key);
    if (it == impl_->instruments.end()) {
        auto c = std::make_unique<CounterImpl>();
        c->name = std::string(name);
        c->labels = std::move(labels);
        c->help = std::string(help);
        c->enabled = &impl_->enabled;
        it = impl_->instruments.emplace(key, std::move(c)).first;
    } else if (it->second->kind != MetricKind::Counter) {
        throw std::logic_error("metrics: \"" + std::string(name) +
                               "\" already registered as " +
                               to_string(it->second->kind));
    }
    return Counter(static_cast<CounterImpl*>(it->second.get()));
}

Gauge MetricsRegistry::gauge(std::string_view name, MetricLabels labels,
                             std::string_view help) {
    validate(name, labels);
    const std::string key = canonical_key(name, labels);
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->instruments.find(key);
    if (it == impl_->instruments.end()) {
        auto g = std::make_unique<GaugeImpl>();
        g->name = std::string(name);
        g->labels = std::move(labels);
        g->help = std::string(help);
        g->enabled = &impl_->enabled;
        it = impl_->instruments.emplace(key, std::move(g)).first;
    } else if (it->second->kind != MetricKind::Gauge) {
        throw std::logic_error("metrics: \"" + std::string(name) +
                               "\" already registered as " +
                               to_string(it->second->kind));
    }
    return Gauge(static_cast<GaugeImpl*>(it->second.get()));
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     MetricLabels labels,
                                     std::vector<std::uint64_t> bounds,
                                     std::string_view help) {
    validate(name, labels);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        if (bounds[i] <= bounds[i - 1]) {
            throw std::invalid_argument(
                "metrics: histogram bounds must be strictly increasing (" +
                std::string(name) + ")");
        }
    }
    const std::string key = canonical_key(name, labels);
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto it = impl_->instruments.find(key);
    if (it == impl_->instruments.end()) {
        auto h = std::make_unique<HistogramImpl>(std::move(bounds));
        h->name = std::string(name);
        h->labels = std::move(labels);
        h->help = std::string(help);
        h->enabled = &impl_->enabled;
        it = impl_->instruments.emplace(key, std::move(h)).first;
    } else if (it->second->kind != MetricKind::Histogram) {
        throw std::logic_error("metrics: \"" + std::string(name) +
                               "\" already registered as " +
                               to_string(it->second->kind));
    } else if (static_cast<HistogramImpl*>(it->second.get())->bounds !=
               bounds) {
        throw std::logic_error("metrics: histogram \"" + std::string(name) +
                               "\" re-registered with different bounds");
    }
    return Histogram(static_cast<HistogramImpl*>(it->second.get()));
}

void MetricsRegistry::add_collector(std::function<void()> fn) {
    std::lock_guard<std::mutex> lock(impl_->collectors_mu);
    impl_->collectors.push_back(std::move(fn));
}

MetricsSnapshot MetricsRegistry::snapshot() {
    {
        // Copy so collectors run outside the lock (they may register
        // instruments or add more collectors).
        std::vector<std::function<void()>> collectors;
        {
            std::lock_guard<std::mutex> lock(impl_->collectors_mu);
            collectors = impl_->collectors;
        }
        for (const auto& fn : collectors) fn();
    }
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(impl_->mu);
    snap.samples.reserve(impl_->instruments.size());
    for (const auto& [key, inst] : impl_->instruments) {
        MetricSample s;
        s.kind = inst->kind;
        s.name = inst->name;
        s.labels = inst->labels;
        s.help = inst->help;
        inst->sample_into(s);
        snap.samples.push_back(std::move(s));
    }
    return snap;
}

void MetricsRegistry::reset() {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto& [key, inst] : impl_->instruments) inst->reset_state();
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

namespace {

Json labels_json(const MetricLabels& labels) {
    Json obj = Json::object();
    for (const auto& [k, v] : labels) obj.set(k, v);
    return obj;
}

std::string prom_escape(const std::string& v) {
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
        }
    }
    return out;
}

std::string prom_labels(const MetricLabels& labels) {
    if (labels.empty()) return "";
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
        if (!first) out += ",";
        first = false;
        out += k + "=\"" + prom_escape(v) + "\"";
    }
    out += "}";
    return out;
}

/// Same, with extra label(s) appended — for histogram `le` series.
std::string prom_labels_plus(const MetricLabels& labels,
                             const std::string& extra_key,
                             const std::string& extra_value) {
    std::string out = "{";
    for (const auto& [k, v] : labels) {
        out += k + "=\"" + prom_escape(v) + "\",";
    }
    out += extra_key + "=\"" + prom_escape(extra_value) + "\"}";
    return out;
}

}  // namespace

Json MetricsSnapshot::to_json() const {
    Json root = Json::object();
    root.set("schema", kMetricsSchema);
    root.set("version", static_cast<std::int64_t>(kMetricsVersion));
    Json counters = Json::array();
    Json gauges = Json::array();
    Json histograms = Json::array();
    for (const MetricSample& s : samples) {
        Json m = Json::object();
        m.set("name", s.name);
        if (!s.labels.empty()) m.set("labels", labels_json(s.labels));
        switch (s.kind) {
        case MetricKind::Counter:
            m.set("value", static_cast<std::int64_t>(s.value));
            counters.push_back(std::move(m));
            break;
        case MetricKind::Gauge:
            m.set("value", s.gauge_value);
            gauges.push_back(std::move(m));
            break;
        case MetricKind::Histogram: {
            m.set("count", static_cast<std::int64_t>(s.count));
            m.set("sum", static_cast<std::int64_t>(s.sum));
            Json buckets = Json::array();
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < s.buckets.size(); ++i) {
                cum += s.buckets[i];
                Json b = Json::object();
                if (i < s.bounds.size()) {
                    b.set("le", static_cast<std::int64_t>(s.bounds[i]));
                } else {
                    b.set("le", "+Inf");
                }
                b.set("count", static_cast<std::int64_t>(cum));
                buckets.push_back(std::move(b));
            }
            m.set("buckets", std::move(buckets));
            histograms.push_back(std::move(m));
            break;
        }
        }
    }
    root.set("counters", std::move(counters));
    root.set("gauges", std::move(gauges));
    root.set("histograms", std::move(histograms));
    return root;
}

std::string MetricsSnapshot::to_prometheus() const {
    std::ostringstream out;
    std::string last_name;
    for (const MetricSample& s : samples) {
        if (s.name != last_name) {
            last_name = s.name;
            if (!s.help.empty()) {
                out << "# HELP " << s.name << " " << s.help << "\n";
            }
            out << "# TYPE " << s.name << " " << to_string(s.kind) << "\n";
        }
        switch (s.kind) {
        case MetricKind::Counter:
            out << s.name << prom_labels(s.labels) << " " << s.value << "\n";
            break;
        case MetricKind::Gauge:
            out << s.name << prom_labels(s.labels) << " " << s.gauge_value
                << "\n";
            break;
        case MetricKind::Histogram: {
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < s.buckets.size(); ++i) {
                cum += s.buckets[i];
                const std::string le = i < s.bounds.size()
                                           ? std::to_string(s.bounds[i])
                                           : std::string("+Inf");
                out << s.name << "_bucket"
                    << prom_labels_plus(s.labels, "le", le) << " " << cum
                    << "\n";
            }
            out << s.name << "_sum" << prom_labels(s.labels) << " " << s.sum
                << "\n";
            out << s.name << "_count" << prom_labels(s.labels) << " "
                << s.count << "\n";
            break;
        }
        }
    }
    return out.str();
}

// ---------------------------------------------------------------------------
// Bucket helpers & scopes
// ---------------------------------------------------------------------------

const std::vector<std::uint64_t>& duration_buckets_us() {
    static const std::vector<std::uint64_t> buckets = {
        1,     5,     10,     50,     100,    500,
        1000,  5000,  10000,  50000,  100000, 500000,
        1000000};
    return buckets;
}

std::vector<std::uint64_t> exponential_buckets(std::uint64_t start,
                                               double factor, int count) {
    if (start == 0 || factor <= 1.0 || count <= 0) {
        throw std::invalid_argument("metrics: bad exponential_buckets args");
    }
    std::vector<std::uint64_t> out;
    out.reserve(static_cast<std::size_t>(count));
    double b = static_cast<double>(start);
    for (int i = 0; i < count; ++i) {
        auto rounded = static_cast<std::uint64_t>(std::llround(b));
        if (!out.empty() && rounded <= out.back()) rounded = out.back() + 1;
        out.push_back(rounded);
        b *= factor;
    }
    return out;
}

EngineRunScope::EngineRunScope(const char* engine)
    : scope_(metrics::histogram("ftmul_engine_run_us", {{"engine", engine}},
                                duration_buckets_us(),
                                "wall-clock of one engine run")) {
    metrics::counter("ftmul_engine_runs_total", {{"engine", engine}},
                     "engine entry-point invocations")
        .inc();
}

}  // namespace ftmul
