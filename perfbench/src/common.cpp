#include "common.hpp"

#include "core/port.hpp"
#include "obs/metrics.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <new>
#include <stdexcept>

// ---- allocation counter --------------------------------------------------
// Every allocation of the process goes through these replacements, so the
// traced report can state allocations per message. The shared increment
// runs only when counting is on (traced runs); otherwise each allocation
// reads a flag set once before any thread starts.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

using compadres::core::Application;

void count_allocations(bool on) noexcept {
    g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() noexcept {
    return g_allocations.load(std::memory_order_relaxed);
}

void drain(const std::atomic<std::uint64_t>& completed, std::uint64_t sent) {
    const std::int64_t give_up = now_ns() + 2 * kNsPerSec;
    while (completed.load(std::memory_order_acquire) < sent && now_ns() < give_up) {
        sleep_until_ns(now_ns() + 1'000'000);
    }
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) noexcept {
    Rng r(seed ^ (index * 0xD1B54A32D192ED03ull));
    return r.next();
}

std::vector<std::vector<std::uint8_t>> payload_bank(std::uint64_t seed,
                                                    std::size_t count,
                                                    std::size_t bytes) {
    Rng rng(seed ^ 0x5EED0BA4Cull);
    std::vector<std::vector<std::uint8_t>> bank(count,
                                                std::vector<std::uint8_t>(bytes));
    for (auto& buf : bank) {
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    }
    return bank;
}

void LatencyLog::reset(std::size_t capacity, std::int64_t start_ns,
                       std::size_t stride) {
    samples_.clear();
    samples_.reserve(capacity);
    cuts_.clear();
    cuts_.reserve(4096);
    cuts_.push_back(Cut{0, 0, start_ns});
    stride_ = stride;
    events_ = 0;
    window_end_ = start_ns + kNsPerSec;
    overflow_ = 0;
}

std::vector<double> LatencyLog::per_window(double q,
                                           std::size_t min_samples) const {
    std::vector<double> out;
    // Only complete windows: each one ends where the next begins.
    for (std::size_t w = 0; w + 1 < cuts_.size(); ++w) {
        const std::size_t a = cuts_[w].sample;
        const std::size_t b = cuts_[w + 1].sample;
        if (b - a < min_samples) continue;
        out.push_back(quantile(
            std::vector<std::int32_t>(samples_.begin() + static_cast<std::ptrdiff_t>(a),
                                      samples_.begin() + static_cast<std::ptrdiff_t>(b)),
            q));
    }
    return out;
}

double LatencyLog::windowed_rate(std::size_t min_events) const {
    std::vector<double> rates;
    for (std::size_t w = 0; w + 1 < cuts_.size(); ++w) {
        const std::size_t n = cuts_[w + 1].event - cuts_[w].event;
        if (n < min_events) continue;
        rates.push_back(static_cast<double>(n) * 1e9 /
                        static_cast<double>(cuts_[w + 1].at - cuts_[w].at));
    }
    return quantile(std::move(rates), 0.5);
}

double LatencyLog::windowed_rate_within(std::int64_t deadline_ns,
                                        std::size_t min_events) const {
    std::vector<double> rates;
    for (std::size_t w = 0; w + 1 < cuts_.size(); ++w) {
        const std::size_t a = cuts_[w].sample;
        const std::size_t b = cuts_[w + 1].sample;
        if (b - a < min_events) continue;
        const auto on_time = std::count_if(
            samples_.begin() + static_cast<std::ptrdiff_t>(a),
            samples_.begin() + static_cast<std::ptrdiff_t>(b),
            [deadline_ns](std::int32_t v) { return v <= deadline_ns; });
        rates.push_back(static_cast<double>(on_time) * 1e9 /
                        static_cast<double>(cuts_[w + 1].at - cuts_[w].at));
    }
    return quantile(std::move(rates), 0.5);
}

double LatencyLog::windowed(double q, std::size_t min_samples) const {
    std::vector<double> values = per_window(q, min_samples);
    if (values.empty()) return overall(q);
    return quantile(std::move(values), 0.5);
}

std::vector<std::int64_t> SharedSamples::snapshot() const {
    const std::size_t n =
        std::min(n_.load(std::memory_order_relaxed), buf_.size());
    std::vector<std::int64_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = buf_[i].load(std::memory_order_relaxed);
    }
    return out;
}

SpanLog::SpanLog(std::vector<std::string> names, std::size_t capacity)
    : names_(std::move(names)) {
    spans_.reserve(capacity);
}

std::vector<double> SpanLog::self_times(std::vector<std::uint64_t>* ops) const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] = static_cast<double>(spans_[i].end - spans_[i].start);
    }
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<double>(s.end - s.start);
        }
    }
    for (double& v : self) v = std::max(v, 0.0);
    if (ops != nullptr) {
        ops->clear();
        for (const Span& s : spans_) ops->push_back(s.op);
    }
    return self;
}

std::vector<std::pair<std::string, double>> SpanLog::median_self_ns() const {
    const std::vector<double> self = self_times(nullptr);
    std::map<std::uint16_t, std::vector<std::int64_t>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        by_name[spans_[i].name].push_back(static_cast<std::int64_t>(self[i]));
    }
    std::vector<std::pair<std::string, double>> out;
    for (auto& [id, v] : by_name) {
        out.emplace_back(names_[id], quantile(std::move(v), 0.5));
    }
    return out;
}

double SpanLog::median_op_self_ns(std::uint16_t name) const {
    std::vector<std::uint64_t> ops;
    const std::vector<double> self = self_times(&ops);
    std::map<std::uint64_t, std::int64_t> per_op;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name) {
            per_op[ops[i]] += static_cast<std::int64_t>(self[i]);
        }
    }
    std::vector<std::int64_t> v;
    v.reserve(per_op.size());
    for (const auto& kv : per_op) v.push_back(kv.second);
    return quantile(std::move(v), 0.5);
}

bool SpanLog::write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "name,start_ns,end_ns,parent,op\n";
    for (const Span& s : spans_) {
        out << names_[s.name] << ',' << s.start << ',' << s.end << ','
            << s.parent << ',' << s.op << '\n';
    }
    return static_cast<bool>(out);
}

void HopSink::on_hop(const compadres::core::InPortBase& port,
                     const compadres::core::hooks::HopTimes& t) noexcept {
    if (hops_.fetch_add(1, std::memory_order_relaxed) % every_ != 0) return;
    if (marked_ != nullptr && &port.owner() == marked_) {
        marked_handler_.add(t.process_end_ns - t.process_start_ns);
    } else if (t.dequeue_ns != t.enqueue_ns) { // synchronous ports queue nothing
        queue_wait_.add(t.process_start_ns - t.enqueue_ns);
    }
}

SinkGuard::SinkGuard(compadres::core::hooks::TraceSink& sink) {
    compadres::core::hooks::set_sink(&sink);
}
SinkGuard::~SinkGuard() { compadres::core::hooks::set_sink(nullptr); }

Observer::Observer(std::vector<Application*> apps, std::int64_t interval_ns)
    : apps_(std::move(apps)), interval_ns_(interval_ns) {
    report_ns_.reserve(1 << 16);
    publish_ns_.reserve(1 << 16);
    thread_ = std::thread([this] { loop(); });
}

Observer::~Observer() { stop(); }

void Observer::stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
}

void Observer::loop() {
    compadres::obs::MetricsRegistry registry;
    std::int64_t next = now_ns() + interval_ns_;
    while (!stop_.load(std::memory_order_relaxed)) {
        sleep_until_ns(next);
        next += interval_ns_;
        for (Application* app : apps_) {
            std::int64_t t0 = now_ns();
            const compadres::core::TraceReport report = app->trace_report();
            std::int64_t t1 = now_ns();
            app->publish_metrics(registry);
            const std::int64_t t2 = now_ns();
            if (report_ns_.size() < report_ns_.capacity()) {
                report_ns_.push_back(t1 - t0);
                publish_ns_.push_back(t2 - t1);
            }
        }
    }
}

FabricCounters FabricCounters::of(const std::vector<Application*>& apps) {
    FabricCounters c;
    std::map<std::string, std::uint64_t> named;
    for (Application* app : apps) {
        const compadres::core::TraceReport r = app->trace_report();
        for (const auto& p : r.ports) c.delivered += p.delivered;
        c.queue_locks += r.queue_lock_acquisitions;
        c.credit_stalls += r.credit_stalls;
        for (const auto& group : r.counters) {
            for (const auto& [name, value] : group.counters) named[name] += value;
        }
    }
    c.sources.assign(named.begin(), named.end());
    return c;
}

std::uint64_t FabricCounters::source(const std::string& name) const {
    for (const auto& [n, v] : sources) {
        if (n == name) return v;
    }
    return 0;
}

FabricCounters FabricCounters::minus(const FabricCounters& earlier) const {
    FabricCounters d;
    d.delivered = delivered - earlier.delivered;
    d.queue_locks = queue_locks - earlier.queue_locks;
    d.credit_stalls = credit_stalls - earlier.credit_stalls;
    for (const auto& [n, v] : sources) {
        d.sources.emplace_back(n, v - earlier.source(n));
    }
    return d;
}

double process_cpu_us() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}


void sleep_until_ns(std::int64_t t) {
    timespec ts{};
    ts.tv_sec = t / kNsPerSec;
    ts.tv_nsec = t % kNsPerSec;
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

std::string fmt(const char* format, ...) {
    char buf[1024];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    return buf;
}

std::string number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

namespace {
std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

std::string read_first_line(const char* path) {
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line)) return "unavailable";
    return line;
}
} // namespace

std::string host_json() {
    utsname u{};
    const std::string kernel = uname(&u) == 0 ? u.release : "unknown";
    return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ",\"kernel\":" + json_string(kernel) + ",\"governor\":" +
           json_string(read_first_line(
               "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")) +
           ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
           ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) + "}";
}

std::string latency_line(const char* label, const LatencyLog& log) {
    return fmt("%-22s windowed p50=%.2fus p90=%.2fus p99=%.2fus over %zu "
               "one-second windows; whole run p50=%.2fus p90=%.2fus "
               "p99=%.2fus (n=%zu, %zu beyond p99, %llu past storage)",
               label, latency_us(log, 0.5), latency_us(log, 0.9),
               latency_us(log, 0.99), log.windows(), log.overall(0.5) / 1e3,
               log.overall(0.9) / 1e3, log.overall(0.99) / 1e3, log.count(),
               log.count() / 100,
               static_cast<unsigned long long>(log.overflow()));
}

double idle_cpu_pct(std::int64_t window_ns) {
    const double c0 = process_cpu_us();
    const std::int64_t t0 = now_ns();
    sleep_until_ns(t0 + window_ns);
    const double wall_us = static_cast<double>(now_ns() - t0) / 1e3;
    return 100.0 * (process_cpu_us() - c0) / wall_us;
}

void report_spans(Result& r, const SpanLog& spans,
                    const std::vector<std::uint16_t>& closure_layers,
                    double e2e_median_ns) {
    r.note(fmt("spans: %zu recorded, %llu dropped (log full)", spans.size(),
               static_cast<unsigned long long>(spans.dropped())));
    r.note("layer self time (median per span):");
    for (const auto& [name, ns] : spans.median_self_ns()) {
        r.note(fmt("  %-22s %9.2f us", name.c_str(), ns / 1e3));
    }
    if (closure_layers.empty()) return;
    double sum = 0.0;
    std::string parts;
    for (std::uint16_t id : closure_layers) {
        const double m = spans.median_op_self_ns(id);
        sum += m;
        parts += fmt(" %s=%.2f", spans.name(id).c_str(), m / 1e3);
    }
    const double ratio = e2e_median_ns > 0 ? sum / e2e_median_ns : 0.0;
    r.note(fmt("closure: sum of layer medians %.2fus vs end-to-end median "
               "%.2fus -> ratio %.3f (%s) [layers:%s]",
               sum / 1e3, e2e_median_ns / 1e3, ratio,
               std::abs(ratio - 1.0) <= 0.10 ? "within 10%" : "OUTSIDE 10%",
               parts.c_str()));
}

double latency_us(const LatencyLog& log, double q) {
    return log.windowed(q, kMinWindowSamples) / 1e3;
}

double closed_loop_rate(const LatencyLog& latency, std::uint64_t completed,
                        double window_s) {
    const double rate = latency.windowed_rate(kMinWindowSamples);
    return rate > 0 ? rate : static_cast<double>(completed) / window_s;
}

double setup_seconds(const std::vector<std::int64_t>& setup_ns) {
    return static_cast<double>(
               *std::min_element(setup_ns.begin(), setup_ns.end())) / 1e9;
}

void add_end_to_end(Result& r, const std::vector<std::int64_t>& setup_ns,
                    const LatencyLog& latency, double throughput,
                    std::uint64_t completed, double window_s, double cpu_us) {
    const double done = static_cast<double>(completed);
    const double setup_s = setup_seconds(setup_ns);
    r.add("setup_s", setup_s, "s");
    std::string reps;
    for (std::int64_t ns : setup_ns) reps += fmt(" %.2f", static_cast<double>(ns) / 1e6);
    r.note(fmt("set-up: fastest of %zu = %.3fms (median %.3fms); in "
               "order (ms):",
               setup_ns.size(), setup_s * 1e3, quantile(setup_ns, 0.5) / 1e6) +
           reps);
    r.add("latency_p50_us", latency_us(latency, 0.50), "us");
    r.add("throughput_msgs_per_s", throughput, "msg/s");
    r.add("cpu_us_per_msg", completed ? cpu_us / done : 0.0, "us/msg");
    r.note(latency_line("latency", latency));
    std::string windows;
    for (double v : latency.per_window(0.5, kMinWindowSamples)) {
        windows += fmt(" %.1f", v / 1e3);
    }
    r.note("p50 per one-second window (us):" + windows);
    r.note(fmt("completed %llu messages in %.3fs (%.1f/s over the whole "
               "window; throughput metric %.1f/s); %.0f us CPU",
               static_cast<unsigned long long>(completed), window_s,
               done / window_s, throughput, cpu_us));
}

namespace {

struct LayerDef {
    const char* name;
    const char* unit;
    const char* target; ///< end-to-end metric @ workload it should move
};

constexpr const char* kCoreHop =
    "latency_p50_us/latency_p90_us @ control_loop, latency_p50_us @ "
    "orb_echo; little change @ remote_stream";
constexpr const char* kRemoteWire =
    "throughput_msgs_per_s/cpu_us_per_msg @ remote_stream";
constexpr const char* kOrbPath = "latency_p50_us @ orb_echo";

const LayerDef kLayerDefs[] = {
    {"compiler.parse_ms", "ms", "setup_s @ control_loop"},
    {"compiler.plan_ms", "ms", "setup_s @ control_loop"},
    {"compiler.assemble_ms", "ms", "setup_s @ control_loop"},
    {"core.start_ms", "ms", "setup_s @ control_loop"},
    {"core.send_us_p50", "us",
     "latency_p50_us @ control_loop, throughput_msgs_per_s @ remote_stream"},
    {"core.send_us_p99", "us",
     "latency_p50_us @ control_loop, throughput_msgs_per_s @ remote_stream"},
    {"core.queue_wait_us_p50", "us", kCoreHop},
    {"core.queue_wait_us_p99", "us", kCoreHop},
    {"core.handler_us", "us", "none: the benchmark's own handler bodies"},
    {"core.hops_per_op", "hops/op", kOrbPath},
    {"core.credit_stalls_per_kmsg", "1/kmsg", kRemoteWire},
    {"core.queue_locks_per_hop", "locks/hop", kRemoteWire},
    {"orb.client_path_us", "us", kOrbPath},
    {"orb.request_path_us", "us", kOrbPath},
    {"orb.servant_us", "us", kOrbPath},
    {"orb.reply_path_us", "us", kOrbPath},
    {"orb.rtzen_latency_p50_us", "us", kOrbPath},
    {"orb.component_overhead_us", "us", kOrbPath},
    {"net.send_frame_us", "us", "latency_p50_us/cpu_us_per_msg @ orb_echo"},
    {"net.frames_per_op", "frames/op",
     "latency_p50_us/cpu_us_per_msg @ orb_echo"},
    {"net.send_syscalls_per_frame", "syscalls/frame",
     "latency_p50_us/cpu_us_per_msg @ orb_echo"},
    {"net.frame_pool_hit_ratio", "ratio", "cpu_us_per_msg @ remote_stream"},
    {"net.frame_pool_allocs_per_msg", "allocs/msg",
     "cpu_us_per_msg @ remote_stream"},
    {"net.shm_futex_per_msg", "futex/msg", kRemoteWire},
    {"net.rx_copies_per_msg", "copies/msg", kRemoteWire},
    {"net.shm_fast_path_share", "ratio", kRemoteWire},
    {"remote.export_send_us_p50", "us", "throughput_msgs_per_s @ remote_stream"},
    {"remote.export_send_us_p99", "us", "throughput_msgs_per_s @ remote_stream"},
    {"remote.frames_dropped", "count", "failed_ratio @ remote_stream"},
    {"proc.allocs_per_msg", "allocs/msg",
     "cpu_us_per_msg @ remote_stream and orb_echo"},
    {"proc.idle_cpu_pct", "%", "cpu_us_per_msg @ control_loop"},
    {"obs.trace_report_us_p50", "us", "latency_p99_us @ remote_stream"},
    {"obs.trace_report_us_p99", "us", "latency_p99_us @ remote_stream"},
    {"obs.publish_metrics_us_p50", "us", "latency_p99_us @ remote_stream"},
    {"obs.publish_metrics_us_p99", "us", "latency_p99_us @ remote_stream"},
    {"e2e.latency_p90_us", "us",
     "end-to-end p90 of the untraced phase; too stall-prone for a bound"},
    {"e2e.latency_p99_us", "us",
     "end-to-end p99 of the untraced phase; too stall-prone for a bound"},
    {"bench.gen_late_p99_us", "us",
     "none: how late the open-loop generator released (host stalls)"},
    {"bench.tracing_overhead_us", "us",
     "none: traced p50 minus untraced p50 of the same run"},
    {"bench.failed_ratio", "ratio", "failed_ratio (every workload)"},
};

} // namespace

void set_fabric_layers(Layers& layers, double delivered, double queue_locks,
                       double credit_stalls, double ops) {
    layers.set("core.hops_per_op", delivered / ops);
    layers.set("core.credit_stalls_per_kmsg", 1e3 * credit_stalls / ops);
    layers.set("core.queue_locks_per_hop",
               delivered > 0 ? queue_locks / delivered : 0.0);
}

void set_observer_layers(Layers& layers, const Observer& observer) {
    layers.set("obs.trace_report_us_p50", quantile(observer.report_ns(), 0.5) / 1e3);
    layers.set("obs.trace_report_us_p99", quantile(observer.report_ns(), 0.99) / 1e3);
    layers.set("obs.publish_metrics_us_p50",
               quantile(observer.publish_ns(), 0.5) / 1e3);
    layers.set("obs.publish_metrics_us_p99",
               quantile(observer.publish_ns(), 0.99) / 1e3);
}

void set_phase_layers(Result& r, Layers& layers, const std::string& workload,
                      const LatencyLog& untraced, const LatencyLog& traced) {
    const double p50_a = latency_us(untraced, 0.5);
    const double p50_b = latency_us(traced, 0.5);
    layers.set("e2e.latency_p90_us", latency_us(untraced, 0.9));
    layers.set("e2e.latency_p99_us", latency_us(untraced, 0.99));
    layers.set("bench.tracing_overhead_us", p50_b - p50_a);
    r.note(latency_line(("untraced " + workload).c_str(), untraced));
    r.note(latency_line(("traced " + workload).c_str(), traced));
    r.note(fmt("tracing overhead: traced p50 %.2fus - untraced p50 %.2fus = "
               "%.2fus",
               p50_b, p50_a, p50_b - p50_a));
}

void Layers::set(const std::string& name, double value) {
    for (const LayerDef& d : kLayerDefs) {
        if (name == d.name) {
            values_.emplace_back(name, value);
            return;
        }
    }
    throw std::logic_error("perfbench: unknown per-layer metric " + name);
}

void Layers::emit(Result& r) const {
    r.note("per-layer metrics (target = end-to-end metric @ workload):");
    for (const LayerDef& d : kLayerDefs) {
        double value = 0.0;
        bool measured = false;
        for (const auto& [n, v] : values_) {
            if (n == d.name) {
                value = v;
                measured = true;
            }
        }
        r.add(d.name, value, d.unit);
        r.note(fmt("  %-30s %12.4f %-14s %s%s", d.name, value, d.unit,
                   measured ? "" : "[n/a on this workload] ", d.target));
    }
}

} // namespace perfbench
