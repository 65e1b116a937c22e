// Shared pieces of the benchmark binary: options, seeded inputs, sample
// logs, spans, the hop sink, process counters and the result record.
//
// Nothing here reaches into the library's internals. Spans and counters
// are recorded by the benchmark around its own calls into each layer, and
// the per-hop numbers come through the public core::hooks::TraceSink seam.
#pragma once

#include "core/application.hpp"
#include "core/hooks.hpp"
#include "rt/clock.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using compadres::rt::now_ns;

constexpr std::int64_t kNsPerSec = 1'000'000'000;

/// "No operation": the default of every --inject target index.
constexpr std::uint64_t kNoOp = ~std::uint64_t{0};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Fault to plant in the program's inputs or outputs (self-test only):
    /// proves that the matching correctness check fires.
    std::string inject;
    std::string self_path; ///< this binary, for the remote_stream peer
    std::string out_dir;   ///< where span files and artifacts go
};

/// splitmix64: the only source of input randomness, seeded from --seed.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() noexcept {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

private:
    std::uint64_t s_;
};

/// Stateless mix of (seed, index), used where a value must be recomputable
/// by whoever checks it.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) noexcept;

/// Seeded payload bank: `count` buffers of `bytes` random bytes each.
std::vector<std::vector<std::uint8_t>> payload_bank(std::uint64_t seed,
                                                    std::size_t count,
                                                    std::size_t bytes);

/// Nearest-rank quantile (q in [0,1]) of a copy of `v`; 0 when empty.
template <typename T>
double quantile(std::vector<T> v, double q) {
    if (v.empty()) return 0.0;
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size()) rank = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                     v.end());
    return static_cast<double>(v[rank]);
}

/// Completions and latency samples from one writer thread, cut into
/// one-second windows as they arrive. Every completion is counted; one in
/// `stride` keeps its latency, in storage reserved up front so recording
/// never allocates (32-bit ns; a latency above 2.1 s is clamped).
class LatencyLog {
public:
    void reset(std::size_t capacity, std::int64_t start_ns,
               std::size_t stride = 1);
    void add(std::int64_t now, std::int64_t latency_ns) noexcept {
        if (now >= window_end_ && cuts_.size() < cuts_.capacity()) {
            cuts_.push_back(Cut{events_, samples_.size(), now});
            window_end_ += kNsPerSec;
        }
        if (events_++ % stride_ != 0) return;
        if (samples_.size() < samples_.capacity()) {
            samples_.push_back(static_cast<std::int32_t>(
                std::min<std::int64_t>(latency_ns, INT32_MAX)));
        } else {
            ++overflow_;
        }
    }
    /// Latency samples kept.
    std::size_t count() const noexcept { return samples_.size(); }
    /// Samples that found the storage full.
    std::uint64_t overflow() const noexcept { return overflow_; }
    /// Quantile over all samples.
    double overall(double q) const { return quantile(samples_, q); }
    /// Median over the complete one-second windows of each window's
    /// quantile; windows with fewer than `min_samples` are skipped. Falls
    /// back to overall() when no window qualifies.
    double windowed(double q, std::size_t min_samples) const;
    /// Each complete window's quantile, in order.
    std::vector<double> per_window(double q, std::size_t min_samples) const;
    /// Median over the complete windows of completions per second, each
    /// window timed from its first completion to the next window's first;
    /// 0 when no window holds `min_events`.
    double windowed_rate(std::size_t min_events) const;
    /// Like windowed_rate(), but counts only the completions whose latency
    /// is at most `deadline_ns` (needs a log kept with stride 1).
    double windowed_rate_within(std::int64_t deadline_ns,
                                std::size_t min_events) const;
    /// Complete one-second windows so far.
    std::size_t windows() const noexcept {
        return cuts_.empty() ? 0 : cuts_.size() - 1;
    }

private:
    struct Cut {
        std::size_t event = 0;  ///< completions before the window
        std::size_t sample = 0; ///< index of the window's first sample
        std::int64_t at = 0;    ///< when the window began
    };
    std::vector<std::int32_t> samples_;
    std::vector<Cut> cuts_;
    std::size_t stride_ = 1;
    std::size_t events_ = 0;
    std::int64_t window_end_ = 0;
    std::uint64_t overflow_ = 0;
};

/// Fixed-capacity sample buffer any number of threads may append to. The
/// slots are atomics: a hop can still be reporting when the reader takes
/// its snapshot (its op already completed on another thread).
class SharedSamples {
public:
    explicit SharedSamples(std::size_t capacity) : buf_(capacity) {}
    void add(std::int64_t v) noexcept {
        const std::size_t i = n_.fetch_add(1, std::memory_order_relaxed);
        if (i < buf_.size()) buf_[i].store(v, std::memory_order_relaxed);
    }
    std::vector<std::int64_t> snapshot() const;

private:
    std::vector<std::atomic<std::int64_t>> buf_;
    std::atomic<std::size_t> n_{0};
};

/// One traced interval. `parent` indexes the span that caused it (-1 for
/// an operation's root); spans of one operation share `op`.
struct Span {
    std::uint16_t name = 0;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/// In-memory span store, written out once the run ends. Recording never
/// allocates; spans past the capacity are counted and dropped.
class SpanLog {
public:
    SpanLog(std::vector<std::string> names, std::size_t capacity);
    /// Returns the span's index, or -1 when the log is full.
    std::int32_t add(std::uint16_t name, std::int32_t parent, std::uint64_t op,
                     std::int64_t start, std::int64_t end) noexcept {
        if (spans_.size() >= spans_.capacity()) {
            ++dropped_;
            return -1;
        }
        spans_.push_back(Span{name, parent, op, start, end});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }
    std::size_t size() const noexcept { return spans_.size(); }
    std::uint64_t dropped() const noexcept { return dropped_; }
    const std::string& name(std::uint16_t id) const { return names_[id]; }

    /// Median self time (duration minus what its child spans cover, never
    /// below zero) per span name, in ns; names without spans are absent.
    std::vector<std::pair<std::string, double>> median_self_ns() const;
    /// Median over operations of the per-operation sum of each name's
    /// self time, in ns.
    double median_op_self_ns(std::uint16_t name) const;
    /// Writes "name,start_ns,end_ns,parent,op" rows.
    bool write_csv(const std::string& path) const;

private:
    std::vector<double> self_times(std::vector<std::uint64_t>* ops) const;

    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/// The benchmark's core::hooks::TraceSink: per-hop queue wait (enqueue to
/// handler entry) for every queued hop, and handler time for the ports
/// owned by one marked component (the remote bridge's export ports).
/// Keeps one hop in `sample_every`.
class HopSink final : public compadres::core::hooks::TraceSink {
public:
    explicit HopSink(std::size_t capacity, std::uint64_t sample_every = 1)
        : every_(sample_every), queue_wait_(capacity),
          marked_handler_(capacity) {}
    void mark_owner(const compadres::core::Component* owner) noexcept {
        marked_ = owner;
    }
    void on_hop(const compadres::core::InPortBase& port,
                const compadres::core::hooks::HopTimes& t) noexcept override;

    SharedSamples& queue_wait() noexcept { return queue_wait_; }
    SharedSamples& marked_handler() noexcept { return marked_handler_; }

private:
    const compadres::core::Component* marked_ = nullptr;
    std::uint64_t every_;
    std::atomic<std::uint64_t> hops_{0};
    SharedSamples queue_wait_;
    SharedSamples marked_handler_;
};

/// Installs a sink for its lifetime. Install and remove only while no
/// traffic flows, as core/hooks.hpp requires.
class SinkGuard {
public:
    explicit SinkGuard(compadres::core::hooks::TraceSink& sink);
    ~SinkGuard();
    SinkGuard(const SinkGuard&) = delete;
    SinkGuard& operator=(const SinkGuard&) = delete;
};

/// Calls trace_report() and publish_metrics() on a set of applications
/// at a fixed interval from its own thread, timing every call.
class Observer {
public:
    Observer(std::vector<compadres::core::Application*> apps,
             std::int64_t interval_ns);
    ~Observer();
    Observer(const Observer&) = delete;
    Observer& operator=(const Observer&) = delete;
    void stop();
    const std::vector<std::int64_t>& report_ns() const { return report_ns_; }
    const std::vector<std::int64_t>& publish_ns() const { return publish_ns_; }

private:
    void loop();

    std::vector<compadres::core::Application*> apps_;
    std::int64_t interval_ns_;
    std::vector<std::int64_t> report_ns_;
    std::vector<std::int64_t> publish_ns_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/// Fabric counters summed over applications, as deltas between snapshots.
struct FabricCounters {
    std::uint64_t delivered = 0;
    std::uint64_t queue_locks = 0;
    std::uint64_t credit_stalls = 0;
    /// Named counters of every registered counter source, summed by name.
    std::vector<std::pair<std::string, std::uint64_t>> sources;

    static FabricCounters of(
        const std::vector<compadres::core::Application*>& apps);
    std::uint64_t source(const std::string& name) const;
    FabricCounters minus(const FabricCounters& earlier) const;
};

/// Turns the binary's operator new counter on or off. It is on only in
/// traced runs, so the untraced hot path pays one read of a flag that never
/// changes instead of a shared atomic increment per allocation.
void count_allocations(bool on) noexcept;

/// Allocations counted so far (0 while counting is off).
std::uint64_t allocations() noexcept;

/// Wait (at most 2 s) until `completed` reaches `sent`.
void drain(const std::atomic<std::uint64_t>& completed, std::uint64_t sent);

/// User + system CPU of this process, in microseconds.
double process_cpu_us();

/// Sleep until an absolute CLOCK_MONOTONIC time.
void sleep_until_ns(std::int64_t t);

/// One metric of the result line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload run hands back to main().
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::string wire; ///< which wire the workload crossed
    /// Human-readable report lines (printed before the result line).
    std::vector<std::string> report;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back(Metric{name, value, unit});
    }
    void note(std::string line) { report.push_back(std::move(line)); }
};

/// printf into a std::string.
std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Shortest round-trip text of a double (all its digits, nothing more).
std::string number(double v);

/// {"nproc":..,"kernel":..,"governor":..,"compiler":..,"build_type":..}
std::string host_json();


/// Report line for one latency series: percentiles and the sample counts
/// behind them.
std::string latency_line(const char* label, const LatencyLog& log);

/// The fixed quiet window after the load: CPU percent burned by this
/// process over `window_ns` with no messages sent.
double idle_cpu_pct(std::int64_t window_ns);

/// Appends the layer self-time table and, when `closure_layers` is not
/// empty, the closure line (sum of those layers' per-operation medians
/// against the end-to-end median) to `r`.
void report_spans(Result& r, const SpanLog& spans,
                    const std::vector<std::uint16_t>& closure_layers,
                    double e2e_median_ns);

/// A one-second window counts toward a percentile only when it holds at
/// least this many samples, so each window's p99 has ten beyond it.
constexpr std::size_t kMinWindowSamples = 1000;

/// Each percentile the benchmark reports: the median, over one-second
/// windows, of the window's percentile. A host stall then moves one
/// window's value instead of the whole run's tail.
double latency_us(const LatencyLog& log, double q);

/// Throughput of a closed loop: the median one-second window's completion
/// rate, or the whole window's when no one-second window qualifies.
double closed_loop_rate(const LatencyLog& latency, std::uint64_t completed,
                        double window_s);

/// setup_s of a run: the fastest of its repeated set-ups, in seconds. Host
/// contention and the first set-ups' fresh page faults only ever add to a
/// set-up, so the fastest one tracks the program's own cost.
double setup_seconds(const std::vector<std::int64_t>& setup_ns);

/// The end-to-end metrics every workload reports with --trace 0, with
/// `throughput` computed by the caller. The p90/p99 tails are printed here
/// but reported as metrics only by the traced run (see Layers), because
/// host stalls keep them from repeating.
void add_end_to_end(Result& r, const std::vector<std::int64_t>& setup_ns,
                    const LatencyLog& latency, double throughput,
                    std::uint64_t completed, double window_s, double cpu_us);

/// The per-layer metrics, in the order BENCHMARK.json lists them. A traced
/// run reports every one; a layer the workload does not cross reads 0 and
/// is marked n/a in the report.
class Layers {
public:
    void set(const std::string& name, double value);
    /// Appends every per-layer metric to `r` and a table with each one's
    /// target (the end-to-end metric and workload it should move).
    void emit(Result& r) const;

private:
    std::vector<std::pair<std::string, double>> values_;
};

/// Delivery-fabric ratios over a phase of `ops` completed operations:
/// hops per op, credit stalls per 1000 ops, queue locks per hop.
void set_fabric_layers(Layers& layers, double delivered, double queue_locks,
                       double credit_stalls, double ops);

/// The observer's trace_report()/publish_metrics() timings.
void set_observer_layers(Layers& layers, const Observer& observer);

/// The untraced phase's p90/p99 and the tracing overhead (traced p50 minus
/// untraced p50), with their report lines.
void set_phase_layers(Result& r, Layers& layers, const std::string& workload,
                      const LatencyLog& untraced, const LatencyLog& traced);

} // namespace perfbench
