// control_loop — the paper's E1/Fig. 6 co-located chain, assembled from the
// benchmark's own CDL/CCL through parse -> validate_and_plan -> assemble ->
// Application::start. A trigger released every 250 us at absolute times
// (open loop, 4 kHz) crosses Trigger -> Filter (level-1 scope) -> Law
// (level-2 scope) -> Trigger.done. Each hop transforms the value; the
// completion handler checks it and times the op from its due time.
#include "workloads.hpp"

#include "compiler/assembler.hpp"
#include "compiler/ccl.hpp"
#include "compiler/cdl.hpp"
#include "core/registry.hpp"

#include <sys/prctl.h>

#include <fstream>
#include <mutex>
#include <sstream>

namespace perfbench {
namespace {

namespace core = compadres::core;
namespace compiler = compadres::compiler;

constexpr std::int64_t kPeriodNs = 250'000;
constexpr int kSetupReps = 101;

struct BenchTick {
    std::uint64_t index = 0;
    std::int64_t due_ns = 0;
    std::uint64_t value = 0;
};

std::uint64_t filter_step(std::uint64_t v) noexcept {
    return v * 0x9E3779B97F4A7C15ull + 1;
}
std::uint64_t law_step(std::uint64_t v, std::uint64_t index) noexcept {
    return (v ^ (v >> 29)) + index;
}

/// Benchmark timestamps of one op (traced phase only). Written by the
/// generator and three handler threads, read after the op completed.
struct Stamps {
    std::atomic<std::int64_t> release{0}, gen_sent{0};
    std::atomic<std::int64_t> f_entry{0}, f_send{0}, f_sent{0}, f_exit{0};
    std::atomic<std::int64_t> l_entry{0}, l_send{0}, l_sent{0}, l_exit{0};
    std::atomic<std::int64_t> d_entry{0}, d_exit{0};
};

struct LoopState {
    std::uint64_t seed = 0;
    std::uint64_t wrong_value_op = kNoOp;
    std::uint64_t drop_op = kNoOp;
    std::uint64_t duplicate_op = kNoOp;
    std::atomic<bool> stamping{false};
    std::vector<Stamps> stamps;   ///< indexed by op - stamp_base
    std::uint64_t stamp_base = 0;
    std::vector<std::uint8_t> seen; ///< per-op arrival count (done thread)
    std::atomic<LatencyLog*> log{nullptr};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};

    Stamps* stamp(std::uint64_t op) noexcept {
        if (!stamping.load(std::memory_order_relaxed) || op < stamp_base ||
            op - stamp_base >= stamps.size()) {
            return nullptr;
        }
        return &stamps[op - stamp_base];
    }
};

LoopState* g_loop = nullptr;

void store(std::atomic<std::int64_t>& a, std::int64_t v) noexcept {
    a.store(v, std::memory_order_relaxed);
}

class Trigger : public core::Component {
public:
    explicit Trigger(const core::ComponentContext& ctx) : core::Component(ctx) {
        add_out_port<BenchTick>("fire", "BenchTick");
        add_in_port<BenchTick>("done", "BenchTick", port_config("done"),
                               [](BenchTick& m, core::Smm&) { complete(m); });
    }

private:
    static void complete(const BenchTick& m) {
        const std::int64_t now = now_ns();
        LoopState& s = *g_loop;
        const std::uint64_t expect =
            law_step(filter_step(mix(s.seed, m.index)), m.index);
        bool ok = m.value == expect;
        if (m.index >= s.seen.size() || s.seen[m.index]++ != 0) ok = false;
        if (ok) {
            if (LatencyLog* log = s.log.load(std::memory_order_relaxed)) {
                log->add(now, now - m.due_ns);
            }
        } else {
            s.failed.fetch_add(1, std::memory_order_relaxed);
        }
        if (Stamps* st = s.stamp(m.index)) {
            store(st->d_entry, now);
            store(st->d_exit, now_ns());
        }
        s.completed.fetch_add(1, std::memory_order_release);
    }
};

class Filter : public core::Component {
public:
    explicit Filter(const core::ComponentContext& ctx) : core::Component(ctx) {
        auto& out = add_out_port<BenchTick>("out", "BenchTick");
        add_in_port<BenchTick>(
            "in", "BenchTick", port_config("in"),
            [&out](BenchTick& m, core::Smm&) {
                const std::int64_t entry = now_ns();
                BenchTick* next = out.get_message();
                next->index = m.index;
                next->due_ns = m.due_ns;
                next->value = filter_step(m.value);
                Stamps* st = g_loop->stamp(m.index);
                const std::int64_t send = st ? now_ns() : 0;
                out.send(next);
                if (st) {
                    const std::int64_t sent = now_ns();
                    store(st->f_entry, entry);
                    store(st->f_send, send);
                    store(st->f_sent, sent);
                    store(st->f_exit, now_ns());
                }
            });
    }
};

class Law : public core::Component {
public:
    explicit Law(const core::ComponentContext& ctx) : core::Component(ctx) {
        auto& out = add_out_port<BenchTick>("out", "BenchTick");
        add_in_port<BenchTick>(
            "in", "BenchTick", port_config("in"),
            [&out](BenchTick& m, core::Smm&) {
                const std::int64_t entry = now_ns();
                LoopState& s = *g_loop;
                if (m.index == s.drop_op) return;
                const int copies = m.index == s.duplicate_op ? 2 : 1;
                Stamps* st = s.stamp(m.index);
                std::int64_t send = 0;
                for (int c = 0; c < copies; ++c) {
                    BenchTick* next = out.get_message();
                    next->index = m.index;
                    next->due_ns = m.due_ns;
                    next->value = law_step(m.value, m.index) +
                                  (m.index == s.wrong_value_op ? 1 : 0);
                    if (st) send = now_ns();
                    out.send(next);
                }
                if (st) {
                    const std::int64_t sent = now_ns();
                    store(st->l_entry, entry);
                    store(st->l_send, send);
                    store(st->l_sent, sent);
                    store(st->l_exit, now_ns());
                }
            });
    }
};

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void register_classes() {
    static std::once_flag once;
    std::call_once(once, [] {
        core::register_builtin_message_types();
        core::MessageTypeRegistry::global().register_type<BenchTick>("BenchTick");
        auto& reg = core::ComponentRegistry::global();
        reg.register_class<Trigger>("Trigger");
        reg.register_class<Filter>("Filter");
        reg.register_class<Law>("Law");
    });
}

struct SetupTimes {
    std::vector<std::int64_t> total, parse, plan, assemble, start;
};

std::unique_ptr<core::Application> set_up(const std::string& cdl_text,
                                          const std::string& ccl_text,
                                          SetupTimes& t) {
    const std::int64_t t0 = now_ns();
    const compiler::CdlModel cdl = compiler::parse_cdl_string(cdl_text);
    const compiler::CclModel ccl = compiler::parse_ccl_string(ccl_text);
    const std::int64_t t1 = now_ns();
    const compiler::AssemblyPlan plan = compiler::validate_and_plan(cdl, ccl);
    const std::int64_t t2 = now_ns();
    std::unique_ptr<core::Application> app = compiler::assemble(plan);
    const std::int64_t t3 = now_ns();
    app->start();
    const std::int64_t t4 = now_ns();
    t.total.push_back(t4 - t0);
    t.parse.push_back(t1 - t0);
    t.plan.push_back(t2 - t1);
    t.assemble.push_back(t3 - t2);
    t.start.push_back(t4 - t3);
    return app;
}

/// The open-loop generator: one release per period at absolute due times
/// for `seconds`.
void generate(core::OutPort<BenchTick>& fire, LoopState& s,
                       std::uint64_t& next_op, double seconds,
                       std::vector<std::int64_t>* late) {
    const std::int64_t start = now_ns() + kPeriodNs;
    const std::int64_t count = static_cast<std::int64_t>(seconds * 1e9) / kPeriodNs;
    for (std::int64_t k = 0; k < count; ++k) {
        const std::int64_t due = start + k * kPeriodNs;
        if (now_ns() < due) sleep_until_ns(due);
        const std::int64_t release = now_ns();
        const std::uint64_t op = next_op++;
        BenchTick* m = fire.get_message();
        m->index = op;
        m->due_ns = due;
        m->value = mix(s.seed, op);
        fire.send(m);
        if (Stamps* st = s.stamp(op)) {
            store(st->release, release);
            store(st->gen_sent, now_ns());
        }
        if (late != nullptr && late->size() < late->capacity()) {
            late->push_back(release - due);
        }
    }
}

enum SpanName : std::uint16_t { kOp, kGenLate, kSend, kQueueWait, kHandler };

} // namespace

Result run_control_loop(const Options& opts) {
    Result r;
    r.wire = "in-process (no wire)";
    register_classes();
    LoopState s;
    s.seed = opts.seed;
    if (opts.inject == "wrong-value") s.wrong_value_op = 100;
    else if (opts.inject == "drop") s.drop_op = 100;
    else if (opts.inject == "duplicate") s.duplicate_op = 100;
    else if (!opts.inject.empty()) throw std::runtime_error("unknown --inject");
    const std::uint64_t max_ops =
        static_cast<std::uint64_t>((opts.seconds + 2.0) * 1e9 / kPeriodNs) + 16;
    s.seen.assign(max_ops, 0);
    g_loop = &s;

    const std::string cdl = slurp(std::string(PERFBENCH_ASSET_DIR) +
                                  "/control_loop.cdl.xml");
    const std::string ccl = slurp(std::string(PERFBENCH_ASSET_DIR) +
                                  "/control_loop.ccl.xml");
    SetupTimes setup;
    std::unique_ptr<core::Application> app;
    for (int i = 0; i < kSetupReps; ++i) {
        app.reset();
        app = set_up(cdl, ccl, setup);
    }
    auto& fire = app->component("Trigger").out_port_t<BenchTick>("fire");
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); // precise absolute releases
    std::uint64_t op = 0;

    const auto run_phase = [&](double seconds, LatencyLog* log,
                               std::vector<std::int64_t>* late) {
        if (log != nullptr) {
            log->reset(static_cast<std::size_t>(seconds * 1e9 / kPeriodNs) + 64,
                       now_ns());
        }
        s.log.store(log);
        const std::uint64_t before = s.completed.load();
        generate(fire, s, op, seconds, late);
        drain(s.completed, op);
        s.log.store(nullptr);
        return s.completed.load() - before;
    };
    const auto finish = [&] {
        app->stop();
        std::uint64_t lost = 0;
        for (std::uint64_t i = 0; i < op; ++i) lost += s.seen[i] == 0 ? 1 : 0;
        r.attempted = op;
        r.failed = s.failed.load() + lost;
    };

    run_phase(0.5, nullptr, nullptr); // warm-up

    if (!opts.trace) {
        LatencyLog log;
        const double cpu0 = process_cpu_us();
        const std::int64_t t0 = now_ns();
        const std::uint64_t done = run_phase(opts.seconds, &log, nullptr);
        const double window_s = static_cast<double>(now_ns() - t0) / 1e9;
        // Open loop: the release rate is fixed, so the throughput a user of
        // the loop sees is the rate of triggers done within their period
        // (the implicit deadline); it falls only when the chain misses it.
        add_end_to_end(r, setup.total, log,
                       log.windowed_rate_within(kPeriodNs, kMinWindowSamples),
                       done, window_s, process_cpu_us() - cpu0);
        finish();
        return r;
    }

    Layers layers;
    layers.set("compiler.parse_ms", quantile(setup.parse, 0.5) / 1e6);
    layers.set("compiler.plan_ms", quantile(setup.plan, 0.5) / 1e6);
    layers.set("compiler.assemble_ms", quantile(setup.assemble, 0.5) / 1e6);
    layers.set("core.start_ms", quantile(setup.start, 0.5) / 1e6);

    // Phase A, untraced: counters and the reference p50.
    std::vector<compadres::core::Application*> apps = {app.get()};
    LatencyLog untraced;
    const FabricCounters fab0 = FabricCounters::of(apps);
    const std::uint64_t allocs0 = allocations();
    const double ops_a =
        static_cast<double>(run_phase(opts.seconds * 0.3, &untraced, nullptr));
    const std::uint64_t allocs1 = allocations();
    const FabricCounters fab = FabricCounters::of(apps).minus(fab0);
    set_fabric_layers(layers, static_cast<double>(fab.delivered),
                      static_cast<double>(fab.queue_locks),
                      static_cast<double>(fab.credit_stalls), ops_a);
    layers.set("proc.allocs_per_msg",
               static_cast<double>(allocs1 - allocs0) / ops_a);

    // Phase B, traced: per-op stamps and the live observer.
    const double traced_s = opts.seconds * 0.7;
    s.stamp_base = op;
    s.stamps = std::vector<Stamps>(
        static_cast<std::size_t>(traced_s * 1e9 / kPeriodNs) + 64);
    LatencyLog traced;
    std::vector<std::int64_t> late;
    late.reserve(s.stamps.size());
    {
        Observer observer(apps, 10'000'000);
        s.stamping.store(true);
        run_phase(traced_s, &traced, &late);
        s.stamping.store(false);
        observer.stop();
        set_observer_layers(layers, observer);
    }
    const std::uint64_t traced_ops = op - s.stamp_base;
    layers.set("proc.idle_cpu_pct", idle_cpu_pct(500'000'000));
    layers.set("bench.gen_late_p99_us", quantile(late, 0.99) / 1e3);

    SpanLog spans({"op", "bench.gen_late", "core.send", "core.queue_wait",
                   "core.handler"},
                  static_cast<std::size_t>(traced_ops) * 12 + 16);
    std::vector<std::int64_t> send, wait, handler;
    send.reserve(traced_ops * 3);
    wait.reserve(traced_ops * 3);
    handler.reserve(traced_ops * 3);
    for (std::uint64_t i = 0; i < traced_ops && i < s.stamps.size(); ++i) {
        const Stamps& st = s.stamps[i];
        const std::uint64_t id = s.stamp_base + i;
        const std::int64_t d_entry = st.d_entry.load();
        if (d_entry == 0 || st.l_sent.load() == 0) continue; // lost
        const std::int64_t rel = st.release.load(), gen_sent = st.gen_sent.load();
        const std::int64_t f_entry = st.f_entry.load(), f_send = st.f_send.load();
        const std::int64_t f_sent = st.f_sent.load(), f_exit = st.f_exit.load();
        const std::int64_t l_entry = st.l_entry.load(), l_send = st.l_send.load();
        const std::int64_t l_sent = st.l_sent.load(), l_exit = st.l_exit.load();
        const std::int64_t d_exit = st.d_exit.load();
        // The op's due time: releases are scheduled on a fixed grid.
        const std::int64_t due = rel - late[i];
        const std::int32_t root = spans.add(kOp, -1, id, due, d_entry);
        if (root < 0) break;
        spans.add(kGenLate, root, id, due, rel);
        spans.add(kSend, root, id, rel, gen_sent);
        spans.add(kQueueWait, root, id, gen_sent, f_entry);
        const std::int32_t fh = spans.add(kHandler, root, id, f_entry, f_exit);
        spans.add(kSend, fh, id, f_send, f_sent);
        spans.add(kQueueWait, root, id, f_sent, l_entry);
        const std::int32_t lh = spans.add(kHandler, root, id, l_entry, l_exit);
        spans.add(kSend, lh, id, l_send, l_sent);
        spans.add(kQueueWait, root, id, l_sent, d_entry);
        send.insert(send.end(), {gen_sent - rel, f_sent - f_send, l_sent - l_send});
        wait.insert(wait.end(),
                    {f_entry - gen_sent, l_entry - f_sent, d_entry - l_sent});
        handler.insert(handler.end(), {(f_exit - f_entry) - (f_sent - f_send),
                                       (l_exit - l_entry) - (l_sent - l_send),
                                       d_exit - d_entry});
    }
    layers.set("core.send_us_p50", quantile(send, 0.5) / 1e3);
    layers.set("core.send_us_p99", quantile(send, 0.99) / 1e3);
    layers.set("core.queue_wait_us_p50", quantile(wait, 0.5) / 1e3);
    layers.set("core.queue_wait_us_p99", quantile(wait, 0.99) / 1e3);
    layers.set("core.handler_us", quantile(handler, 0.5) / 1e3);
    set_phase_layers(r, layers, "control_loop", untraced, traced);
    r.note(fmt("set-up medians over %d: parse %.3fms plan %.3fms assemble "
               "%.3fms start %.3fms total %.3fms",
               kSetupReps, quantile(setup.parse, 0.5) / 1e6,
               quantile(setup.plan, 0.5) / 1e6,
               quantile(setup.assemble, 0.5) / 1e6,
               quantile(setup.start, 0.5) / 1e6,
               quantile(setup.total, 0.5) / 1e6));
    report_spans(r, spans, {kGenLate, kSend, kQueueWait, kHandler},
                 traced.overall(0.5));
    if (!opts.out_dir.empty()) {
        spans.write_csv(opts.out_dir + "/control_loop-seed" +
                        std::to_string(opts.seed) + "-spans.csv");
    }
    finish();
    layers.set("bench.failed_ratio", static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted));
    layers.emit(r);
    return r;
}

} // namespace perfbench
