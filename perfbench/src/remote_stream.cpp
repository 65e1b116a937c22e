// remote_stream — the remote pipeline across two processes. The echo peer
// is this binary, forked and exec'd with --peer, so it starts with no
// threads however many the generator's process already runs. It dials the
// generator's ShmAcceptor with shm_upgrade_connect and joins through a
// RemoteBridge; 4 KiB OctetSeq messages stream closed loop with a window of
// 32 in flight.
//
// The generator talks to the peer over a control pipe: "mark" asks for a
// counter snapshot (one line of key=value pairs), end of input stops it.
#include "workloads.hpp"

#include "core/messages.hpp"
#include "core/registry.hpp"
#include "net/frame_pool.hpp"
#include "net/shm_transport.hpp"
#include "remote/bridge.hpp"
#include "remote/serializer.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <semaphore>
#include <sstream>

namespace perfbench {
namespace {

namespace core = compadres::core;
namespace net = compadres::net;
namespace remote = compadres::remote;
using core::OctetSeq;

constexpr std::size_t kMsgBytes = OctetSeq::kCapacity; // 4 KiB
constexpr int kWindow = 32;
constexpr int kSetupReps = 40;
constexpr std::size_t kBank = 16;
constexpr std::int64_t kHandshakeNs = 20 * kNsPerSec;
/// The traced phase stamps one op in kSampleEvery (the stream runs at
/// ~10^5 ops/s; every op would need hundreds of MB of stamps).
constexpr std::uint64_t kSampleEvery = 32;
/// One latency sample in kLatencyStride completions is kept, so the
/// samples fit in memory up to ~600k msg/s; every completion is counted.
constexpr std::size_t kLatencyStride = 4;

core::InPortConfig single_worker(std::size_t buffer) {
    core::InPortConfig cfg;
    cfg.buffer_size = buffer;
    cfg.min_threads = 1;
    cfg.max_threads = 1;
    return cfg;
}

using Snapshot = std::map<std::string, double>;

/// Counters of one process, as the ratios below need them.
Snapshot snapshot(core::Application& app) {
    const FabricCounters f = FabricCounters::of({&app});
    const auto pool = net::FrameBufferPool::global().stats();
    Snapshot s;
    s["delivered"] = static_cast<double>(f.delivered);
    s["queue_locks"] = static_cast<double>(f.queue_locks);
    s["credit_stalls"] = static_cast<double>(f.credit_stalls);
    s["allocs"] = static_cast<double>(allocations());
    s["cpu_us"] = process_cpu_us();
    s["pool_acquires"] = static_cast<double>(pool.acquires);
    s["pool_hits"] = static_cast<double>(pool.hits);
    s["pool_allocs"] = static_cast<double>(pool.allocations);
    for (const char* name :
         {"frames_sent", "frames_received", "frames_dropped", "send_syscalls",
          "shm_active", "shm_frames_sent", "shm_tcp_frames_sent", "shm_wakeups",
          "shm_futex_waits", "shm_rx_copies"}) {
        s[name] = static_cast<double>(f.source(name));
    }
    return s;
}

std::string encode(const Snapshot& s) {
    std::string out;
    for (const auto& [k, v] : s) out += k + "=" + number(v) + " ";
    return out;
}

Snapshot decode(const std::string& line) {
    Snapshot s;
    std::istringstream in(line);
    std::string kv;
    while (in >> kv) {
        const auto eq = kv.find('=');
        if (eq != std::string::npos) s[kv.substr(0, eq)] = std::stod(kv.substr(eq + 1));
    }
    return s;
}

Snapshot operator-(const Snapshot& a, const Snapshot& b) {
    Snapshot d;
    for (const auto& [k, v] : a) {
        const auto it = b.find(k);
        d[k] = v - (it == b.end() ? 0.0 : it->second);
    }
    return d;
}

Snapshot operator+(const Snapshot& a, const Snapshot& b) {
    Snapshot d = a;
    for (const auto& [k, v] : b) d[k] += v;
    return d;
}

std::uint64_t inject_op(const Options& opts, const char* kind) {
    return opts.inject == kind ? 100 : kNoOp;
}

// ---- the peer process ------------------------------------------------------

std::uint64_t op_of(const OctetSeq& m) {
    std::uint64_t op = kNoOp;
    if (m.length >= sizeof op) std::memcpy(&op, m.data.data(), sizeof op);
    return op;
}

/// The generator's end of one peer: pid and both pipe ends.
class PeerProcess {
public:
    PeerProcess(const Options& opts, std::uint16_t port) {
        int to[2] = {-1, -1};
        int from[2] = {-1, -1};
        if (pipe2(to, O_CLOEXEC) != 0 || pipe2(from, O_CLOEXEC) != 0) {
            throw std::runtime_error("pipe2 failed");
        }
        // Everything the child needs is built before fork: after it, only
        // dup2/execv/_exit run in the child.
        const std::vector<std::string> args = {
            opts.self_path, "--peer", std::to_string(port), "--trace",
            opts.trace ? "1" : "0", "--inject",
            opts.inject.empty() ? "none" : opts.inject};
        std::vector<char*> argv;
        for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        pid_ = fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            dup2(to[0], STDIN_FILENO);
            dup2(from[1], STDOUT_FILENO);
            execv(argv[0], argv.data());
            _exit(127);
        }
        close(to[0]);
        close(from[1]);
        to_child_ = to[1];
        from_child_ = fdopen(from[0], "r");
    }
    ~PeerProcess() { finish(); }
    PeerProcess(const PeerProcess&) = delete;
    PeerProcess& operator=(const PeerProcess&) = delete;

    /// Next line the peer prints; throws when it exited instead.
    std::string read_line() {
        char buf[4096];
        if (from_child_ == nullptr || std::fgets(buf, sizeof buf, from_child_) == nullptr) {
            throw std::runtime_error("echo peer exited early");
        }
        return buf;
    }
    Snapshot mark() {
        if (write(to_child_, "mark\n", 5) != 5) throw std::runtime_error("peer pipe closed");
        return decode(read_line());
    }
    /// Close the control pipe, reap the peer; its whole-life CPU from wait4.
    double finish() {
        if (to_child_ >= 0) close(to_child_);
        to_child_ = -1;
        if (from_child_ != nullptr) std::fclose(from_child_);
        from_child_ = nullptr;
        if (pid_ <= 0) return child_cpu_us_;
        int status = 0;
        rusage ru{};
        while (wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        child_cpu_us_ =
            static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
        return child_cpu_us_;
    }
    bool exit_ok() const noexcept { return exit_ok_; }

private:
    pid_t pid_ = -1;
    int to_child_ = -1;
    std::FILE* from_child_ = nullptr;
    double child_cpu_us_ = 0.0;
    bool exit_ok_ = false;
};

/// ShmAcceptor::accept with a deadline: a watchdog closes the acceptor
/// when the peer never dials, so a dead peer cannot hang the run.
net::ShmConnectResult accept_within(net::ShmAcceptor& acceptor, std::int64_t ns) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::thread watchdog([&] {
        std::unique_lock lk(mu);
        if (!cv.wait_for(lk, std::chrono::nanoseconds(ns), [&] { return done; })) {
            acceptor.close();
        }
    });
    net::ShmConnectResult res;
    try {
        res = acceptor.accept();
    } catch (...) {
        res = {};
    }
    {
        std::lock_guard lk(mu);
        done = true;
    }
    cv.notify_all();
    watchdog.join();
    if (res.transport == nullptr) throw std::runtime_error("echo peer never connected");
    return res;
}

// ---- the generator's side ----------------------------------------------------

struct StreamState {
    std::vector<std::vector<std::uint8_t>> bank;
    std::array<std::atomic<std::int64_t>, 2 * kWindow> sent_at{};
    std::vector<bool> seen; ///< per-op arrival bit, reply thread only
    std::counting_semaphore<kWindow> window{kWindow};
    std::atomic<LatencyLog*> log{nullptr};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};

    /// Traced phase: stamps of every kSampleEvery-th op from stamp_base.
    struct Stamps {
        std::atomic<std::int64_t> send{0}, sent{0}, reply{0}, handled{0};
    };
    std::atomic<bool> stamping{false};
    std::vector<Stamps> stamps;
    std::uint64_t stamp_base = 0;

    Stamps* stamp(std::uint64_t op) noexcept {
        if (!stamping.load(std::memory_order_relaxed) || op < stamp_base ||
            (op - stamp_base) % kSampleEvery != 0) {
            return nullptr;
        }
        const std::uint64_t i = (op - stamp_base) / kSampleEvery;
        return i < stamps.size() ? &stamps[i] : nullptr;
    }
};

/// Reply handler: check the echo byte for byte, count each index once.
void on_reply(StreamState& s, const OctetSeq& m) {
    const std::int64_t now = now_ns();
    const std::uint64_t op = op_of(m);
    const bool known = op < s.seen.size();
    const bool first = known && !s.seen[op];
    if (known) s.seen[op] = true;
    const auto& want = known ? s.bank[op % kBank] : s.bank[0];
    const bool intact = m.length == kMsgBytes &&
                        std::memcmp(m.data.data() + 8, want.data() + 8,
                                    kMsgBytes - 8) == 0;
    if (first && intact) {
        if (LatencyLog* log = s.log.load(std::memory_order_relaxed)) {
            log->add(now, now - s.sent_at[op % s.sent_at.size()].load(
                                    std::memory_order_relaxed));
        }
    } else {
        s.failed.fetch_add(1, std::memory_order_relaxed);
    }
    if (StreamState::Stamps* st = known ? s.stamp(op) : nullptr) {
        st->reply.store(now, std::memory_order_relaxed);
        st->handled.store(now_ns(), std::memory_order_relaxed);
    }
    s.completed.fetch_add(1, std::memory_order_release);
    if (first) s.window.release();
}

/// The generator's application, bridge and peer for one set-up.
struct Stream {
    std::unique_ptr<PeerProcess> peer;
    std::unique_ptr<core::Application> app;
    std::unique_ptr<remote::RemoteBridge> bridge;
    core::OutPort<OctetSeq>* out = nullptr;
    bool shm = false;
    std::string detail;

    Stream(const Options& opts, StreamState& s) {
        net::ShmAcceptor acceptor(0);
        peer = std::make_unique<PeerProcess>(opts, acceptor.bound_port());
        net::ShmConnectResult wire = accept_within(acceptor, kHandshakeNs);
        shm = wire.shm;
        detail = wire.detail;
        app = std::make_unique<core::Application>("stream-gen");
        auto& gen = app->create_immortal<core::Component>("Gen");
        out = &gen.add_out_port<OctetSeq>("req", "OctetSeq");
        auto& in = gen.add_in_port<OctetSeq>(
            "rep", "OctetSeq", single_worker(2 * kWindow),
            [&s](OctetSeq& m, core::Smm&) { on_reply(s, m); });
        bridge = std::make_unique<remote::RemoteBridge>(
            *app, std::move(wire.transport), "bridge");
        bridge->export_route(*out, "req");
        bridge->import_route("rep", in);
        bridge->start();
        app->start();
        if (peer->read_line().rfind("ready", 0) != 0) {
            throw std::runtime_error("echo peer failed to start");
        }
    }
    ~Stream() { close(); }
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    /// Tear both sides down; returns the peer's whole-life CPU (wait4).
    double close() {
        if (bridge) bridge->shutdown();
        if (app) app->stop();
        bridge.reset();
        app.reset();
        return peer ? peer->finish() : 0.0;
    }
};

/// Closed loop with kWindow in flight for `seconds`; returns ops sent.
std::uint64_t stream(Stream& st, StreamState& s, std::uint64_t& next_op,
                     double seconds) {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t sent = 0;
    while (now_ns() < end && next_op < s.seen.size()) {
        if (!s.window.try_acquire_for(std::chrono::milliseconds(50))) continue;
        const std::uint64_t op = next_op++;
        const std::int64_t t0 = now_ns();
        OctetSeq* m = st.out->get_message();
        std::memcpy(m->data.data(), s.bank[op % kBank].data(), kMsgBytes);
        std::memcpy(m->data.data(), &op, sizeof op);
        m->length = kMsgBytes;
        s.sent_at[op % s.sent_at.size()].store(now_ns(), std::memory_order_relaxed);
        st.out->send(m);
        if (StreamState::Stamps* stamp = s.stamp(op)) {
            stamp->send.store(t0, std::memory_order_relaxed);
            stamp->sent.store(now_ns(), std::memory_order_relaxed);
        }
        ++sent;
    }
    return sent;
}

} // namespace

int run_remote_peer(std::uint16_t port, const Options& opts) {
    core::register_builtin_message_types();
    remote::register_builtin_serializers();
    const std::uint64_t corrupt = inject_op(opts, "corrupt-echo");
    const std::uint64_t drop = inject_op(opts, "drop");
    const std::uint64_t duplicate = inject_op(opts, "duplicate");

    net::ShmConnectResult wire = net::shm_upgrade_connect("127.0.0.1", port);
    core::Application app("stream-echo");
    auto& echo = app.create_immortal<core::Component>("Echo");
    auto& out = echo.add_out_port<OctetSeq>("rep", "OctetSeq");
    auto& in = echo.add_in_port<OctetSeq>(
        "req", "OctetSeq", single_worker(2 * kWindow),
        [&](OctetSeq& m, core::Smm&) {
            const std::uint64_t op = op_of(m);
            if (op == drop) return;
            for (int copy = op == duplicate ? 2 : 1; copy > 0; --copy) {
                OctetSeq* reply = out.get_message();
                reply->assign(m.data.data(), m.length);
                if (op == corrupt) reply->data[kMsgBytes / 2] ^= 0x5A;
                out.send(reply);
            }
        });
    remote::RemoteBridge bridge(app, std::move(wire.transport), "bridge");
    bridge.import_route("req", in);
    bridge.export_route(out, "rep");
    bridge.start();
    app.start();
    std::printf("ready shm=%d %s\n", wire.shm ? 1 : 0, wire.detail.c_str());
    std::fflush(stdout);

    char line[64];
    while (std::fgets(line, sizeof line, stdin) != nullptr) {
        std::printf("%s\n", encode(snapshot(app)).c_str());
        std::fflush(stdout);
    }
    bridge.shutdown();
    app.stop();
    return 0;
}

Result run_remote_stream(const Options& opts) {
    signal(SIGPIPE, SIG_IGN);
    core::register_builtin_message_types();
    remote::register_builtin_serializers();
    if (!opts.inject.empty() && inject_op(opts, "corrupt-echo") == kNoOp &&
        inject_op(opts, "drop") == kNoOp && inject_op(opts, "duplicate") == kNoOp) {
        throw std::runtime_error("unknown --inject");
    }
    Result r;
    StreamState s;
    s.bank = payload_bank(opts.seed, kBank, kMsgBytes);
    // One bit per op, room for 4M ops/s; the generator stops at the end.
    s.seen.assign(static_cast<std::size_t>((opts.seconds + 2.0) * 4e6), false);

    // Set-up: acceptor, fork+exec of the peer, shm handshake, both
    // applications and bridges started, peer ready; repeated, and setup_s
    // is the fastest.
    std::vector<std::int64_t> setup_ns;
    std::unique_ptr<Stream> st;
    for (int i = 0; i < kSetupReps; ++i) {
        st.reset();
        const std::int64_t t0 = now_ns();
        st = std::make_unique<Stream>(opts, s);
        setup_ns.push_back(now_ns() - t0);
    }
    r.wire = st->shm ? "shm (negotiated shm=1; " + st->detail + ")"
                     : "tcp fallback (negotiated shm=0; " + st->detail + ")";
    std::uint64_t op = 0;
    std::uint64_t sent = stream(*st, s, op, 0.5); // warm-up
    drain(s.completed, sent);

    const auto phase = [&](double seconds, LatencyLog* log) {
        if (log != nullptr) {
            log->reset(static_cast<std::size_t>(seconds * 150'000) + 1024,
                       now_ns(), kLatencyStride);
        }
        s.log.store(log);
        const std::uint64_t before = s.completed.load();
        stream(*st, s, op, seconds);
        drain(s.completed, op);
        s.log.store(nullptr);
        return s.completed.load() - before;
    };
    const auto finish = [&] {
        const double peer_cpu = st->close();
        if (!st->peer->exit_ok()) {
            r.failed += 1;
            r.note("echo peer exited with an error");
        }
        r.note(fmt("echo peer: whole-life CPU %.0fus (wait4)", peer_cpu));
        st.reset();
        std::uint64_t lost = 0;
        for (std::uint64_t i = 0; i < op; ++i) lost += s.seen[i] ? 0 : 1;
        r.attempted = op;
        r.failed += s.failed.load() + lost;
    };

    if (!opts.trace) {
        LatencyLog log;
        const Snapshot peer0 = st->peer->mark();
        const double cpu0 = process_cpu_us();
        const std::int64_t t0 = now_ns();
        const std::uint64_t done = phase(opts.seconds, &log);
        const double window_s = static_cast<double>(now_ns() - t0) / 1e9;
        const double cpu_parent = process_cpu_us() - cpu0;
        const Snapshot peer1 = st->peer->mark();
        const double cpu_peer = peer1.at("cpu_us") - peer0.at("cpu_us");
        add_end_to_end(r, setup_ns, log, closed_loop_rate(log, done, window_s),
                       done, window_s, cpu_parent + cpu_peer);
        finish();
        r.note(fmt("cpu: generator %.0fus + echo peer %.0fus over the window",
                   cpu_parent, cpu_peer));
        return r;
    }

    Layers layers;
    std::vector<core::Application*> apps = {st->app.get()};

    // Phase A, untraced: both processes' counters and the reference p50.
    LatencyLog untraced;
    const Snapshot a0 = snapshot(*st->app) + st->peer->mark();
    const std::uint64_t done_a = phase(opts.seconds * 0.3, &untraced);
    const Snapshot d = (snapshot(*st->app) + st->peer->mark()) - a0;
    const double ops = static_cast<double>(done_a);
    const auto per_op = [&](const char* k) { return d.at(k) / ops; };
    set_fabric_layers(layers, d.at("delivered"), d.at("queue_locks"),
                      d.at("credit_stalls"), ops);
    layers.set("net.frames_per_op",
               (d.at("frames_sent") + d.at("frames_received")) / ops);
    layers.set("net.send_syscalls_per_frame",
               d.at("frames_sent") > 0 ? d.at("send_syscalls") / d.at("frames_sent")
                                       : 0.0);
    layers.set("net.frame_pool_hit_ratio",
               d.at("pool_acquires") > 0 ? d.at("pool_hits") / d.at("pool_acquires")
                                         : 0.0);
    layers.set("net.frame_pool_allocs_per_msg", per_op("pool_allocs"));
    layers.set("net.shm_futex_per_msg",
               (d.at("shm_wakeups") + d.at("shm_futex_waits")) / ops);
    layers.set("net.rx_copies_per_msg", per_op("shm_rx_copies"));
    const double wire_frames = d.at("shm_frames_sent") + d.at("shm_tcp_frames_sent");
    layers.set("net.shm_fast_path_share",
               wire_frames > 0 ? d.at("shm_frames_sent") / wire_frames : 0.0);
    layers.set("proc.allocs_per_msg", per_op("allocs"));

    // Phase B, traced: sampled op stamps, hop sink, observer.
    const double traced_s = opts.seconds * 0.7;
    const std::size_t sampled =
        static_cast<std::size_t>(traced_s * 400'000) / kSampleEvery;
    LatencyLog traced;
    s.stamp_base = op;
    s.stamps = std::vector<StreamState::Stamps>(sampled);
    HopSink sink(2 * sampled, kSampleEvery);
    sink.mark_owner(st->app->find("bridge"));
    {
        SinkGuard guard(sink);
        Observer observer(apps, 10'000'000);
        s.stamping.store(true);
        phase(traced_s, &traced);
        s.stamping.store(false);
        observer.stop();
        set_observer_layers(layers, observer);
    }
    layers.set("proc.idle_cpu_pct", idle_cpu_pct(500'000'000));
    const Snapshot end = snapshot(*st->app) + st->peer->mark();
    layers.set("remote.frames_dropped", end.at("frames_dropped"));
    enum SpanName : std::uint16_t { kOp, kSend, kHandler };
    SpanLog spans({"op", "core.send", "core.handler"}, 3 * sampled);
    std::vector<std::int64_t> send_ns, handler_ns;
    send_ns.reserve(sampled);
    handler_ns.reserve(sampled);
    for (std::size_t i = 0; i < s.stamps.size(); ++i) {
        const StreamState::Stamps& x = s.stamps[i];
        const std::int64_t t0 = x.send.load(), t1 = x.sent.load();
        const std::int64_t t2 = x.reply.load(), t3 = x.handled.load();
        if (t0 == 0 || t2 == 0) continue; // not sent, or lost
        const std::uint64_t id = s.stamp_base + i * kSampleEvery;
        const std::int32_t root = spans.add(kOp, -1, id, t0, t2);
        spans.add(kSend, root, id, t0, t1);
        spans.add(kHandler, -1, id, t2, t3); // runs after the op completed
        send_ns.push_back(t1 - t0);
        handler_ns.push_back(t3 - t2);
    }
    layers.set("core.send_us_p50", quantile(send_ns, 0.5) / 1e3);
    layers.set("core.send_us_p99", quantile(send_ns, 0.99) / 1e3);
    layers.set("core.handler_us", quantile(handler_ns, 0.5) / 1e3);
    const auto qw = sink.queue_wait().snapshot();
    layers.set("core.queue_wait_us_p50", quantile(qw, 0.5) / 1e3);
    layers.set("core.queue_wait_us_p99", quantile(qw, 0.99) / 1e3);
    const auto ex = sink.marked_handler().snapshot();
    layers.set("remote.export_send_us_p50", quantile(ex, 0.5) / 1e3);
    layers.set("remote.export_send_us_p99", quantile(ex, 0.99) / 1e3);
    set_phase_layers(r, layers, "remote_stream", untraced, traced);
    r.note(fmt("per-message ratios use %llu round trips of phase A (both "
               "processes' counters)",
               static_cast<unsigned long long>(done_a)));
    r.note(fmt("spans and hop samples cover one op (hop) in %llu",
               static_cast<unsigned long long>(kSampleEvery)));
    report_spans(r, spans, {}, 0.0);
    if (!opts.out_dir.empty()) {
        spans.write_csv(opts.out_dir + "/remote_stream-seed" +
                        std::to_string(opts.seed) + "-spans.csv");
    }
    finish();
    layers.set("bench.failed_ratio", static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted));
    layers.emit(r);
    return r;
}

} // namespace perfbench
