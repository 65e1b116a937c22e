// orb_echo — the paper's E3: ClientOrb::invoke echo against a ServerOrb
// with default options over TCP on 127.0.0.1, closed loop with one call
// outstanding; payload sizes drawn uniformly from 32..1024 B.
//
// Traced run: an untraced phase, the RTZen pair on the same seed and wire
// type, then a traced phase on a fresh pair whose client wire is wrapped in
// a forwarding net::Transport. That decorator and timestamps in the servant
// split each invoke into client path, send_frame, request path, servant and
// reply path; the untraced phase and the RTZen pair run without it.
#include "workloads.hpp"

#include "net/tcp.hpp"
#include "orb/client_orb.hpp"
#include "orb/server_orb.hpp"
#include "rtzen/rtzen.hpp"

#include <cstring>
#include <optional>

namespace perfbench {
namespace {

namespace net = compadres::net;
namespace orb = compadres::orb;
namespace rtzen = compadres::rtzen;

constexpr std::size_t kSizes[] = {32, 64, 128, 256, 512, 1024};
constexpr int kSetupReps = 60;
/// Spans are kept for one op in kSpanEvery.
constexpr std::uint64_t kSpanEvery = 4;

/// Timestamps of the op in flight (one call outstanding at a time).
struct OpTimes {
    std::atomic<bool> on{false};
    std::atomic<std::int64_t> send_start{0}, send_end{0};
    std::atomic<std::int64_t> recv_start{0}, recv_end{0};
    std::atomic<std::int64_t> servant_entry{0}, servant_exit{0};
};

/// Forwarding decorator on the client wire: times send_frame and the wait
/// in recv_frame, changes nothing else.
class TimedWire final : public net::Transport {
public:
    TimedWire(std::unique_ptr<net::Transport> inner, OpTimes& times)
        : inner_(std::move(inner)), times_(times) {}

    void send_frame(net::FrameBuffer frame) override {
        const std::int64_t t0 = now_ns();
        inner_->send_frame(std::move(frame));
        if (times_.on.load(std::memory_order_relaxed)) {
            times_.send_start.store(t0, std::memory_order_relaxed);
            times_.send_end.store(now_ns(), std::memory_order_relaxed);
        }
    }
    std::optional<net::FrameBuffer> recv_frame() override {
        const std::int64_t t0 = now_ns();
        auto frame = inner_->recv_frame();
        if (times_.on.load(std::memory_order_relaxed)) {
            times_.recv_start.store(t0, std::memory_order_relaxed);
            times_.recv_end.store(now_ns(), std::memory_order_relaxed);
        }
        return frame;
    }
    void close() override { inner_->close(); }
    std::string peer_description() const override {
        return inner_->peer_description();
    }
    net::TransportStats stats() const override { return inner_->stats(); }
    net::ReactorHook* reactor_hook() noexcept override {
        return inner_->reactor_hook();
    }
    void prepare_close() override { inner_->prepare_close(); }
    net::FrameBufferPool& frame_pool() noexcept override {
        return inner_->frame_pool();
    }
    void set_frame_pool(net::FrameBufferPool* pool) noexcept override {
        inner_->set_frame_pool(pool);
    }
    void set_coalescing(bool on) override { inner_->set_coalescing(on); }

private:
    std::unique_ptr<net::Transport> inner_;
    OpTimes& times_;
};

struct EchoState {
    OpTimes times;
    std::uint64_t corrupt_op = kNoOp; ///< --inject corrupt-reply
};

orb::Servant make_servant(EchoState& st) {
    return [&st](const std::string&, const std::uint8_t* payload,
                 std::size_t len, std::vector<std::uint8_t>& reply) {
        const std::int64_t t0 = now_ns();
        reply.assign(payload, payload + len);
        std::uint64_t op = 0;
        if (len >= sizeof op) std::memcpy(&op, payload, sizeof op);
        if (op == st.corrupt_op) reply.back() ^= 0x5A;
        if (st.times.on.load(std::memory_order_relaxed)) {
            st.times.servant_entry.store(t0, std::memory_order_relaxed);
            st.times.servant_exit.store(now_ns(), std::memory_order_relaxed);
        }
        return true;
    };
}

/// Server, client and the listening socket of one ORB pair. Members die in
/// reverse order: the client closes its wire before the server's own
/// destructor shuts it down (an explicit ServerOrb::shutdown() before
/// that destructor would run the shutdown twice on a torn-down pipeline).
template <typename Server, typename Client>
struct Rig {
    net::TcpAcceptor acceptor{0};
    Server server;
    std::unique_ptr<Client> client;
    net::Transport* wire = nullptr; ///< the client's wire, owned by the client

    Rig(EchoState& st, bool timed) {
        server.register_servant("Echo", make_servant(st));
        std::unique_ptr<net::Transport> accepted;
        std::thread accept_thread([&] { accepted = acceptor.accept(); });
        std::unique_ptr<net::Transport> dialed;
        try {
            dialed = net::tcp_connect("127.0.0.1", acceptor.bound_port());
        } catch (...) {
            acceptor.close();
            accept_thread.join();
            throw;
        }
        accept_thread.join();
        if (accepted == nullptr) throw std::runtime_error("accept failed");
        server.attach(std::move(accepted));
        if (timed) {
            dialed = std::make_unique<TimedWire>(std::move(dialed), st.times);
        }
        wire = dialed.get();
        client = std::make_unique<Client>(std::move(dialed));
    }
};

using CompadresRig = Rig<orb::ServerOrb, orb::ClientOrb>;
using RtzenRig = Rig<rtzen::RtzenServerOrb, rtzen::RtzenClientOrb>;

/// The seeded request stream: size and bytes per op, op index stamped in
/// the first 8 bytes so every request is distinct.
class Requests {
public:
    explicit Requests(std::uint64_t seed)
        : rng_(seed), bank_(payload_bank(seed, 64, 1024)), buf_(1024) {}
    std::size_t next(std::uint64_t op) {
        const std::size_t n = kSizes[rng_.below(std::size(kSizes))];
        const auto& src = bank_[rng_.below(bank_.size())];
        std::memcpy(buf_.data(), src.data(), n);
        std::memcpy(buf_.data(), &op, sizeof op);
        return n;
    }
    const std::uint8_t* data() const noexcept { return buf_.data(); }

private:
    Rng rng_;
    std::vector<std::vector<std::uint8_t>> bank_;
    std::vector<std::uint8_t> buf_;
};

struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

const std::string kKey = "Echo";
const std::string kOp = "echo";

/// One checked invoke; returns its round trip in ns, or -1 when it failed.
template <typename Client>
std::int64_t call(Client& client, Requests& req, std::uint64_t op, Tally& t) {
    const std::size_t n = req.next(op);
    ++t.attempted;
    const std::int64_t t0 = now_ns();
    try {
        const std::vector<std::uint8_t> reply =
            client.invoke(kKey, kOp, req.data(), n);
        const std::int64_t t1 = now_ns();
        if (reply.size() != n || std::memcmp(reply.data(), req.data(), n) != 0) {
            ++t.failed;
            return -1;
        }
        return t1 - t0;
    } catch (const std::exception&) {
        ++t.failed;
        return -1;
    }
}

/// Closed loop for `seconds`; every completed call lands in `log`.
/// `after_call` runs after each successful call (the traced phase records
/// its spans there).
template <typename Client, typename After>
std::uint64_t drive(Client& client, Requests& req, std::uint64_t& op,
                    double seconds, LatencyLog* log, Tally& t,
                    After&& after_call) {
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    if (log != nullptr) {
        log->reset(static_cast<std::size_t>(seconds * 150'000) + 1024, start);
    }
    std::uint64_t done = 0;
    for (std::int64_t now = start; now < end;) {
        const std::uint64_t this_op = op++;
        const std::int64_t rtt = call(client, req, this_op, t);
        now = now_ns();
        if (rtt < 0) continue;
        ++done;
        if (log != nullptr) log->add(now, rtt);
        after_call(this_op, now - rtt, now);
    }
    return done;
}

constexpr auto kNothing = [](std::uint64_t, std::int64_t, std::int64_t) {};

enum SpanName : std::uint16_t {
    kInvoke, kSendFrame, kRecvWait, kRequestPath, kServant, kReplyPath
};

} // namespace

Result run_orb_echo(const Options& opts) {
    Result r;
    r.wire = "tcp-loopback 127.0.0.1 (orb_echo, rtzen baseline)";
    EchoState st;
    if (opts.inject == "corrupt-reply") st.corrupt_op = 100;
    else if (!opts.inject.empty()) throw std::runtime_error("unknown --inject");

    Requests req(opts.seed);
    Tally tally;
    std::uint64_t op = 0;

    // Set-up: listening socket, ServerOrb, connect, ClientOrb; repeated,
    // keeping the last pair for the measurement.
    std::vector<std::int64_t> setup_ns;
    std::unique_ptr<CompadresRig> rig;
    for (int i = 0; i < kSetupReps; ++i) {
        rig.reset();
        const std::int64_t t0 = now_ns();
        rig = std::make_unique<CompadresRig>(st, false);
        setup_ns.push_back(now_ns() - t0);
    }
    const auto apps_of = [](CompadresRig& x) {
        return std::vector<compadres::core::Application*>{
            &x.client->application(), &x.server.application()};
    };

    drive(*rig->client, req, op, 0.5, nullptr, tally, kNothing); // warm-up

    if (!opts.trace) {
        LatencyLog log;
        const double cpu0 = process_cpu_us();
        const std::int64_t t0 = now_ns();
        const std::uint64_t done =
            drive(*rig->client, req, op, opts.seconds, &log, tally, kNothing);
        const double window_s = static_cast<double>(now_ns() - t0) / 1e9;
        add_end_to_end(r, setup_ns, log, closed_loop_rate(log, done, window_s),
                       done, window_s, process_cpu_us() - cpu0);
        r.attempted = tally.attempted;
        r.failed = tally.failed;
        return r;
    }

    Layers layers;
    // Phase A, untraced: the counter-based ratios and the reference p50.
    LatencyLog untraced;
    const FabricCounters fab0 = FabricCounters::of(apps_of(*rig));
    const auto pool0 = net::FrameBufferPool::global().stats();
    const net::TransportStats wire0 = rig->wire->stats();
    const std::uint64_t allocs0 = allocations();
    const std::uint64_t done_a = drive(*rig->client, req, op, opts.seconds * 0.3,
                                       &untraced, tally, kNothing);
    const std::uint64_t allocs1 = allocations();
    const net::TransportStats wire1 = rig->wire->stats();
    const auto pool1 = net::FrameBufferPool::global().stats();
    const FabricCounters fab = FabricCounters::of(apps_of(*rig)).minus(fab0);
    const double ops_a = static_cast<double>(done_a);
    set_fabric_layers(layers, static_cast<double>(fab.delivered),
                      static_cast<double>(fab.queue_locks),
                      static_cast<double>(fab.credit_stalls), ops_a);
    const double frames_sent =
        static_cast<double>(wire1.frames_sent - wire0.frames_sent);
    layers.set("net.frames_per_op",
               (frames_sent + static_cast<double>(wire1.frames_received -
                                                  wire0.frames_received)) /
                   ops_a);
    layers.set("net.send_syscalls_per_frame",
               frames_sent > 0 ? static_cast<double>(wire1.send_syscalls -
                                                     wire0.send_syscalls) /
                                     frames_sent
                               : 0.0);
    const double acquires = static_cast<double>(pool1.acquires - pool0.acquires);
    layers.set("net.frame_pool_hit_ratio",
               acquires > 0 ? static_cast<double>(pool1.hits - pool0.hits) / acquires
                            : 0.0);
    layers.set("net.frame_pool_allocs_per_msg",
               static_cast<double>(pool1.allocations - pool0.allocations) / ops_a);
    layers.set("proc.allocs_per_msg",
               static_cast<double>(allocs1 - allocs0) / ops_a);

    // The RTZen pair: same seed, same wire type, untraced.
    LatencyLog rtzen_log;
    {
        RtzenRig baseline(st, false);
        Requests rreq(opts.seed);
        std::uint64_t rop = 0;
        drive(*baseline.client, rreq, rop, 0.3, nullptr, tally, kNothing);
        drive(*baseline.client, rreq, rop, opts.seconds * 0.2, &rtzen_log, tally,
              kNothing);
    }

    // Phase B, traced, on a fresh pair with the timed client wire: spans per
    // op, hop sink, live observer.
    rig.reset();
    rig = std::make_unique<CompadresRig>(st, true);
    drive(*rig->client, req, op, 0.3, nullptr, tally, kNothing);
    const std::size_t traced_ops =
        static_cast<std::size_t>(opts.seconds * 0.5 * 40'000);
    SpanLog spans({"orb.invoke", "net.send_frame", "net.recv_wait",
                   "orb.request_path", "orb.servant", "orb.reply_path"},
                  6 * traced_ops / kSpanEvery);
    HopSink sink(8 * traced_ops / kSpanEvery, kSpanEvery);
    LatencyLog traced;
    {
        SinkGuard guard(sink);
        Observer observer(apps_of(*rig), 10'000'000);
        st.times.on.store(true);
        auto record = [&](std::uint64_t id, std::int64_t t0, std::int64_t t1) {
            if (id % kSpanEvery != 0) return;
            const OpTimes& x = st.times;
            const std::int64_t s0 = x.send_start.load(), s1 = x.send_end.load();
            const std::int64_t r0 = x.recv_start.load(), r1 = x.recv_end.load();
            const std::int64_t v0 = x.servant_entry.load();
            const std::int64_t v1 = x.servant_exit.load();
            const std::int32_t root = spans.add(kInvoke, -1, id, t0, t1);
            if (root < 0) return;
            spans.add(kSendFrame, root, id, s0, s1);
            const std::int32_t wait = spans.add(kRecvWait, root, id, r0, r1);
            spans.add(kRequestPath, wait, id, s1, v0);
            spans.add(kServant, wait, id, v0, v1);
            spans.add(kReplyPath, wait, id, v1, r1);
        };
        drive(*rig->client, req, op, opts.seconds * 0.5, &traced, tally, record);
        st.times.on.store(false);
        observer.stop();
        set_observer_layers(layers, observer);
    }
    layers.set("proc.idle_cpu_pct", idle_cpu_pct(500'000'000));

    const auto qw = sink.queue_wait().snapshot();
    layers.set("core.queue_wait_us_p50", quantile(qw, 0.5) / 1e3);
    layers.set("core.queue_wait_us_p99", quantile(qw, 0.99) / 1e3);
    for (const auto& [name, ns] : spans.median_self_ns()) {
        if (name == "orb.invoke") layers.set("orb.client_path_us", ns / 1e3);
        if (name == "net.send_frame") layers.set("net.send_frame_us", ns / 1e3);
        if (name == "orb.request_path") layers.set("orb.request_path_us", ns / 1e3);
        if (name == "orb.reply_path") layers.set("orb.reply_path_us", ns / 1e3);
        if (name == "orb.servant") {
            layers.set("orb.servant_us", ns / 1e3);
            layers.set("core.handler_us", ns / 1e3);
        }
    }
    const double p50_a = latency_us(untraced, 0.5);
    const double p50_rtzen = latency_us(rtzen_log, 0.5);
    layers.set("orb.rtzen_latency_p50_us", p50_rtzen);
    layers.set("orb.component_overhead_us", p50_a - p50_rtzen);
    set_phase_layers(r, layers, "orb_echo", untraced, traced);
    r.note(latency_line("rtzen baseline", rtzen_log));
    r.note(fmt("component overhead (Fig. 11 gap): %.2fus - rtzen %.2fus = %.2fus",
               p50_a, p50_rtzen, p50_a - p50_rtzen));
    report_spans(r, spans,
                 {kInvoke, kSendFrame, kRequestPath, kServant, kReplyPath},
                 traced.overall(0.5));
    if (!opts.out_dir.empty()) {
        spans.write_csv(opts.out_dir + "/orb_echo-seed" +
                        std::to_string(opts.seed) + "-spans.csv");
    }
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    layers.set("bench.failed_ratio", static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted));
    layers.emit(r);
    return r;
}

} // namespace perfbench
