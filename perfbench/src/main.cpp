// perfbench — the repository benchmark binary.
//
//   perfbench --workload <orb_echo|control_loop|remote_stream> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir> [--inject <fault>]
//
// Prints a human-readable report, then, as its last line, one JSON object
// {"correct","attempted","failed","metrics"}. Exits 1 when any output
// check failed, 2 on bad arguments, 3 when the run itself broke.
#include "workloads.hpp"

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

using namespace perfbench;

namespace {

int usage(const char* why) {
    std::fprintf(stderr, "perfbench: %s\n", why);
    return 2;
}

void write_artifact(const Options& opts, const Result& r,
                    const std::string& result_line) {
    const std::string path = opts.out_dir + "/" + opts.workload + "-trace" +
                             (opts.trace ? "1" : "0") + "-seed" +
                             std::to_string(opts.seed) + ".json";
    std::ofstream out(path);
    if (!out) return;
    out << "{\"workload\":\"" << opts.workload << "\",\"seed\":" << opts.seed
        << ",\"seconds\":" << number(opts.seconds)
        << ",\"trace\":" << (opts.trace ? 1 : 0) << ",\"host\":" << host_json()
        << ",\"wire\":\"" << r.wire << "\",\"result\":" << result_line
        << ",\"report\":[";
    for (std::size_t i = 0; i < r.report.size(); ++i) {
        out << (i ? "," : "") << '"';
        for (char c : r.report[i]) {
            if (c == '"' || c == '\\') out << '\\';
            out << c;
        }
        out << '"';
    }
    out << "]}\n";
}

} // namespace

int main(int argc, char** argv) {
    Options opts;
    opts.self_path = argv[0];
    int peer_port = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        if (a == "--workload") opts.workload = v;
        else if (a == "--seed") opts.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds") opts.seconds = std::atof(v);
        else if (a == "--trace") opts.trace = std::strcmp(v, "0") != 0;
        else if (a == "--inject") opts.inject = v;
        else if (a == "--out-dir") opts.out_dir = v;
        else if (a == "--peer") peer_port = std::atoi(v);
        else return usage(("unknown option " + a).c_str());
    }
    if (opts.seconds <= 0.0) return usage("--seconds must be positive");
    count_allocations(opts.trace);
    // Set-ups are repeated within a run. With glibc's default, the first
    // free of a set-up's multi-MB memory regions raises the mmap threshold,
    // and whether later set-ups then reuse warm heap pages depends on heap
    // layout, so setup_s moved by half from process to process. A fixed
    // threshold maps and faults in the regions afresh every time, as a
    // user's one set-up does.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    try {
        if (peer_port >= 0) {
            return run_remote_peer(static_cast<std::uint16_t>(peer_port), opts);
        }
        Result r;
        if (opts.workload == "orb_echo") r = run_orb_echo(opts);
        else if (opts.workload == "control_loop") r = run_control_loop(opts);
        else if (opts.workload == "remote_stream") r = run_remote_stream(opts);
        else return usage("unknown --workload");

        std::printf("== %s seed=%llu seconds=%s trace=%d\n",
                    opts.workload.c_str(),
                    static_cast<unsigned long long>(opts.seed),
                    number(opts.seconds).c_str(), opts.trace ? 1 : 0);
        std::printf("host: %s\nwire: %s\n", host_json().c_str(), r.wire.c_str());
        for (const std::string& line : r.report) std::printf("%s\n", line.c_str());
        std::printf("failed_ratio: %s (%llu failed of %llu attempted)\n",
                    number(r.attempted ? static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted)
                                       : 0.0)
                        .c_str(),
                    static_cast<unsigned long long>(r.failed),
                    static_cast<unsigned long long>(r.attempted));
        for (const Metric& m : r.metrics) {
            std::printf("metric %-32s %14s %s\n", m.name.c_str(),
                        number(m.value).c_str(), m.unit.c_str());
        }

        std::string line = std::string("{\"correct\": ") +
                           (r.failed == 0 ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(r.attempted) +
                           ", \"failed\": " + std::to_string(r.failed) +
                           ", \"metrics\": {";
        for (std::size_t i = 0; i < r.metrics.size(); ++i) {
            const Metric& m = r.metrics[i];
            line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                    number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        }
        line += "}}";
        if (!opts.out_dir.empty()) write_artifact(opts, r, line);
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
        return r.failed == 0 && r.attempted > 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 3;
    }
}
