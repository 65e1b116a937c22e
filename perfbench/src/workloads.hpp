// The three workloads. Each runs for Options::seconds of measurement
// after its set-up and warm-up and fills a Result: untraced, the
// end-to-end metrics; traced, the per-layer metrics.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_orb_echo(const Options& opts);
Result run_control_loop(const Options& opts);
Result run_remote_stream(const Options& opts);

/// Entry point of the remote_stream echo peer (a separate process).
int run_remote_peer(std::uint16_t port, const Options& opts);

} // namespace perfbench
