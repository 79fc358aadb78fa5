// The load generator's socket side: restarts sorel_serve on a prepared
// data dir, times set-up, drives the measured request streams (one
// connection per session), and collects what the server reports afterwards.
#ifndef SERVEBENCH_CLIENT_H_
#define SERVEBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "ladder.h"
#include "workload.h"

namespace servebench {

/// Server starts per run, each timed for setup_s; the last one serves the
/// measured phase.
constexpr int kRestarts = 9;

/// The measured phase is cut into slices this long; throughput and server
/// CPU per request are medians over them, so a stall of the host that
/// lasts a few slices moves neither.
constexpr double kSliceS = 0.25;

struct ServerOptions {
  std::string binary;  // sorel_serve
  std::string rules_path;
  std::string data_dir;
  std::string socket_path;
};

struct ServerRun {
  std::vector<double> setup_s;
  std::vector<double> commit_us;
  std::vector<double> run_us;
  uint64_t measured_requests = 0;
  uint64_t wm_changes = 0;
  double phase_s = 0;
  double server_cpu_s = 0;
  /// Per slice of the measured phase, taken while every connection is
  /// still sending: requests completed per second, and server on-CPU
  /// microseconds per completed request.
  std::vector<double> slice_rps;
  std::vector<double> slice_cpu_us_per_req;
  double client_cpu_s = 0;
  double peak_rss_mb = 0;
  std::vector<SessionCheck> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

sorel::Result<ServerRun> DriveServer(const WorkloadSpec& spec,
                                     const ServerOptions& options,
                                     const Prefix& prefix, uint64_t seed,
                                     int seconds);

}  // namespace servebench

#endif  // SERVEBENCH_CLIENT_H_
