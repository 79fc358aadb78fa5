// servebench: end-to-end benchmark of sorel_serve.
//
//   servebench --workload ingest|set_batch|churn --seed N --seconds S
//              --trace 0|1 --server PATH --work-dir DIR [--spans FILE]
//
// Journals the workload's seeded prefix in-process, restarts sorel_serve on
// it several times (setup_s), drives the measured phase over a unix socket,
// and checks every session against an in-process replay of the same
// requests (rung 1). With --trace 1 it runs the layer ladder instead of
// that lone replay (the ladder's untraced rung 1 is the reference) and
// reports per-layer metrics instead of the end-to-end ones. The last line
// of stdout is one JSON object; any failed request or mismatch exits 1
// without it. See README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "client.h"
#include "ladder.h"
#include "workload.h"

namespace {

using servebench::LayerMetric;
using servebench::Percentile;

/// Removes the run's data dir however main exits.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {}
  ~RunDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  return 1;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const std::map<std::string, LayerMetric>& metrics,
                       uint64_t attempted, uint64_t failed) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

void PrintMetrics(const char* title,
                  const std::map<std::string, LayerMetric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-34s %14.4f %-5s (n=%llu)\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Fail("bad argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "server", "work-dir"}) {
    if (args.count(required) == 0) {
      return Fail(std::string("missing --") + required);
    }
  }
  const servebench::WorkloadSpec* spec =
      servebench::FindWorkload(args["workload"]);
  if (spec == nullptr) return Fail("unknown workload " + args["workload"]);
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const int seconds = std::atoi(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  if (seconds < 1 || seconds > 60) return Fail("--seconds must be 1..60");

  std::error_code ec;
  std::filesystem::create_directories(args["work-dir"], ec);
  std::string templ = args["work-dir"] + "/" + spec->name + "-XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) return Fail("mkdtemp " + templ);
  RunDir run_dir(templ);
  const std::string data = run_dir.path() + "/data";
  const std::string pristine = run_dir.path() + "/pristine";
  const std::string rules = run_dir.path() + "/rules.ops";
  std::ofstream(rules) << spec->rules;

  // Untimed: journal the prefix, and keep a copy for the in-process rungs.
  auto prefix = servebench::BuildPrefix(*spec, seed, data);
  if (!prefix.ok()) return Fail("prefix: " + prefix.status().ToString());
  sorel::Status copied = servebench::CopyDir(data, pristine);
  if (!copied.ok()) return Fail(copied.ToString());

  servebench::ServerOptions options;
  options.binary = args["server"];
  options.rules_path = rules;
  options.data_dir = data;
  options.socket_path = data + "/sock";
  auto served =
      servebench::DriveServer(*spec, options, *prefix, seed, seconds);
  if (!served.ok()) return Fail("server run: " + served.status().ToString());
  std::filesystem::remove_all(data, ec);

  const double requests = static_cast<double>(served->measured_requests);
  uint64_t wal_bytes = 0;
  uint64_t fsyncs = 0;
  for (const servebench::SessionCheck& c : served->checks) {
    wal_bytes += c.wal_bytes;
    fsyncs += c.wal_fsyncs;
  }
  const uint64_t attempted = served->attempted + prefix->requests;
  std::map<std::string, LayerMetric> e2e;
  // Printed, not bounded: a run that prints a result has it 0.
  e2e["fail_ratio"] = {
      static_cast<double>(served->failed) / static_cast<double>(attempted),
      "1", attempted};
  // Medians over the phase's slices (n = slices), not whole-phase means.
  e2e["throughput_rps"] = {Percentile(served->slice_rps, 0.50), "1/s",
                           served->slice_rps.size()};
  e2e["commit_p50_us"] = {Percentile(served->commit_us, 0.50), "us",
                          served->commit_us.size()};
  e2e["commit_p99_us"] = {Percentile(served->commit_us, 0.99), "us",
                          served->commit_us.size()};
  e2e["run_p50_us"] = {Percentile(served->run_us, 0.50), "us",
                       served->run_us.size()};
  e2e["run_p99_us"] = {Percentile(served->run_us, 0.99), "us",
                       served->run_us.size()};
  e2e["setup_s"] = {Percentile(served->setup_s, 0.50), "s",
                    served->setup_s.size()};
  e2e["server_rss_mb"] = {served->peak_rss_mb, "MB", 1};
  e2e["server_cpu_us_per_req"] = {
      Percentile(served->slice_cpu_us_per_req, 0.50), "us",
      served->slice_cpu_us_per_req.size()};
  e2e["wal_bytes_per_wme"] = {
      static_cast<double>(wal_bytes) / static_cast<double>(served->wm_changes),
      "B", served->wm_changes};

  // The in-process rung-1 replay the correctness gate compares against: on
  // its own, or as the traced run's ladder's untraced rung 1.
  servebench::Rung1 reference;
  std::map<std::string, LayerMetric> layers;
  servebench::SpanLog spans;
  if (!trace) {
    auto rung1 = servebench::RunHandleLine(*spec, seed, seconds, pristine);
    if (!rung1.ok()) return Fail("rung 1: " + rung1.status().ToString());
    reference = std::move(*rung1);
  } else {
    servebench::LadderInputs in;
    in.spec = spec;
    in.seed = seed;
    in.seconds = seconds;
    in.prefix_dir = pristine;
    in.work_dir = run_dir.path();
    in.prefix = &*prefix;
    in.throughput_rps = e2e["throughput_rps"].value;
    in.served = served->checks;
    auto ladder = servebench::RunLadder(in, &spans);
    if (!ladder.ok()) return Fail("ladder: " + ladder.status().ToString());
    reference = std::move(ladder->untraced);
    layers = std::move(ladder->metrics);
  }

  // Correctness gate: every request ok, and every session equal to rung 1.
  if (served->failed != 0) {
    return Fail(std::to_string(served->failed) +
                " requests failed; first: " + served->first_failure);
  }
  for (int c = 0; c < spec->connections; ++c) {
    std::string diff =
        servebench::CompareChecks(served->checks[c], reference.checks[c]);
    if (!diff.empty()) {
      return Fail("session " + servebench::SessionName(*spec, c) +
                  " differs from the in-process replay: " + diff);
    }
  }

  std::printf("workload %s seed %llu: %d connection(s), %llu measured "
              "requests in %.3f s (%zu slices of %.2f s), prefix %llu "
              "requests\n",
              spec->name, static_cast<unsigned long long>(seed),
              spec->connections,
              static_cast<unsigned long long>(served->measured_requests),
              served->phase_s, served->slice_rps.size(), servebench::kSliceS,
              static_cast<unsigned long long>(prefix->requests));
  std::printf("flush policy: --fsync-every %d on sorel_serve and in-process "
              "(records buffered by stdio, written about every 4 KB, fsync "
              "at shutdown); %llu fsyncs in the measured phase\n",
              servebench::kNoFsync, static_cast<unsigned long long>(fsyncs));
  std::printf("generator cpu %.3f us/req, server cpu %.3f us/req\n",
              served->client_cpu_s * 1e6 / requests,
              served->server_cpu_s * 1e6 / requests);
  std::printf("correctness: all responses ok; wm, next_tag, wal and "
              "run.firings equal to the in-process replay\n");
  PrintMetrics("end-to-end (tracing off):", e2e);
  if (!trace) {
    std::printf("%s\n", ResultJson(e2e, attempted, served->failed).c_str());
    return 0;
  }
  PrintMetrics("per layer (traced in-process run):", layers);
  if (args.count("spans") != 0) {
    sorel::Status written = spans.Write(args["spans"]);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("%zu spans written to %s (%llu more not kept)\n",
                spans.spans().size(), args["spans"].c_str(),
                static_cast<unsigned long long>(spans.dropped()));
  }
  std::printf("%s\n", ResultJson(layers, attempted, served->failed).c_str());
  return 0;
}
