// Determinism test for the benchmark's inputs and counts: one seed twice
// gives identical request streams, an identical wal_bytes_per_wme and
// identical per-layer counts; another seed gives different streams. Runs
// in-process (no sorel_serve), in a scratch dir under the current
// directory. Exit code 0 on success.

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ladder.h"
#include "workload.h"

namespace {

using servebench::LayerMetric;
using servebench::Request;
using servebench::WorkloadSpec;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<std::string> Lines(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<std::string> lines;
  for (int c = 0; c < spec.connections; ++c) {
    for (const Request& r :
         servebench::Stream(spec, seed, c).Steps(spec.prefix_steps)) {
      lines.push_back(r.line);
    }
    servebench::MeasuredStream stream(spec, seed, c, 1);
    std::vector<Request> chunk;
    while (stream.Next(&chunk)) {
      for (const Request& r : chunk) lines.push_back(r.line);
    }
  }
  return lines;
}

/// Every count the traced run reports (units other than time) plus every
/// sample count, and wal_bytes_per_wme, for one in-process run.
std::map<std::string, double> Counts(const WorkloadSpec& spec, uint64_t seed,
                                     const std::string& dir) {
  std::map<std::string, double> out;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto prefix = servebench::BuildPrefix(spec, seed, dir + "/data");
  Expect(prefix.ok(), "prefix builds");
  if (!prefix.ok()) return out;
  Expect(servebench::CopyDir(dir + "/data", dir + "/verify").ok(), "copy");
  uint64_t wm_changes = 0;
  for (int c = 0; c < spec.connections; ++c) {
    servebench::MeasuredStream stream(spec, seed, c, 1);
    std::vector<Request> chunk;
    while (stream.Next(&chunk)) {
      for (const Request& r : chunk) {
        if (r.op == Request::Op::kMake || r.op == Request::Op::kRemove ||
            r.op == Request::Op::kModify) {
          ++wm_changes;
        }
      }
    }
  }
  auto rung1 =
      servebench::RunHandleLine(spec, seed, 1, dir + "/verify");
  Expect(rung1.ok(), "rung 1 replays");
  if (!rung1.ok()) return out;
  uint64_t wal_bytes = 0;
  for (const servebench::SessionCheck& c : rung1->checks) {
    wal_bytes += c.wal_bytes;
    out["response_hash." + std::to_string(out.size())] =
        static_cast<double>(c.response_hash);
  }
  out["wal_bytes_per_wme"] =
      static_cast<double>(wal_bytes) / static_cast<double>(wm_changes);

  servebench::SpanLog spans;
  servebench::LadderInputs in;
  in.spec = &spec;
  in.seed = seed;
  in.prefix_dir = dir + "/data";
  in.work_dir = dir;
  in.seconds = 1;
  in.prefix = &*prefix;
  in.throughput_rps = 1;
  in.served = rung1->checks;
  auto layers = servebench::RunLadder(in, &spans);
  Expect(layers.ok(), "ladder runs");
  if (!layers.ok()) return out;
  for (const auto& [name, m] : layers->metrics) {
    out[name + ".samples"] = static_cast<double>(m.samples);
    if (m.unit != "us" && m.unit != "ms") out[name] = m.value;
  }
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace

int main() {
  const std::string scratch =
      (std::filesystem::current_path() / "determinism_scratch").string();
  for (const WorkloadSpec& spec : servebench::AllWorkloads()) {
    const std::string name = spec.name;
    std::vector<std::string> a = Lines(spec, 1);
    Expect(a == Lines(spec, 1), name + ": same seed, same stream");
    Expect(a != Lines(spec, 2), name + ": other seed, other stream");
    std::map<std::string, double> first = Counts(spec, 1, scratch);
    std::map<std::string, double> second = Counts(spec, 1, scratch);
    Expect(!first.empty() && first == second,
           name + ": same seed, same counts and wal_bytes_per_wme");
    for (const auto& [key, value] : first) {
      auto it = second.find(key);
      if (it == second.end() || it->second != value) {
        std::fprintf(stderr, "  %s: %.17g vs %.17g\n", key.c_str(), value,
                     it == second.end() ? -1.0 : it->second);
      }
    }
  }
  std::printf(failures == 0 ? "determinism: ok\n" : "determinism: FAILED\n");
  return failures == 0 ? 0 : 1;
}
