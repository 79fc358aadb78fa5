// Seeded request streams for the sorel_serve end-to-end benchmark.
//
// A stream is a pure function of (workload, seed, connection index): the
// generator predicts every time tag it refers to instead of reading them
// back from responses, so two runs with one seed send byte-identical
// requests and every count the benchmark reports is exact for a seed.
#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

enum class Workload { kIngest, kSetBatch, kChurn };

/// What a request is timed as. kCommit is a request that commits a WM
/// change (make/remove/modify outside a transaction, or `commit`); kRun is
/// `run`; kUntimed requests (`begin`, the makes inside a transaction) count
/// toward throughput only.
enum class Kind { kCommit, kRun, kUntimed };

/// The decoded arguments of one request, so in-process rungs can call the
/// layer below the protocol with the same values.
struct Request {
  enum class Op { kMake, kRemove, kModify, kBegin, kCommit, kRun };
  Op op = Op::kRun;
  Kind kind = Kind::kRun;
  std::string line;  // the protocol request, no trailing newline
  std::string cls;   // kMake
  uint64_t tag = 0;  // kRemove / kModify
  /// kMake / kModify attributes; every benchmark value is an integer.
  std::vector<std::pair<std::string, int64_t>> attrs;
  /// The time tag a make/modify must return, or 0 when the rules' own
  /// actions consume tags and the value is not predicted (set_batch).
  uint64_t expect_tag = 0;
  /// True when the request is written together with the requests after
  /// it, up to and including the next request whose flag is false.
  bool pipelined = false;
};

struct WorkloadSpec {
  Workload workload;
  const char* name;
  const char* rules;
  int connections;
  /// Steps of the untimed journaled prefix, per connection (a multiple of
  /// kWindowSteps where the workload pipelines).
  int prefix_steps;
  /// Measured steps per connection per requested second. The measured
  /// phase sends a fixed number of steps (this times --seconds), so its
  /// counts do not depend on how fast the host runs.
  int steps_per_second;
};

const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// The session a connection owns.
std::string SessionName(const WorkloadSpec& spec, int conn);
std::string OpenLine(const WorkloadSpec& spec, int conn);

/// One connection's request stream. Steps are generated in order; the
/// prefix is the first `prefix_steps` of them.
class Stream {
 public:
  Stream(const WorkloadSpec& spec, uint64_t seed, int conn);

  /// Appends the requests of the next step.
  void NextStep(std::vector<Request>* out);
  /// Requests of the next `steps` steps.
  std::vector<Request> Steps(int steps);

 private:
  uint64_t Rand();
  void Make(std::vector<Request>* out, Kind kind, std::string cls,
            std::vector<std::pair<std::string, int64_t>> attrs);
  void Remove(std::vector<Request>* out, uint64_t tag);
  void Modify(std::vector<Request>* out, uint64_t tag,
              std::vector<std::pair<std::string, int64_t>> attrs);
  void Simple(std::vector<Request>* out, Request::Op op, Kind kind,
              const char* cmd);

  const WorkloadSpec& spec_;
  std::string session_;
  uint64_t rng_;
  int64_t step_ = 0;
  /// Next time tag the session will assign (tags start at 1 and the
  /// ingest and churn rules never consume one).
  uint64_t next_tag_ = 1;
  /// ingest: tag of each live reading, by step; churn: tag of each item.
  std::vector<uint64_t> tags_;
};

/// Steps per pipelined ingest window (about 64 requests). Prefixes and
/// chunks are whole windows, so a window never spans two chunks.
constexpr int kWindowSteps = 32;

/// The measured part of one connection's stream (the steps after the
/// prefix), generated a chunk at a time so that no run holds a whole
/// stream in memory. Chunks end on window boundaries.
class MeasuredStream {
 public:
  MeasuredStream(const WorkloadSpec& spec, uint64_t seed, int conn,
                 int seconds);
  /// Replaces `*chunk` with the next requests; false once none are left.
  bool Next(std::vector<Request>* chunk);

 private:
  Stream stream_;
  int64_t left_;
};

/// FNV-1a, the hash the benchmark compares response streams with.
uint64_t Fnv1a(std::string_view data, uint64_t h = 1469598103934665603ULL);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
