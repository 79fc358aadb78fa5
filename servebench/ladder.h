// In-process replay of the benchmark's request streams, one layer at a
// time: the prefix builder, rung 1 (`EngineServer::HandleLine`), rung 2
// (`Session` calls), rung 3 (`Engine` calls with phase timers), plus the
// separately timed parse, WAL append, compile and recovery calls.
#ifndef SERVEBENCH_LADDER_H_
#define SERVEBENCH_LADDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "server/engine_server.h"
#include "workload.h"

namespace servebench {

/// The WAL flush policy of every run, sorel_serve's and the in-process
/// rungs': WalWriter::Append only copies a record into stdio's buffer,
/// which reaches the file with one write(2) about every 4 KB; the file is
/// flushed and fsynced at shutdown. So neither the server default's
/// per-record write(2) nor its fsync is measured. The benchmark writes only
/// inside its checkout, whose disk's fsync latency (tens of microseconds,
/// with millisecond tails) would otherwise set every figure. WAL bytes and
/// records do not depend on it.
constexpr int kNoFsync = 1 << 30;

/// Per-session state the correctness gate compares between sorel_serve
/// and rung 1.
struct SessionCheck {
  uint64_t wm_size = 0;
  uint64_t next_tag = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t run_firings = 0;
  /// FNV-1a over every measured response line.
  uint64_t response_hash = 0;
};

/// True for an `ok:true` protocol response.
bool IsOk(const std::string& response);

/// The unsigned number after `key` (e.g. `"tag":`) in a response line,
/// quoted or not; ~0 when the key is missing.
uint64_t ResponseField(const std::string& response, const char* key);

/// OK when `response` is `ok:true` and carries the tag the stream
/// predicted for `r`; otherwise the failure, with request and response.
sorel::Status CheckResponse(const Request& r, const std::string& response);

/// Nearest-rank percentile (`p` in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> v, double p);

std::string QueryLine(const char* cmd, const std::string& session);

/// Fills `check` (all but response_hash) from a session's `wm`, `wal` and
/// `metrics` responses.
sorel::Status ParseCheck(const std::string& wm, const std::string& wal,
                         const std::string& metrics, SessionCheck* check);

/// Compares every field but wal_fsyncs, which counts flushes rather than
/// state; returns a description of the first difference, or "".
std::string CompareChecks(const SessionCheck& server,
                          const SessionCheck& rung1);

/// Journals every connection's prefix into `dir` through an in-process
/// server. `records[conn]` is the prefix's WAL record count.
struct Prefix {
  std::vector<uint64_t> records;
  uint64_t requests = 0;
};
sorel::Result<Prefix> BuildPrefix(const WorkloadSpec& spec, uint64_t seed,
                                  const std::string& dir);

sorel::Status CopyDir(const std::string& from, const std::string& to);

/// One timed call: layer name, rung, request index within its connection's
/// measured stream (shared across rungs), steady-clock start and end.
struct Span {
  uint8_t name;
  uint8_t rung;
  uint8_t conn;
  uint32_t req;
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans kept in memory for the spans file; the per-layer sums cover every
/// call whether or not its span is kept.
constexpr size_t kMaxSpans = 1 << 20;

class SpanLog {
 public:
  enum Name : uint8_t {
    kHandleLine,
    kSession,
    kEngine,
    kParse,
    kWalAppend
  };
  void Add(const Span& span) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }
  /// Writes the spans as CSV (name,rung,conn,req,start_ns,end_ns).
  sorel::Status Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Summed call time and call count, by request kind.
struct KindSums {
  double ns[3] = {0, 0, 0};
  uint64_t n[3] = {0, 0, 0};
  void Add(Kind kind, int64_t ns_taken) {
    ns[static_cast<int>(kind)] += static_cast<double>(ns_taken);
    ++n[static_cast<int>(kind)];
  }
  double Total() const { return ns[0] + ns[1] + ns[2]; }
  uint64_t Count() const { return n[0] + n[1] + n[2]; }
  double MeanUs(Kind kind) const {
    const int k = static_cast<int>(kind);
    return n[k] == 0 ? 0.0 : ns[k] / 1e3 / static_cast<double>(n[k]);
  }
};

/// What a rung-1 replay found: every session's state for the correctness
/// gate, and how long the HandleLine calls took.
struct Rung1 {
  std::vector<SessionCheck> checks;
  /// HandleLine time of whole chunks (spans or not).
  double total_ns = 0;
  /// HandleLine time by request kind (filled only with a span log).
  KindSums by_kind;
};

/// Rung 1: every session opened on `dir` (a copy of the prefix) in a fresh
/// in-process server, fed the measured request lines a chunk at a time.
class HandleLineReplay {
 public:
  static sorel::Result<std::unique_ptr<HandleLineReplay>> Open(
      const WorkloadSpec& spec, const std::string& dir);

  /// Replays one chunk of connection `conn`'s stream, checking every
  /// response. With a span log each call is a span (indices start at
  /// `first_index`); without one only the chunk is timed.
  sorel::Status Replay(int conn, const std::vector<Request>& chunk,
                       uint32_t first_index, SpanLog* spans);

  /// Reads back every session's state and shuts the server down.
  sorel::Result<Rung1> Finish();

 private:
  explicit HandleLineReplay(const WorkloadSpec& spec) : spec_(spec) {}

  const WorkloadSpec& spec_;
  std::unique_ptr<sorel::server::EngineServer> server_;
  std::vector<std::string> responses_;
  Rung1 out_;
};

/// Rung 1 over whole streams, untraced: the correctness gate's reference.
sorel::Result<Rung1> RunHandleLine(const WorkloadSpec& spec, uint64_t seed,
                                   int seconds, const std::string& dir);

/// One per-layer metric as printed: value, unit, and its sample count.
struct LayerMetric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Inputs the ladder takes from the socket run.
struct LadderInputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  std::string prefix_dir;  // the journaled prefix, left untouched
  std::string work_dir;    // scratch for the rung copies
  const Prefix* prefix = nullptr;
  double throughput_rps = 0;        // untraced socket run
  std::vector<SessionCheck> served;  // sorel_serve's wal counts
};

/// What the ladder reports: every per-layer metric by name, and its
/// untraced rung-1 replay, which doubles as the correctness gate's
/// reference for the traced run.
struct Ladder {
  std::map<std::string, LayerMetric> metrics;
  Rung1 untraced;
};

/// Runs rungs 1 to 3 and the separate timings. Also prints the per-kind
/// breakdown and the tracing overhead.
sorel::Result<Ladder> RunLadder(const LadderInputs& in, SpanLog* spans);

}  // namespace servebench

#endif  // SERVEBENCH_LADDER_H_
