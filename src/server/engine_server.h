#ifndef SOREL_SERVER_ENGINE_SERVER_H_
#define SOREL_SERVER_ENGINE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "lang/rule_base.h"
#include "server/session.h"

namespace sorel {
namespace obs {
struct JsonValue;
}  // namespace obs

namespace server {

/// Largest match worker pool one session may ask for (`open`'s `threads`).
inline constexpr int kMaxSessionThreads = 64;

struct EngineServerOptions {
  /// Directory holding per-session WAL and snapshot files (created if
  /// missing).
  std::string data_dir = ".";
  /// Default WAL fsync batching for sessions that don't override it.
  int fsync_every = 1;
  /// Cap on sessions resident in memory at once; 0 = unlimited. When an
  /// open (or a transparent reopen) would exceed the cap, the
  /// least-recently-used idle session is checkpointed (snapshot + WAL
  /// truncate) and released; its name stays valid, and the next command
  /// addressing it reopens it from snapshot + WAL with state intact.
  /// Sessions inside an open client transaction are never evicted.
  int max_resident_sessions = 0;
};

/// A multi-session rule service: N independent sessions — each its own
/// working memory, conflict set, and WAL — all bound to ONE shared
/// compiled rule base (parse, compiled rules, and network topology are
/// produced once at server start and shared read-only), driven over a
/// line-oriented JSON protocol. One
/// request line in, exactly one response line out:
///
///   {"cmd":"open","session":"s1","matcher":"rete"}
///   {"ok":true,"session":"s1","recovered":false,...}
///
/// Commands: ping, rules, sessions, open, close, make, remove, modify,
/// run, begin, commit, rollback, wm, cs, metrics, trace, wal, snapshot,
/// dump, shutdown. Errors come back as
/// {"ok":false,"code":"<StatusCodeName>","error":"..."} and never kill the
/// server. The core is transport-agnostic — `HandleLine` maps one request
/// to one response, and sorel_serve wires it to stdio or a unix socket.
///
/// Threading: HandleLine is safe to call from any number of transport
/// threads concurrently. Commands on distinct sessions run in parallel
/// (each slot has its own mutex); commands on the same session serialize.
/// The shared rule base is deeply immutable, so concurrent matching
/// against it needs no locking. Lock ordering: a slot mutex may be taken
/// before the server mutex (close, eviction bookkeeping), never the
/// reverse for a blocking acquire — the eviction scan only try_locks
/// candidate slots while holding nothing.
class EngineServer {
 public:
  /// Compiles `rules_source` into the shared rule base once; every session
  /// that opens binds to it (a broken rule base fails server start, not
  /// every later `open`).
  static Result<std::unique_ptr<EngineServer>> Create(
      std::string rules_source, EngineServerOptions options = {});

  ~EngineServer();

  /// Handles one protocol line, returning one JSON response line (no
  /// trailing newline). Never throws, never returns malformed JSON.
  /// Thread-safe.
  std::string HandleLine(std::string_view line);

  /// True after a `shutdown` command: the transport loop should drain and
  /// exit. Sessions are synced and closed by then.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// The live session named `name`, or nullptr (unknown, closed, or
  /// currently evicted). Tests reach in for state comparisons the protocol
  /// doesn't expose verbatim; not synchronized against concurrent evicts.
  Session* FindSession(const std::string& name);

  const std::vector<std::string>& rule_names() const { return rule_names_; }

  /// The shared compiled artifact (tests assert pointer identity against
  /// each session engine's rule_base()).
  const RuleBasePtr& rule_base() const { return base_; }

  /// Value of the server.sessions_resident gauge.
  int sessions_resident() const {
    return resident_.load(std::memory_order_relaxed);
  }

 private:
  /// One session name's lifetime: the slot survives eviction (the session
  /// pointer drops, the WAL + snapshot persist) and is only removed by
  /// `close` / shutdown. `mu` serializes all commands on the session;
  /// `resident` mirrors `session != nullptr` atomically so the eviction
  /// scan can read it under the server mutex alone.
  struct Slot {
    std::mutex mu;
    SessionOptions options;
    std::shared_ptr<Session> session;
    std::atomic<bool> resident{false};
    std::atomic<uint64_t> last_used{0};
    std::atomic<bool> closed{false};
  };

  explicit EngineServer(EngineServerOptions options);

  std::string CmdOpen(const obs::JsonValue& req);
  /// Re-materializes an evicted slot's session from snapshot + WAL.
  /// Requires slot->mu held.
  Status Reopen(const std::string& name, Slot* slot);
  /// Registers the server.sessions_resident gauge into a freshly
  /// (re)opened session's engine registry, so it shows up in `metrics` and
  /// Profile() output.
  void InstallGauges(Session* session);
  /// Checkpoints and releases LRU idle sessions until the resident count
  /// is back under the cap (or no candidate is evictable). `keep` is the
  /// slot driving the overflow — never a victim. Caller must NOT hold the
  /// server mutex; may hold keep->mu.
  void MaybeEvict(Slot* keep);

  EngineServerOptions options_;
  std::vector<std::string> rule_names_;
  /// The base every session binds to.
  RuleBasePtr base_;

  // Declared before slots_ so the slots (whose gauge lambdas read them)
  // are destroyed first.
  std::atomic<int> resident_{0};
  std::atomic<uint64_t> clock_{0};
  std::atomic<bool> shutdown_{false};

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
};

}  // namespace server
}  // namespace sorel

#endif  // SOREL_SERVER_ENGINE_SERVER_H_
