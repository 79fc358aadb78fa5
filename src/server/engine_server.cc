#include "server/engine_server.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "obs/json.h"
#include "server/codec.h"

namespace sorel {
namespace server {

namespace {

std::string ErrorLine(const Status& status) {
  return "{\"ok\":false,\"code\":\"" +
         std::string(StatusCodeName(status.code())) + "\",\"error\":\"" +
         obs::JsonEscape(status.message()) + "\"}";
}

std::string Quoted(std::string_view s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

/// Session names become file names, so restrict them hard: no separators,
/// no dot-leading hidden/relative names.
Status CheckSessionName(const std::string& name) {
  if (name.empty() || name.size() > 64 || name[0] == '.') {
    return Status::InvalidArgument("open: bad session name '" + name + "'");
  }
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) {
      return Status::InvalidArgument("open: bad session name '" + name +
                                     "' (allowed: [A-Za-z0-9._-])");
    }
  }
  return Status::Ok();
}

Result<std::string> ArgString(const obs::JsonValue& req,
                              std::string_view key) {
  const obs::JsonValue* v = req.Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("missing string argument '" +
                                   std::string(key) + "'");
  }
  return v->string;
}

/// An optional integral number argument of `cmd`. Absent leaves `*out`
/// untouched; a non-number, a non-integral value, or one outside int's
/// range is InvalidArgument, never a narrowing cast.
Status ArgInt(const obs::JsonValue& req, std::string_view cmd,
              std::string_view key, int* out) {
  const obs::JsonValue* v = req.Find(key);
  if (v == nullptr) return Status::Ok();
  std::string what = std::string(cmd) + ": '" + std::string(key) + "'";
  if (!v->is_number()) {
    return Status::InvalidArgument(what + " must be a number");
  }
  double d = v->number;
  if (!(d >= std::numeric_limits<int>::min() &&
        d <= std::numeric_limits<int>::max()) ||
      d != std::floor(d)) {
    return Status::InvalidArgument(what + " must be an integer in int range");
  }
  *out = static_cast<int>(d);
  return Status::Ok();
}

/// A protocol time tag: a decimal string (exact) or a JSON number. A
/// number that is non-integral or outside TimeTag's range is
/// InvalidArgument, never a narrowing cast; whether an in-range tag names
/// a live WME is left to the command (NotFound).
Result<TimeTag> ArgTag(const obs::JsonValue& req, std::string_view key) {
  const obs::JsonValue* v = req.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument("missing argument '" + std::string(key) +
                                   "'");
  }
  if (v->is_number()) {
    // -2^63 is exact as a double, so [lo, -lo) is exactly TimeTag's range.
    constexpr double lo =
        static_cast<double>(std::numeric_limits<TimeTag>::min());
    double d = v->number;
    if (!(d >= lo && d < -lo) || d != std::floor(d)) {
      return Status::InvalidArgument("argument '" + std::string(key) +
                                     "' must be an integer in int64 range");
    }
    return static_cast<TimeTag>(d);
  }
  if (v->is_string()) return DecodeTag(*v);
  return Status::InvalidArgument("argument '" + std::string(key) +
                                 "' is not a tag");
}

/// Protocol value coercion: null -> nil, booleans -> the true/false
/// symbols, integral numbers -> Int, other numbers -> Float, strings ->
/// symbols. The {"i"|"f"|"s": "..."} object forms from codec.h are also
/// accepted for exact 64-bit ints and bit-exact floats.
Result<Value> CoerceValue(const obs::JsonValue& j, SymbolTable* symbols) {
  switch (j.kind) {
    case obs::JsonValue::Kind::kNull:
      return Value::Nil();
    case obs::JsonValue::Kind::kBool:
      return Value::Bool(j.boolean);
    case obs::JsonValue::Kind::kNumber:
      if (std::nearbyint(j.number) == j.number &&
          j.number >= -9007199254740992.0 && j.number <= 9007199254740992.0) {
        return Value::Int(static_cast<int64_t>(j.number));
      }
      return Value::Float(j.number);
    case obs::JsonValue::Kind::kString:
      return Value::Symbol(symbols->Intern(j.string));
    case obs::JsonValue::Kind::kObject:
      return DecodeValue(j, symbols);
    case obs::JsonValue::Kind::kArray:
      break;
  }
  return Status::InvalidArgument("cannot coerce value to an attribute");
}

Result<std::vector<std::pair<std::string, Value>>> ArgAttrs(
    const obs::JsonValue& req, SymbolTable* symbols) {
  const obs::JsonValue* attrs = req.Find("attrs");
  if (attrs == nullptr || !attrs->is_object()) {
    return Status::InvalidArgument("missing object argument 'attrs'");
  }
  std::vector<std::pair<std::string, Value>> out;
  out.reserve(attrs->members.size());
  for (const auto& [name, j] : attrs->members) {
    SOREL_ASSIGN_OR_RETURN(Value v, CoerceValue(j, symbols));
    out.emplace_back(name, v);
  }
  return out;
}

Result<MatcherKind> ParseMatcher(const std::string& name) {
  if (name == "rete") return MatcherKind::kRete;
  if (name == "treat") return MatcherKind::kTreat;
  if (name == "dips") return MatcherKind::kDips;
  if (name == "plan") return MatcherKind::kPlan;
  return Status::InvalidArgument("open: unknown matcher '" + name + "'");
}

Result<Strategy> ParseStrategy(const std::string& name) {
  if (name == "lex") return Strategy::kLex;
  if (name == "mea") return Strategy::kMea;
  return Status::InvalidArgument("open: unknown strategy '" + name + "'");
}

/// Splits drained JSON-lines trace text into a JSON array of the raw
/// objects (they are valid JSON already; no re-encoding).
std::string TraceLinesToArray(const std::string& text) {
  std::string out = "[";
  size_t start = 0;
  bool first = true;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) {
      if (!first) out += ",";
      out.append(text, start, end - start);
      first = false;
    }
    start = end + 1;
  }
  out += "]";
  return out;
}

/// Gauges are doubles but almost always carry byte/count values; print
/// integral ones exactly and the rest with enough digits to round-trip.
std::string GaugeToString(double value) {
  if (std::nearbyint(value) == value && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

EngineServer::EngineServer(EngineServerOptions options)
    : options_(std::move(options)) {}

EngineServer::~EngineServer() = default;

Result<std::unique_ptr<EngineServer>> EngineServer::Create(
    std::string rules_source, EngineServerOptions options) {
  if (options.data_dir.empty()) options.data_dir = ".";
  if (::mkdir(options.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::RuntimeError("server: cannot create data dir '" +
                                options.data_dir +
                                "': " + std::strerror(errno));
  }
  std::unique_ptr<EngineServer> server(new EngineServer(std::move(options)));
  // Compile the shared rule base once up front: a broken rule base should
  // fail server start, not every later `open` — and every session binds
  // this one artifact instead of recompiling.
  SOREL_ASSIGN_OR_RETURN(server->base_,
                         CompiledRuleBase::Compile(std::move(rules_source)));
  for (const CompiledRulePtr& rule : server->base_->rules()) {
    server->rule_names_.push_back(rule->name);
  }
  return server;
}

Session* EngineServer::FindSession(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  return it == slots_.end() ? nullptr : it->second->session.get();
}

void EngineServer::InstallGauges(Session* session) {
  obs::MetricRegistry& metrics = session->engine().metrics();
  metrics.RegisterGauge(this, "server.sessions_resident", [this] {
    return static_cast<double>(resident_.load(std::memory_order_relaxed));
  });
}

Status EngineServer::Reopen(const std::string& name, Slot* slot) {
  Result<std::unique_ptr<Session>> session =
      Session::Open(name, base_, options_.data_dir, slot->options);
  SOREL_RETURN_IF_ERROR(session.status());
  slot->session = std::move(*session);
  InstallGauges(slot->session.get());
  slot->resident.store(true, std::memory_order_release);
  resident_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void EngineServer::MaybeEvict(Slot* keep) {
  if (options_.max_resident_sessions <= 0) return;
  std::vector<std::shared_ptr<Slot>> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, slot] : slots_) {
      if (slot.get() == keep) continue;
      if (slot->closed.load(std::memory_order_relaxed)) continue;
      if (!slot->resident.load(std::memory_order_relaxed)) continue;
      candidates.push_back(slot);
    }
  }
  // Oldest first. A candidate whose slot mutex is held is mid-command —
  // by definition not LRU-idle — so try_lock failure just skips it.
  std::sort(candidates.begin(), candidates.end(),
            [](const std::shared_ptr<Slot>& a, const std::shared_ptr<Slot>& b) {
              return a->last_used.load(std::memory_order_relaxed) <
                     b->last_used.load(std::memory_order_relaxed);
            });
  for (const std::shared_ptr<Slot>& slot : candidates) {
    if (resident_.load(std::memory_order_relaxed) <=
        options_.max_resident_sessions) {
      break;
    }
    std::unique_lock<std::mutex> lock(slot->mu, std::try_to_lock);
    if (!lock.owns_lock()) continue;
    if (slot->closed.load(std::memory_order_relaxed) ||
        !slot->resident.load(std::memory_order_relaxed)) {
      continue;
    }
    Session* session = slot->session.get();
    // An open client transaction pins the session: its staged batch lives
    // only in memory and a snapshot would refuse anyway.
    if (session->engine().wm().InTransaction()) continue;
    // Checkpoint so reopen replays snapshot + empty WAL, not full history.
    // On failure keep the session resident — correctness over memory.
    if (!session->TakeSnapshot().ok()) continue;
    slot->session.reset();
    slot->resident.store(false, std::memory_order_release);
    resident_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::string EngineServer::CmdOpen(const obs::JsonValue& req) {
  Result<std::string> name = ArgString(req, "session");
  if (!name.ok()) return ErrorLine(name.status());
  Status valid = CheckSessionName(*name);
  if (!valid.ok()) return ErrorLine(valid);
  SessionOptions sopts;
  sopts.fsync_every = options_.fsync_every;
  if (const obs::JsonValue* m = req.Find("matcher")) {
    if (!m->is_string()) {
      return ErrorLine(Status::InvalidArgument("open: 'matcher' must be "
                                               "a string"));
    }
    Result<MatcherKind> kind = ParseMatcher(m->string);
    if (!kind.ok()) return ErrorLine(kind.status());
    sopts.matcher = *kind;
  }
  if (const obs::JsonValue* s = req.Find("strategy")) {
    if (!s->is_string()) {
      return ErrorLine(Status::InvalidArgument("open: 'strategy' must be "
                                               "a string"));
    }
    Result<Strategy> strat = ParseStrategy(s->string);
    if (!strat.ok()) return ErrorLine(strat.status());
    sopts.strategy = *strat;
  }
  Status threads = ArgInt(req, "open", "threads", &sopts.match_threads);
  if (!threads.ok()) return ErrorLine(threads);
  if (sopts.match_threads > kMaxSessionThreads) {
    return ErrorLine(Status::InvalidArgument(
        "open: 'threads' must be at most " +
        std::to_string(kMaxSessionThreads)));
  }
  // A value below 1 is accepted; the WAL writer clamps it to 1.
  Status fsync = ArgInt(req, "open", "fsync_every", &sopts.fsync_every);
  if (!fsync.ok()) return ErrorLine(fsync);
  if (const obs::JsonValue* t = req.Find("trace")) {
    sopts.capture_trace = t->kind == obs::JsonValue::Kind::kBool &&
                          t->boolean;
  }

  // Claim the name under the server mutex (the insert decides races), then
  // do the actual open under the slot mutex alone.
  std::shared_ptr<Slot> slot = std::make_shared<Slot>();
  slot->options = sopts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = slots_.emplace(*name, slot);
    if (!inserted) {
      return ErrorLine(Status::InvalidArgument("open: session '" + *name +
                                               "' is already open"));
    }
  }
  std::lock_guard<std::mutex> lock(slot->mu);
  slot->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  Status opened = Reopen(*name, slot.get());
  if (!opened.ok()) {
    // Release the name: a failed open must not burn it.
    std::lock_guard<std::mutex> server_lock(mu_);
    slots_.erase(*name);
    return ErrorLine(opened);
  }
  MaybeEvict(slot.get());
  const RecoveryInfo& rec = slot->session->recovery();
  std::string out = "{\"ok\":true,\"session\":" + Quoted(*name);
  bool recovered = rec.had_snapshot || rec.replayed_records > 0;
  out += recovered ? ",\"recovered\":true" : ",\"recovered\":false";
  out += rec.had_snapshot ? ",\"snapshot\":true" : ",\"snapshot\":false";
  out += ",\"replayed\":" + std::to_string(rec.replayed_records);
  out += ",\"torn_bytes\":" + std::to_string(rec.torn_bytes);
  out += rec.crc_mismatch ? ",\"crc_mismatch\":true"
                          : ",\"crc_mismatch\":false";
  out += "}";
  return out;
}

std::string EngineServer::HandleLine(std::string_view line) {
  Result<obs::JsonValue> parsed = obs::ParseJson(line);
  if (!parsed.ok()) {
    // A request that is not JSON at all is a protocol parse error, distinct
    // from a well-formed request with bad arguments.
    return ErrorLine(Status::ParseError(parsed.status().message()));
  }
  const obs::JsonValue& req = *parsed;
  if (!req.is_object()) {
    return ErrorLine(Status::InvalidArgument("request is not a JSON object"));
  }
  Result<std::string> cmd = ArgString(req, "cmd");
  if (!cmd.ok()) return ErrorLine(cmd.status());

  if (*cmd == "ping") return "{\"ok\":true,\"pong\":true}";

  if (*cmd == "rules") {
    std::string out = "{\"ok\":true,\"rules\":[";
    for (size_t i = 0; i < rule_names_.size(); ++i) {
      if (i != 0) out += ",";
      out += Quoted(rule_names_[i]);
    }
    return out + "]}";
  }

  if (*cmd == "sessions") {
    std::string out = "{\"ok\":true,\"sessions\":[";
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (const auto& [name, slot] : slots_) {
      if (!first) out += ",";
      out += Quoted(name);
      first = false;
    }
    return out + "]}";
  }

  if (*cmd == "shutdown") {
    std::vector<std::shared_ptr<Slot>> all;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [name, slot] : slots_) all.push_back(slot);
    }
    for (const std::shared_ptr<Slot>& slot : all) {
      std::lock_guard<std::mutex> lock(slot->mu);
      if (slot->session != nullptr) {
        Status synced = slot->session->SyncWal();
        if (!synced.ok()) return ErrorLine(synced);
        slot->session.reset();
        if (slot->resident.exchange(false)) {
          resident_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
      slot->closed.store(true, std::memory_order_release);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.clear();
    }
    shutdown_.store(true, std::memory_order_release);
    return "{\"ok\":true,\"bye\":true}";
  }

  if (*cmd == "open") return CmdOpen(req);

  // Everything below addresses an existing session.
  Result<std::string> name = ArgString(req, "session");
  if (!name.ok()) return ErrorLine(name.status());
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(*name);
    if (it != slots_.end()) slot = it->second;
  }
  if (slot == nullptr || slot->closed.load(std::memory_order_acquire)) {
    return ErrorLine(Status::NotFound("unknown session '" + *name + "'"));
  }
  slot->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  // Converge under the residency cap opportunistically: an overflow can
  // outlive the open that caused it when every candidate was busy at the
  // time (the eviction scan only try_locks). Cheap when under cap.
  if (options_.max_resident_sessions > 0 &&
      resident_.load(std::memory_order_relaxed) >
          options_.max_resident_sessions) {
    MaybeEvict(slot.get());
  }
  std::lock_guard<std::mutex> session_lock(slot->mu);
  // Re-check: a close/shutdown may have won the race for the slot mutex.
  if (slot->closed.load(std::memory_order_acquire)) {
    return ErrorLine(Status::NotFound("unknown session '" + *name + "'"));
  }

  if (*cmd == "close") {
    if (slot->session != nullptr) {
      Status synced = slot->session->SyncWal();
      if (!synced.ok()) return ErrorLine(synced);
      slot->session.reset();
      if (slot->resident.exchange(false)) {
        resident_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    slot->closed.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    slots_.erase(*name);
    return "{\"ok\":true,\"closed\":" + Quoted(*name) + "}";
  }

  // Transparent reopen of an evicted session: its snapshot + WAL rebuild
  // the exact state it was evicted with, bound to the same shared base.
  if (slot->session == nullptr) {
    Status reopened = Reopen(*name, slot.get());
    if (!reopened.ok()) return ErrorLine(reopened);
    MaybeEvict(slot.get());
  }
  Session* session = slot->session.get();

  Engine& engine = session->engine();

  if (*cmd == "make") {
    Result<std::string> cls = ArgString(req, "cls");
    if (!cls.ok()) return ErrorLine(cls.status());
    auto attrs = ArgAttrs(req, &engine.symbols());
    if (!attrs.ok()) return ErrorLine(attrs.status());
    Result<TimeTag> tag = session->Make(*cls, *attrs);
    if (!tag.ok()) return ErrorLine(tag.status());
    return "{\"ok\":true,\"tag\":" + EncodeTag(*tag) +
           ",\"out\":" + Quoted(session->DrainOutput()) + "}";
  }

  if (*cmd == "remove") {
    Result<TimeTag> tag = ArgTag(req, "tag");
    if (!tag.ok()) return ErrorLine(tag.status());
    Status removed = session->Remove(*tag);
    if (!removed.ok()) return ErrorLine(removed);
    return "{\"ok\":true,\"out\":" + Quoted(session->DrainOutput()) + "}";
  }

  if (*cmd == "modify") {
    Result<TimeTag> tag = ArgTag(req, "tag");
    if (!tag.ok()) return ErrorLine(tag.status());
    auto attrs = ArgAttrs(req, &engine.symbols());
    if (!attrs.ok()) return ErrorLine(attrs.status());
    Result<TimeTag> fresh = session->Modify(*tag, *attrs);
    if (!fresh.ok()) return ErrorLine(fresh.status());
    return "{\"ok\":true,\"tag\":" + EncodeTag(*fresh) +
           ",\"out\":" + Quoted(session->DrainOutput()) + "}";
  }

  if (*cmd == "run") {
    int max = -1;  // any negative value: unlimited
    Status max_ok = ArgInt(req, "run", "max", &max);
    if (!max_ok.ok()) return ErrorLine(max_ok);
    Result<int> fired = session->Run(max);
    if (!fired.ok()) return ErrorLine(fired.status());
    std::string out = "{\"ok\":true,\"fired\":" + std::to_string(*fired);
    out += engine.halted() ? ",\"halted\":true" : ",\"halted\":false";
    return out + ",\"out\":" + Quoted(session->DrainOutput()) + "}";
  }

  if (*cmd == "begin") {
    Status began = session->Begin();
    if (!began.ok()) return ErrorLine(began);
    return "{\"ok\":true,\"depth\":" +
           std::to_string(engine.wm().transaction_depth()) + "}";
  }

  if (*cmd == "commit") {
    Status committed = session->Commit();
    if (!committed.ok()) return ErrorLine(committed);
    // Ending the transaction unpins this session; if an open overflowed
    // the residency cap while it was pinned, converge back under it now.
    if (!engine.wm().InTransaction()) MaybeEvict(slot.get());
    return "{\"ok\":true,\"depth\":" +
           std::to_string(engine.wm().transaction_depth()) +
           ",\"out\":" + Quoted(session->DrainOutput()) + "}";
  }

  if (*cmd == "rollback") {
    Status rolled = session->Rollback();
    if (!rolled.ok()) return ErrorLine(rolled);
    if (!engine.wm().InTransaction()) MaybeEvict(slot.get());
    return "{\"ok\":true,\"depth\":" +
           std::to_string(engine.wm().transaction_depth()) + "}";
  }

  if (*cmd == "wm") {
    std::vector<WmePtr> wmes = engine.wm().Snapshot();
    std::string out = "{\"ok\":true,\"size\":" + std::to_string(wmes.size());
    out += ",\"next_tag\":" + EncodeTag(engine.wm().next_time_tag());
    out += ",\"wmes\":[";
    for (size_t i = 0; i < wmes.size(); ++i) {
      if (i != 0) out += ",";
      out += EncodeSnapshotWme(*wmes[i], engine.symbols());
    }
    return out + "]}";
  }

  if (*cmd == "cs") {
    std::string out = "{\"ok\":true,\"entries\":[";
    bool first = true;
    for (const ConflictSet::EntryState& state :
         engine.conflict_set().EntriesWithState()) {
      CsEntrySnapshot entry;
      entry.rule = state.inst->rule().name;
      std::vector<Row> rows;
      state.inst->CollectRows(&rows);
      for (const Row& row : rows) {
        std::vector<TimeTag> tags;
        for (const WmePtr& wme : row) {
          tags.push_back(wme == nullptr ? 0 : wme->time_tag());
        }
        entry.rows.push_back(std::move(tags));
      }
      entry.fired = state.fired;
      if (!first) out += ",";
      out += EncodeSnapshotCsEntry(entry);
      first = false;
    }
    return out + "]}";
  }

  if (*cmd == "metrics") {
    std::string out = "{\"ok\":true,\"counters\":{";
    bool first = true;
    for (const auto& [counter, value] : engine.metrics().SnapshotCounters()) {
      if (!first) out += ",";
      out += Quoted(counter) + ":\"" + std::to_string(value) + "\"";
      first = false;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [gauge, value] : engine.metrics().SnapshotGauges()) {
      if (!first) out += ",";
      out += Quoted(gauge) + ":\"" + GaugeToString(value) + "\"";
      first = false;
    }
    return out + "}}";
  }

  if (*cmd == "trace") {
    return "{\"ok\":true,\"trace\":" +
           TraceLinesToArray(session->DrainTrace()) + "}";
  }

  if (*cmd == "wal") {
    const WalWriter::Stats& stats = session->wal_stats();
    return "{\"ok\":true,\"records\":" + std::to_string(stats.records) +
           ",\"bytes\":" + std::to_string(stats.bytes) +
           ",\"fsyncs\":" + std::to_string(stats.fsyncs) +
           ",\"next_lsn\":\"" + std::to_string(session->next_lsn()) + "\"}";
  }

  if (*cmd == "snapshot") {
    Status took = session->TakeSnapshot();
    if (!took.ok()) return ErrorLine(took);
    return "{\"ok\":true,\"snapshot_lsn\":\"" +
           std::to_string(session->next_lsn() - 1) + "\"}";
  }

  if (*cmd == "dump") {
    std::ostringstream dump;
    engine.DumpWm(dump);
    return "{\"ok\":true,\"dump\":" + Quoted(dump.str()) + "}";
  }

  return ErrorLine(
      Status::InvalidArgument("unknown command '" + *cmd + "'"));
}

}  // namespace server
}  // namespace sorel
