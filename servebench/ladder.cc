#include "ladder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "engine/engine.h"
#include "lang/rule_base.h"
#include "obs/json.h"
#include "server/codec.h"
#include "server/engine_server.h"
#include "server/session.h"
#include "server/wal.h"

namespace servebench {

using sorel::Result;
using sorel::Status;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A numeric response field, sent either as a JSON number or as a quoted
/// decimal (tags, LSNs and counters).
Result<uint64_t> Field(const sorel::obs::JsonValue& doc, const char* key) {
  const sorel::obs::JsonValue* v = doc.Find(key);
  if (v != nullptr && v->is_number() && v->number >= 0) {
    return static_cast<uint64_t>(v->number);
  }
  if (v != nullptr && v->is_string() && !v->string.empty()) {
    char* end = nullptr;
    uint64_t value = std::strtoull(v->string.c_str(), &end, 10);
    if (*end == '\0') return value;
  }
  return Status::InvalidArgument(std::string("response lacks a numeric '") +
                                 key + "'");
}

std::vector<std::pair<std::string, sorel::Value>> Values(
    const std::vector<std::pair<std::string, int64_t>>& attrs) {
  std::vector<std::pair<std::string, sorel::Value>> out;
  out.reserve(attrs.size());
  for (const auto& [name, v] : attrs) {
    out.emplace_back(name, sorel::Value::Int(v));
  }
  return out;
}

/// A request decoded for the rungs below the protocol.
struct Call {
  const Request* request;
  std::vector<std::pair<std::string, sorel::Value>> values;
};

std::vector<Call> Decode(const std::vector<Request>& requests) {
  std::vector<Call> calls;
  calls.reserve(requests.size());
  for (const Request& r : requests) calls.push_back({&r, Values(r.attrs)});
  return calls;
}

Status SessionCall(sorel::server::Session& s, const Call& c) {
  switch (c.request->op) {
    case Request::Op::kMake:
      return s.Make(c.request->cls, c.values).status();
    case Request::Op::kRemove:
      return s.Remove(static_cast<sorel::TimeTag>(c.request->tag));
    case Request::Op::kModify:
      return s.Modify(static_cast<sorel::TimeTag>(c.request->tag), c.values)
          .status();
    case Request::Op::kBegin:
      return s.Begin();
    case Request::Op::kCommit:
      return s.Commit();
    case Request::Op::kRun:
      return s.Run(-1).status();
  }
  return Status::Ok();
}

Status EngineCall(sorel::Engine& e, const Call& c) {
  switch (c.request->op) {
    case Request::Op::kMake:
      return e.MakeWme(c.request->cls, c.values).status();
    case Request::Op::kRemove:
      return e.RemoveWme(static_cast<sorel::TimeTag>(c.request->tag));
    case Request::Op::kModify:
      return e.ModifyWme(static_cast<sorel::TimeTag>(c.request->tag),
                         c.values)
          .status();
    case Request::Op::kBegin:
      e.wm().Begin();
      return Status::Ok();
    case Request::Op::kCommit:
      return e.wm().Commit();
    case Request::Op::kRun:
      return e.Run(-1).status();
  }
  return Status::Ok();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

uint64_t ResponseField(const std::string& response, const char* key) {
  size_t at = response.find(key);
  if (at == std::string::npos) return ~0ULL;
  at += std::strlen(key);
  if (at < response.size() && response[at] == '"') ++at;
  return std::strtoull(response.c_str() + at, nullptr, 10);
}

Status CheckResponse(const Request& r, const std::string& response) {
  if (!IsOk(response)) {
    return Status::RuntimeError("request failed: " + r.line + " -> " +
                                response);
  }
  if (r.expect_tag != 0 &&
      ResponseField(response, "\"tag\":") != r.expect_tag) {
    return Status::RuntimeError("unexpected tag: " + r.line + " -> " +
                                response);
  }
  return Status::Ok();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

std::string QueryLine(const char* cmd, const std::string& session) {
  return std::string("{\"cmd\":\"") + cmd + "\",\"session\":\"" + session +
         "\"}";
}

Status ParseCheck(const std::string& wm, const std::string& wal,
                  const std::string& metrics, SessionCheck* check) {
  SOREL_ASSIGN_OR_RETURN(sorel::obs::JsonValue wm_doc,
                         sorel::obs::ParseJson(wm));
  SOREL_ASSIGN_OR_RETURN(check->wm_size, Field(wm_doc, "size"));
  SOREL_ASSIGN_OR_RETURN(check->next_tag, Field(wm_doc, "next_tag"));
  SOREL_ASSIGN_OR_RETURN(sorel::obs::JsonValue wal_doc,
                         sorel::obs::ParseJson(wal));
  SOREL_ASSIGN_OR_RETURN(check->wal_records, Field(wal_doc, "records"));
  SOREL_ASSIGN_OR_RETURN(check->wal_bytes, Field(wal_doc, "bytes"));
  SOREL_ASSIGN_OR_RETURN(check->wal_fsyncs, Field(wal_doc, "fsyncs"));
  SOREL_ASSIGN_OR_RETURN(sorel::obs::JsonValue m_doc,
                         sorel::obs::ParseJson(metrics));
  const sorel::obs::JsonValue* counters = m_doc.Find("counters");
  if (counters == nullptr) {
    return Status::InvalidArgument("metrics response lacks counters");
  }
  SOREL_ASSIGN_OR_RETURN(check->run_firings, Field(*counters, "run.firings"));
  return Status::Ok();
}

std::string CompareChecks(const SessionCheck& server,
                          const SessionCheck& rung1) {
  auto diff = [](const char* what, uint64_t a, uint64_t b) {
    return std::string(what) + ": server " + std::to_string(a) +
           ", in-process " + std::to_string(b);
  };
  if (server.wm_size != rung1.wm_size) {
    return diff("wm size", server.wm_size, rung1.wm_size);
  }
  if (server.next_tag != rung1.next_tag) {
    return diff("next_tag", server.next_tag, rung1.next_tag);
  }
  if (server.wal_records != rung1.wal_records) {
    return diff("wal records", server.wal_records, rung1.wal_records);
  }
  if (server.wal_bytes != rung1.wal_bytes) {
    return diff("wal bytes", server.wal_bytes, rung1.wal_bytes);
  }
  if (server.run_firings != rung1.run_firings) {
    return diff("run.firings", server.run_firings, rung1.run_firings);
  }
  if (server.response_hash != rung1.response_hash) {
    return diff("response hash", server.response_hash, rung1.response_hash);
  }
  return "";
}

Result<Prefix> BuildPrefix(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& dir) {
  sorel::server::EngineServerOptions options;
  options.data_dir = dir;
  options.fsync_every = kNoFsync;
  SOREL_ASSIGN_OR_RETURN(
      std::unique_ptr<sorel::server::EngineServer> server,
      sorel::server::EngineServer::Create(spec.rules, options));
  Prefix prefix;
  for (int conn = 0; conn < spec.connections; ++conn) {
    std::string opened = server->HandleLine(OpenLine(spec, conn));
    if (!IsOk(opened)) return Status::RuntimeError("prefix open: " + opened);
    for (const Request& r : Stream(spec, seed, conn).Steps(spec.prefix_steps)) {
      SOREL_RETURN_IF_ERROR(CheckResponse(r, server->HandleLine(r.line)));
      ++prefix.requests;
    }
    SOREL_ASSIGN_OR_RETURN(
        sorel::obs::JsonValue wal,
        sorel::obs::ParseJson(
            server->HandleLine(QueryLine("wal", SessionName(spec, conn)))));
    SOREL_ASSIGN_OR_RETURN(uint64_t records, Field(wal, "records"));
    prefix.records.push_back(records);
  }
  std::string bye = server->HandleLine("{\"cmd\":\"shutdown\"}");
  if (!IsOk(bye)) return Status::RuntimeError("prefix shutdown: " + bye);
  return prefix;
}

Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
  if (ec) {
    return Status::RuntimeError("copy " + from + " -> " + to + ": " +
                                ec.message());
  }
  return Status::Ok();
}

Status SpanLog::Write(const std::string& path) const {
  static const char* kNames[] = {"server.handle", "server.session",
                                 "engine.call", "obs.parse",
                                 "server.wal_append"};
  std::ofstream out(path);
  if (!out) return Status::RuntimeError("cannot write spans to " + path);
  out << "name,rung,conn,req,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << kNames[s.name] << ',' << int{s.rung} << ',' << int{s.conn} << ','
        << s.req << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return out ? Status::Ok()
             : Status::RuntimeError("short write of spans to " + path);
}

Result<std::unique_ptr<HandleLineReplay>> HandleLineReplay::Open(
    const WorkloadSpec& spec, const std::string& dir) {
  sorel::server::EngineServerOptions options;
  options.data_dir = dir;
  options.fsync_every = kNoFsync;
  std::unique_ptr<HandleLineReplay> replay(new HandleLineReplay(spec));
  SOREL_ASSIGN_OR_RETURN(
      replay->server_,
      sorel::server::EngineServer::Create(spec.rules, options));
  for (int conn = 0; conn < spec.connections; ++conn) {
    std::string opened = replay->server_->HandleLine(OpenLine(spec, conn));
    if (!IsOk(opened)) return Status::RuntimeError("rung 1 open: " + opened);
    replay->out_.checks.emplace_back().response_hash = Fnv1a("");
  }
  return replay;
}

Status HandleLineReplay::Replay(int conn, const std::vector<Request>& chunk,
                                uint32_t first_index, SpanLog* spans) {
  responses_.resize(chunk.size());
  const int64_t chunk_start = NowNs();
  for (size_t i = 0; i < chunk.size(); ++i) {
    if (spans == nullptr) {
      responses_[i] = server_->HandleLine(chunk[i].line);
      continue;
    }
    const int64_t start = NowNs();
    responses_[i] = server_->HandleLine(chunk[i].line);
    const int64_t end = NowNs();
    spans->Add({SpanLog::kHandleLine, 1, static_cast<uint8_t>(conn),
                first_index + static_cast<uint32_t>(i), start, end});
    out_.by_kind.Add(chunk[i].kind, end - start);
  }
  out_.total_ns += static_cast<double>(NowNs() - chunk_start);
  SessionCheck& check = out_.checks[conn];
  for (size_t i = 0; i < chunk.size(); ++i) {
    SOREL_RETURN_IF_ERROR(CheckResponse(chunk[i], responses_[i]));
    responses_[i] += '\n';
    check.response_hash = Fnv1a(responses_[i], check.response_hash);
  }
  return Status::Ok();
}

Result<Rung1> HandleLineReplay::Finish() {
  for (int conn = 0; conn < spec_.connections; ++conn) {
    const std::string name = SessionName(spec_, conn);
    SOREL_RETURN_IF_ERROR(
        ParseCheck(server_->HandleLine(QueryLine("wm", name)),
                   server_->HandleLine(QueryLine("wal", name)),
                   server_->HandleLine(QueryLine("metrics", name)),
                   &out_.checks[conn]));
  }
  std::string bye = server_->HandleLine("{\"cmd\":\"shutdown\"}");
  if (!IsOk(bye)) return Status::RuntimeError("rung 1 shutdown: " + bye);
  return std::move(out_);
}

Result<Rung1> RunHandleLine(const WorkloadSpec& spec, uint64_t seed,
                            int seconds, const std::string& dir) {
  SOREL_ASSIGN_OR_RETURN(std::unique_ptr<HandleLineReplay> replay,
                         HandleLineReplay::Open(spec, dir));
  std::vector<Request> chunk;
  for (int conn = 0; conn < spec.connections; ++conn) {
    MeasuredStream stream(spec, seed, conn, seconds);
    while (stream.Next(&chunk)) {
      SOREL_RETURN_IF_ERROR(replay->Replay(conn, chunk, 0, nullptr));
    }
  }
  return replay->Finish();
}

Result<Ladder> RunLadder(const LadderInputs& in, SpanLog* spans) {
  const WorkloadSpec& spec = *in.spec;
  const int conns = spec.connections;
  Ladder ladder;
  std::map<std::string, LayerMetric>& m = ladder.metrics;
  auto put = [&m](const char* name, double value, const char* unit,
                  uint64_t samples) {
    m[name] = LayerMetric{value, unit, samples};
  };
  std::vector<Request> chunk;

  // Every rung replays the same chunk before the stream moves on, so the
  // rungs of one request run milliseconds apart and a slow host phase
  // lands on all of them alike: the subtraction below cancels it.
  // Rung 1 runs twice, without spans (the tracing-off baseline) and with.
  const std::string r0_dir = in.work_dir + "/rung1-untraced";
  const std::string r1_dir = in.work_dir + "/rung1";
  const std::string r2_dir = in.work_dir + "/rung2";
  for (const std::string& dir : {r0_dir, r1_dir, r2_dir}) {
    SOREL_RETURN_IF_ERROR(CopyDir(in.prefix_dir, dir));
  }
  SOREL_ASSIGN_OR_RETURN(std::unique_ptr<HandleLineReplay> untraced_replay,
                         HandleLineReplay::Open(spec, r0_dir));
  SOREL_ASSIGN_OR_RETURN(std::unique_ptr<HandleLineReplay> traced_replay,
                         HandleLineReplay::Open(spec, r1_dir));

  // --- Compile, and Session::Open on the prefix (recovery), per session.
  std::vector<double> compile_ms;
  sorel::RuleBasePtr base;
  for (int i = 0; i < 5; ++i) {
    const int64_t start = NowNs();
    SOREL_ASSIGN_OR_RETURN(base, sorel::CompiledRuleBase::Compile(spec.rules));
    compile_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  sorel::server::SessionOptions sopts;
  sopts.fsync_every = kNoFsync;
  std::vector<double> recover_ms;
  for (int conn = 0; conn < conns; ++conn) {
    std::vector<double> opens;
    for (int i = 0; i < 3; ++i) {
      const int64_t start = NowNs();
      SOREL_ASSIGN_OR_RETURN(
          std::unique_ptr<sorel::server::Session> session,
          sorel::server::Session::Open(SessionName(spec, conn), base,
                                       in.prefix_dir, sopts));
      opens.push_back(static_cast<double>(NowNs() - start) / 1e6);
      if (session->recovery().replayed_records != in.prefix->records[conn]) {
        return Status::RuntimeError("recovery replayed a different count");
      }
    }
    recover_ms.push_back(Percentile(opens, 0.5));
  }

  // Rung 2 sessions recover from the prefix like rung 1's. Rung 3 engines
  // are bound to the same base with phase timers and reach the prefix state
  // the way Session::Recover does, so their match memories are built by the
  // same path.
  std::vector<std::unique_ptr<sorel::server::Session>> sessions;
  std::vector<std::unique_ptr<sorel::Engine>> engines;
  std::ostringstream sink;
  for (int conn = 0; conn < conns; ++conn) {
    SOREL_ASSIGN_OR_RETURN(sessions.emplace_back(),
                           sorel::server::Session::Open(
                               SessionName(spec, conn), base, r2_dir, sopts));
    sessions.back()->DrainOutput();
    sorel::EngineOptions eopts;
    eopts.enable_timers = true;
    eopts.trace_firings = true;
    sorel::Engine& engine =
        *engines.emplace_back(std::make_unique<sorel::Engine>(eopts, base));
    SOREL_RETURN_IF_ERROR(engine.bind_status());
    engine.set_output(&sink);
    SOREL_ASSIGN_OR_RETURN(
        sorel::server::WalReadResult prefix_wal,
        sorel::server::ReadWal(in.prefix_dir + "/" + SessionName(spec, conn) +
                               ".wal"));
    for (const sorel::server::WalRecord& record : prefix_wal.records) {
      SOREL_ASSIGN_OR_RETURN(
          sorel::server::WalEntry entry,
          sorel::server::DecodeEntry(record.payload, &engine.symbols()));
      if (entry.kind == sorel::server::WalEntry::Kind::kRun) {
        SOREL_RETURN_IF_ERROR(engine.Run(entry.max_firings).status());
      } else {
        SOREL_RETURN_IF_ERROR(engine.wm().ApplyReplay(
            entry.changes, entry.next_tag, /*transactional=*/!entry.direct));
      }
      sink.str("");
    }
    engine.ResetMatchStats();
  }

  // --- The lock-step replay: rung 1 untraced, rung 1 traced, parse,
  // rung 2, rung 3, chunk by chunk.
  double parse_ns = 0;
  KindSums session_sums;
  KindSums engine_sums;
  for (int conn = 0; conn < conns; ++conn) {
    const uint8_t c = static_cast<uint8_t>(conn);
    sorel::server::Session& session = *sessions[conn];
    sorel::Engine& engine = *engines[conn];
    MeasuredStream stream(spec, in.seed, conn, in.seconds);
    uint32_t index = 0;
    bool traced_first = false;
    while (stream.Next(&chunk)) {
      // Alternate which rung-1 replay goes first, so that code and caches
      // warmed by one favour neither side of trace.overhead_us.
      if (traced_first) {
        SOREL_RETURN_IF_ERROR(
            traced_replay->Replay(conn, chunk, index, spans));
      }
      SOREL_RETURN_IF_ERROR(
          untraced_replay->Replay(conn, chunk, index, nullptr));
      if (!traced_first) {
        SOREL_RETURN_IF_ERROR(
            traced_replay->Replay(conn, chunk, index, spans));
      }
      traced_first = !traced_first;
      for (size_t i = 0; i < chunk.size(); ++i) {
        const int64_t start = NowNs();
        Result<sorel::obs::JsonValue> doc =
            sorel::obs::ParseJson(chunk[i].line);
        const int64_t end = NowNs();
        if (!doc.ok()) return doc.status();
        spans->Add({SpanLog::kParse, 0, c, index + static_cast<uint32_t>(i),
                    start, end});
        parse_ns += static_cast<double>(end - start);
      }
      const std::vector<Call> calls = Decode(chunk);
      for (size_t i = 0; i < calls.size(); ++i) {
        const int64_t start = NowNs();
        Status status = SessionCall(session, calls[i]);
        const int64_t end = NowNs();
        if (!status.ok()) return status;
        spans->Add({SpanLog::kSession, 2, c, index + static_cast<uint32_t>(i),
                    start, end});
        session_sums.Add(calls[i].request->kind, end - start);
        session.DrainOutput();
      }
      for (size_t i = 0; i < calls.size(); ++i) {
        const int64_t start = NowNs();
        Status status = EngineCall(engine, calls[i]);
        const int64_t end = NowNs();
        if (!status.ok()) return status;
        spans->Add({SpanLog::kEngine, 3, c, index + static_cast<uint32_t>(i),
                    start, end});
        engine_sums.Add(calls[i].request->kind, end - start);
        sink.str("");
      }
      index += static_cast<uint32_t>(chunk.size());
    }
  }
  SOREL_ASSIGN_OR_RETURN(ladder.untraced, untraced_replay->Finish());
  const Rung1& untraced = ladder.untraced;
  SOREL_ASSIGN_OR_RETURN(Rung1 traced, traced_replay->Finish());
  std::error_code ec;  // each rung's WAL copy goes as soon as it is done
  std::filesystem::remove_all(r0_dir, ec);
  std::filesystem::remove_all(r1_dir, ec);
  const KindSums& handle = traced.by_kind;
  const uint64_t requests = handle.Count();

  std::vector<std::string> wal_paths;
  for (const auto& session : sessions) wal_paths.push_back(session->wal_path());
  sessions.clear();  // syncs rung 2's WALs

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, sorel::obs::TimerSnapshot> timers;
  for (int conn = 0; conn < conns; ++conn) {
    sorel::Engine& engine = *engines[conn];
    if (engine.wm().Snapshot().size() != traced.checks[conn].wm_size ||
        static_cast<uint64_t>(engine.wm().next_time_tag()) !=
            traced.checks[conn].next_tag) {
      return Status::RuntimeError("rung 3 engine diverged from rung 1");
    }
    for (const auto& [k, v] : engine.metrics().SnapshotCounters()) {
      counters[k] += v;
    }
    for (const auto& [k, v] : engine.metrics().SnapshotGauges()) {
      gauges[k] += v;
    }
    for (const auto& [k, v] : engine.metrics().SnapshotTimers()) {
      timers[k].count += v.count;
      timers[k].total_ns += v.total_ns;
    }
  }
  engines.clear();

  // --- WalWriter::Append, replaying each session's own measured payloads.
  double append_ns = 0;
  uint64_t appends = 0;
  for (int conn = 0; conn < conns; ++conn) {
    SOREL_ASSIGN_OR_RETURN(sorel::server::WalReadResult wal,
                           sorel::server::ReadWal(wal_paths[conn]));
    sorel::server::WalWriter writer;
    SOREL_RETURN_IF_ERROR(writer.Open(in.work_dir + "/append-" +
                                          std::to_string(conn) + ".wal",
                                      kNoFsync));
    for (size_t i = in.prefix->records[conn]; i < wal.records.size(); ++i) {
      const int64_t start = NowNs();
      SOREL_RETURN_IF_ERROR(writer.Append(wal.records[i].payload));
      const int64_t end = NowNs();
      spans->Add({SpanLog::kWalAppend, 0, static_cast<uint8_t>(conn),
                  static_cast<uint32_t>(i - in.prefix->records[conn]), start,
                  end});
      append_ns += static_cast<double>(end - start);
      ++appends;
    }
    SOREL_RETURN_IF_ERROR(writer.Sync());
    writer.Close();
    std::filesystem::remove(in.work_dir + "/append-" + std::to_string(conn) +
                                ".wal",
                            ec);
  }
  std::filesystem::remove_all(r2_dir, ec);
  const double append_us = Ratio(append_ns / 1e3, static_cast<double>(appends));

  // --- Layer self times: a rung's mean minus the rung below it.
  const double n = static_cast<double>(requests);
  const double handle_us = handle.Total() / 1e3 / n;
  const double session_call_us = session_sums.Total() / 1e3 / n;
  const double engine_call_us = engine_sums.Total() / 1e3 / n;
  const double parse_us = parse_ns / 1e3 / n;
  const double wal_per_req_us = append_ns / 1e3 / n;
  uint64_t served_records = 0, served_bytes = 0, served_fsyncs = 0;
  for (const SessionCheck& c : in.served) {
    served_records += c.wal_records;
    served_bytes += c.wal_bytes;
    served_fsyncs += c.wal_fsyncs;
  }
  const uint64_t client_commits =
      engine_sums.n[static_cast<int>(Kind::kCommit)];
  const uint64_t client_runs = engine_sums.n[static_cast<int>(Kind::kRun)];
  put("server.handle_us", handle_us, "us", requests);
  put("server.transport_us", Ratio(conns * 1e6, in.throughput_rps) - handle_us,
      "us", requests);
  put("server.dispatch_us", handle_us - session_call_us - parse_us, "us",
      requests);
  put("server.session_us", session_call_us - engine_call_us - wal_per_req_us,
      "us", requests);
  put("server.wal_append_us", append_us, "us", appends);
  put("server.wal_records_per_req", Ratio(served_records, n), "1", requests);
  put("server.wal_bytes_per_record", Ratio(served_bytes, served_records), "B",
      served_records);
  put("server.wal_fsyncs_per_req", Ratio(served_fsyncs, n), "1", requests);
  double recover_sum = 0;
  for (double ms : recover_ms) recover_sum += ms;
  put("server.recover_ms", recover_sum / conns, "ms", recover_ms.size());
  put("obs.parse_us", parse_us, "us", requests);
  put("lang.compile_ms", Percentile(compile_ms, 0.5), "ms", compile_ms.size());

  const double commits = static_cast<double>(client_commits);
  const double runs = static_cast<double>(client_runs);
  put("engine.commit_us", engine_sums.MeanUs(Kind::kCommit), "us",
      client_commits);
  put("engine.run_us", engine_sums.MeanUs(Kind::kRun), "us", client_runs);
  put("engine.match_us", Ratio(timers["phase.match"].total_ns / 1e3, commits),
      "us", timers["phase.match"].count);
  put("engine.select_us", Ratio(timers["phase.select"].total_ns / 1e3, runs),
      "us", timers["phase.select"].count);
  put("engine.act_us", Ratio(timers["phase.act"].total_ns / 1e3, runs), "us",
      timers["phase.act"].count);
  put("engine.firings_per_run", Ratio(counters["run.firings"], runs), "1",
      client_runs);
  put("engine.actions_per_firing",
      Ratio(counters["rhs.actions"], counters["rhs.firings"]), "1",
      counters["rhs.firings"]);
  put("engine.comparisons_per_select",
      Ratio(counters["select.comparisons"], counters["select.selects"]), "1",
      counters["select.selects"]);
  put("wm.changes_per_batch",
      Ratio(counters["wm.batched_changes"], counters["wm.batches"]), "1",
      counters["wm.batches"]);
  const uint64_t wm_changes = counters["wm.adds"] + counters["wm.removes"];
  put("rete.join_attempts_per_change",
      Ratio(counters["rete.join_attempts"], wm_changes), "1", wm_changes);
  put("rete.tokens_deleted_per_change",
      Ratio(counters["rete.tokens_deleted"], wm_changes), "1", wm_changes);
  put("rete.token_yield",
      Ratio(counters["rete.tokens_created"], counters["rete.join_attempts"]),
      "1", counters["rete.join_attempts"]);
  put("rete.live_tokens", gauges["rete.live_tokens"], "count", conns);
  put("rete.token_arena_bytes", gauges["rete.token_arena_bytes"], "B", conns);
  put("core.test_evals_per_commit",
      Ratio(counters["snode.test_evals"], commits), "1", client_commits);
  put("core.soi_sends_per_commit",
      Ratio(counters["snode.sends_plus"] + counters["snode.sends_minus"] +
                counters["snode.sends_time"],
            commits),
      "1", client_commits);
  // Whole chunk times, so the cost of taking the spans (clock reads,
  // SpanLog::Add) counts; it falls outside every span.
  const double untraced_us = untraced.total_ns / 1e3 / n;
  const double traced_us = traced.total_ns / 1e3 / n;
  put("trace.overhead_us", traced_us - untraced_us, "us", requests);

  // Per-kind breakdown of the ladder (printed, not part of the result).
  static const char* kKindNames[] = {"commit", "run", "untimed"};
  for (int k = 0; k < 3; ++k) {
    Kind kind = static_cast<Kind>(k);
    if (handle.n[k] == 0) continue;
    std::printf(
        "ladder %-7s n=%-8llu handle %.2f us  session %.2f us  engine %.2f "
        "us\n",
        kKindNames[k], static_cast<unsigned long long>(handle.n[k]),
        handle.MeanUs(kind), session_sums.MeanUs(kind),
        engine_sums.MeanUs(kind));
  }
  std::printf("tracing overhead: %.3f us per request (rung 1 %.3f us with "
              "spans, %.3f us without)\n",
              m["trace.overhead_us"].value, traced_us, untraced_us);
  std::printf("span bias: rung 1 spans sum to %.3f us per request, %.3f us "
              "over rung 1 without spans\n",
              handle_us, handle_us - untraced_us);
  return ladder;
}

}  // namespace servebench
