#ifndef SOREL_BENCH_BENCH_UTIL_H_
#define SOREL_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "obs/json.h"

namespace sorel {
namespace bench {

/// An ostream that discards everything (rule output is not what we time).
inline std::ostream* DevNull() {
  static std::ostringstream* sink = new std::ostringstream;
  sink->str("");  // keep it from growing across benchmarks
  return sink;
}

/// Aborts the benchmark on error — benches must not silently misreport.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark setup failed (%s): %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
inline T CheckResult(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark setup failed (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

inline void MustLoad(Engine& engine, const std::string& src) {
  Check(engine.LoadString(src), "LoadString");
}

inline TimeTag MustMake(
    Engine& engine, std::string_view cls,
    const std::vector<std::pair<std::string, Value>>& values) {
  return CheckResult(engine.MakeWme(cls, values), "MakeWme");
}

inline int MustRun(Engine& engine, int max = -1) {
  return CheckResult(engine.Run(max), "Run");
}

/// Adds `n` players per team over `teams` team symbols; names cycle through
/// `distinct_names` values. Returns the last time tag.
inline TimeTag FillPlayers(Engine& engine, int n, int teams,
                           int distinct_names) {
  TimeTag last = 0;
  for (int i = 0; i < n; ++i) {
    std::string team = "team" + std::to_string(i % teams);
    std::string name = "name" + std::to_string(i % distinct_names);
    last = MustMake(engine, "player",
                    {{"team", engine.Sym(team)}, {"name", engine.Sym(name)}});
  }
  return last;
}

inline constexpr const char* kPlayerSchema =
    "(literalize player name team score id)";

/// Strips `--json` from argv and reports whether it was present. Call
/// before benchmark::Initialize, which rejects flags it doesn't know.
inline bool StripJsonFlag(int* argc, char** argv) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      found = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return found;
}

/// Accumulates one bench run's numbers and writes `BENCH_<name>.json` in
/// the working directory: a `config` object plus a `results` array of
/// labeled rows (wall clocks, counters, match_stats snapshots) — the
/// machine-readable companion to the printed tables, for tracking perf
/// across commits.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void Config(const std::string& key, double value) {
    config_.emplace_back(key, value);
  }
  /// Starts a result row; subsequent Value/MatchStats calls land in it.
  void BeginRow(std::string label) { rows_.push_back({std::move(label), {}}); }
  void Value(const std::string& key, double value) {
    rows_.back().fields.emplace_back(key, value);
  }
  /// Flattens a MatchStats snapshot into the current row.
  void MatchStats(const Engine::MatchStats& s) {
    Value("rete.join_attempts", static_cast<double>(s.rete.join_attempts));
    Value("rete.index_probes", static_cast<double>(s.rete.index_probes));
    Value("rete.tokens_created", static_cast<double>(s.rete.tokens_created));
    Value("rete.tokens_deleted", static_cast<double>(s.rete.tokens_deleted));
    Value("rete.right_activations",
          static_cast<double>(s.rete.right_activations));
    Value("rete.batches", static_cast<double>(s.rete.batches));
    Value("rete.token_pool_hits",
          static_cast<double>(s.rete.token_pool_hits));
    Value("rete.parallel_batches",
          static_cast<double>(s.rete.parallel_batches));
    Value("rete.replay_tasks", static_cast<double>(s.rete.replay_tasks));
    Value("select.selects", static_cast<double>(s.select.selects));
    Value("select.comparisons", static_cast<double>(s.select.comparisons));
    Value("snode.test_evals", static_cast<double>(s.snode.test_evals));
    Value("treat.seeded_searches",
          static_cast<double>(s.treat.seeded_searches));
    Value("treat.full_searches", static_cast<double>(s.treat.full_searches));
    Value("treat.intra_splits", static_cast<double>(s.treat.intra_splits));
    Value("treat.intra_slice_tasks",
          static_cast<double>(s.treat.intra_slice_tasks));
    Value("dips.refreshes", static_cast<double>(s.dips.refreshes));
    Value("plan.join_attempts", static_cast<double>(s.plan.join_attempts));
    Value("plan.reorders", static_cast<double>(s.plan.reorders));
    Value("plan.est_cardinality_error",
          static_cast<double>(s.plan.est_cardinality_error));
    Value("plan.index_builds", static_cast<double>(s.plan.index_builds));
    Value("plan.seeded_searches",
          static_cast<double>(s.plan.seeded_searches));
    Value("plan.full_searches", static_cast<double>(s.plan.full_searches));
    Value("wm.adds", static_cast<double>(s.wm.adds));
    Value("wm.removes", static_cast<double>(s.wm.removes));
    Value("wm.batches", static_cast<double>(s.wm.batches));
    Value("pool.threads", static_cast<double>(s.pool.threads));
    Value("pool.tasks", static_cast<double>(s.pool.tasks));
    Value("pool.batches", static_cast<double>(s.pool.batches));
    Value("pool.nested_batches",
          static_cast<double>(s.pool.nested_batches));
    Value("pool.max_task_depth",
          static_cast<double>(s.pool.max_task_depth));
  }

  /// Renders the report to `out` (exposed separately from Write so tests
  /// can check the JSON without touching the filesystem).
  void WriteTo(std::ostream& out) const {
    out << "{\n  \"bench\": \"" << Escape(name_) << "\",\n  \"config\": {";
    for (size_t i = 0; i < config_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << Escape(config_[i].first)
          << "\": " << Number(config_[i].second);
    }
    out << "},\n  \"results\": [\n";
    for (size_t r = 0; r < rows_.size(); ++r) {
      out << "    {\"label\": \"" << Escape(rows_[r].label) << "\"";
      for (const auto& [key, value] : rows_[r].fields) {
        out << ", \"" << Escape(key) << "\": " << Number(value);
      }
      out << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  /// Writes BENCH_<name>.json. Returns false (with a stderr note) on I/O
  /// failure; benches treat that as fatal.
  bool Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    WriteTo(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  // Rendering delegates to the shared obs JSON helpers, so bench reports
  // and trace exporters agree on one escaping/number format (and the
  // reports parse back with obs::ParseJson / ValidateBenchReport).
  static std::string Escape(const std::string& s) { return obs::JsonEscape(s); }
  static std::string Number(double v) { return obs::JsonNumber(v); }

  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::string name_;
  std::vector<std::pair<std::string, double>> config_;
  std::vector<Row> rows_;
};

}  // namespace bench
}  // namespace sorel

#endif  // SOREL_BENCH_BENCH_UTIL_H_
