#ifndef SOREL_ENGINE_RHS_H_
#define SOREL_ENGINE_RHS_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "base/status.h"
#include "base/symbol_table.h"
#include "lang/compiled_rule.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rete/instantiation.h"
#include "wm/working_memory.h"

namespace sorel {

/// Executes the RHS of a firing instantiation (§6): regular actions,
/// set-oriented `set-modify`/`set-remove`, and the compositional `foreach`
/// iterator over set-oriented PVs and CEs, including nested iteration,
/// `bind` locals, and `if`/`else`.
///
/// The rows are a snapshot taken at selection time, so actions that change
/// the instantiation's own support (e.g. SwitchTeams' set-modify) are
/// well-defined.
///
/// In transactional mode (EngineOptions::batched_wm) each firing runs
/// inside a WM transaction, with every WM-mutating action in a nested
/// sub-transaction: an action that errors on its k-th member leaves no
/// partial effect, the whole firing's changes reach the matchers as one
/// ChangeBatch at commit, and an error rolls the entire firing back —
/// §8.1's all-or-nothing transaction semantics. Non-transactional mode
/// propagates each mutation immediately, as in OPS5.
class RhsExecutor {
 public:
  struct FireResult {
    bool halted = false;
    uint64_t actions = 0;  // primitive actions executed in this firing
  };

  struct Stats {
    uint64_t firings = 0;
    uint64_t actions = 0;
    uint64_t wmes_made = 0;
    uint64_t wmes_removed = 0;
    uint64_t skipped_dead_targets = 0;  // modify/remove of dead WMEs
  };

  /// `metrics` / `tracer` (borrowed, may be null) hook the executor into
  /// the observability layer: rhs.* counters register as registry views and
  /// each successful firing emits an rhs_apply event.
  RhsExecutor(WorkingMemory* wm, SymbolTable* symbols, std::ostream* out,
              obs::MetricRegistry* metrics = nullptr,
              obs::Tracer* tracer = nullptr);
  ~RhsExecutor();

  RhsExecutor(const RhsExecutor&) = delete;
  RhsExecutor& operator=(const RhsExecutor&) = delete;

  /// Runs `rule`'s actions over the snapshot `rows` (ordered as in the
  /// conflict set: most recent first).
  Result<FireResult> Fire(const CompiledRule& rule, std::vector<Row> rows);

  /// Runs a free-standing action list (startup forms, shell commands) with
  /// no matched rows. `context` supplies the (usually empty) variable
  /// table.
  Result<FireResult> ExecuteStandalone(const CompiledRule& context,
                                       const std::vector<ActionPtr>& actions);

  void set_output(std::ostream* out) { out_ = out; }
  /// Enables per-firing / per-action WM transactions (see class comment).
  void set_transactional(bool on) { transactional_ = on; }
  bool transactional() const { return transactional_; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  class ExecState;
  class RhsEvalContext;

  Status ExecuteList(const std::vector<ActionPtr>& actions, ExecState* state);
  Status Execute(const Action& action, ExecState* state);
  /// Runs `body` inside a (possibly nested) WM transaction when
  /// transactional mode is on; rolls back on error.
  Status RunInTransaction(const std::function<Status()>& body);
  Status DoMake(const Action& action, ExecState* state);
  Status DoModifyOrRemove(const Action& action, ExecState* state);
  Status DoSetModifyOrRemove(const Action& action, ExecState* state);
  Status DoWrite(const Action& action, ExecState* state);
  Status DoForeach(const Action& action, ExecState* state);
  /// remove+make with updated fields (OPS5 modify: fresh time tag).
  Status ModifyWme(const Wme& old, const Action& action, ExecState* state);
  Status RemoveIfLive(TimeTag tag);

  WorkingMemory* wm_;
  SymbolTable* symbols_;
  std::ostream* out_;
  bool transactional_ = false;
  obs::MetricRegistry* metrics_ = nullptr;  // borrowed; may be null
  obs::Tracer* tracer_ = nullptr;           // borrowed; may be null
  Stats stats_;
  // Write-action spacing persists across firings: a space precedes each
  // value unless at the start of an output line (after crlf).
  bool at_line_start_ = true;
};

}  // namespace sorel

#endif  // SOREL_ENGINE_RHS_H_
