#include "engine/rhs.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "lang/eval.h"

namespace sorel {

/// Mutable execution state of one firing.
class RhsExecutor::ExecState {
 public:
  ExecState(const CompiledRule& rule, std::vector<Row> rows)
      : rule_(&rule), rows_(std::move(rows)) {
    selection_.resize(rows_.size());
    for (size_t i = 0; i < rows_.size(); ++i) selection_[i] = i;
  }

  const CompiledRule& rule() const { return *rule_; }
  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<size_t>& selection() const { return selection_; }
  std::vector<size_t>* mutable_selection() { return &selection_; }

  std::unordered_map<std::string, Value>& locals() { return locals_; }
  std::unordered_set<std::string>& fixed_vars() { return fixed_vars_; }
  std::unordered_set<int>& fixed_positions() { return fixed_positions_; }

  bool halted = false;

  /// Scalar resolution per §4.1/§6: locals first; then scalar PVs; then
  /// set-oriented PVs that are fixed by an enclosing foreach.
  Result<Value> ResolveVar(const std::string& name) const {
    auto local = locals_.find(name);
    if (local != locals_.end()) return local->second;
    const VarInfo* info = rule_->FindVar(name);
    if (info == nullptr) {
      return Status::RuntimeError("unbound variable <" + name + ">");
    }
    if (info->kind == VarInfo::Kind::kElement) {
      return Status::RuntimeError("element variable <" + name +
                                  "> used as a value");
    }
    if (info->set_oriented && fixed_vars_.count(name) == 0) {
      bool fixed = false;
      for (const auto& [pos, field] : info->occurrences) {
        if (fixed_positions_.count(pos) != 0) fixed = true;
      }
      if (!fixed) {
        return Status::RuntimeError(
            "set-oriented variable <" + name +
            "> read outside foreach/aggregate");
      }
    }
    if (selection_.empty()) {
      return Status::RuntimeError("variable <" + name +
                                  "> read with empty selection");
    }
    const auto& [pos, field] = info->occurrences.front();
    return rows_[selection_.front()][static_cast<size_t>(pos)]->field(field);
  }

  /// Aggregates on the RHS are computed over the current selection with
  /// the same distinct-domain semantics as the S-node.
  Result<Value> EvalAggregate(const Expr& agg) const {
    const VarInfo* info = rule_->FindVar(agg.var);
    if (info == nullptr) {
      return Status::RuntimeError("unbound variable <" + agg.var + ">");
    }
    AggState state(agg.agg_op);
    if (info->kind == VarInfo::Kind::kElement) {
      for (size_t i : selection_) {
        state.Insert(Value::Int(
            rows_[i][static_cast<size_t>(info->elem_token_pos)]->time_tag()));
      }
    } else {
      if (info->occurrences.empty()) {
        return Status::RuntimeError("variable <" + agg.var +
                                    "> has no binding site");
      }
      const auto& [pos, field] = info->occurrences.front();
      for (size_t i : selection_) {
        state.Insert(rows_[i][static_cast<size_t>(pos)]->field(field));
      }
    }
    return state.Current();
  }

  /// The single WME an element variable denotes under the current scope.
  Result<WmePtr> ResolveElemWme(const std::string& name) const {
    const VarInfo* info = rule_->FindVar(name);
    if (info == nullptr || info->kind != VarInfo::Kind::kElement) {
      return Status::RuntimeError("<" + name + "> is not an element variable");
    }
    if (info->set_oriented &&
        fixed_positions_.count(info->elem_token_pos) == 0) {
      return Status::RuntimeError("set-oriented element variable <" + name +
                                  "> needs set-modify/set-remove or foreach");
    }
    if (selection_.empty()) {
      return Status::RuntimeError("element variable <" + name +
                                  "> read with empty selection");
    }
    return rows_[selection_.front()]
                [static_cast<size_t>(info->elem_token_pos)];
  }

 private:
  const CompiledRule* rule_;
  std::vector<Row> rows_;
  std::vector<size_t> selection_;
  std::unordered_map<std::string, Value> locals_;
  std::unordered_set<std::string> fixed_vars_;
  std::unordered_set<int> fixed_positions_;
};

/// Adapts ExecState to the expression evaluator.
class RhsExecutor::RhsEvalContext : public EvalContext {
 public:
  explicit RhsEvalContext(const ExecState& state) : state_(&state) {}
  Result<Value> ResolveVar(const std::string& name) const override {
    return state_->ResolveVar(name);
  }
  Result<Value> EvalAggregate(const Expr& agg) const override {
    return state_->EvalAggregate(agg);
  }

 private:
  const ExecState* state_;
};

Status RhsExecutor::RunInTransaction(const std::function<Status()>& body) {
  if (!transactional_) return body();
  wm_->Begin();
  Status s = body();
  if (s.ok()) return wm_->Commit();
  wm_->Rollback();
  return s;
}

RhsExecutor::RhsExecutor(WorkingMemory* wm, SymbolTable* symbols,
                         std::ostream* out, obs::MetricRegistry* metrics,
                         obs::Tracer* tracer)
    : wm_(wm), symbols_(symbols), out_(out), metrics_(metrics),
      tracer_(tracer) {
  if (metrics_ == nullptr) return;
  metrics_->RegisterCounter(this, "rhs.firings",
                            [this] { return stats_.firings; });
  metrics_->RegisterCounter(this, "rhs.actions",
                            [this] { return stats_.actions; });
  metrics_->RegisterCounter(this, "rhs.wmes_made",
                            [this] { return stats_.wmes_made; });
  metrics_->RegisterCounter(this, "rhs.wmes_removed",
                            [this] { return stats_.wmes_removed; });
  metrics_->RegisterCounter(this, "rhs.skipped_dead_targets",
                            [this] { return stats_.skipped_dead_targets; });
  metrics_->RegisterReset(this, [this] { ResetStats(); });
}

RhsExecutor::~RhsExecutor() {
  if (metrics_ != nullptr) metrics_->Unregister(this);
}

Result<RhsExecutor::FireResult> RhsExecutor::Fire(const CompiledRule& rule,
                                                  std::vector<Row> rows) {
  size_t num_rows = rows.size();
  ExecState state(rule, std::move(rows));
  uint64_t actions_before = stats_.actions;
  // The whole firing is one transaction: its changes reach the matchers as
  // a single ChangeBatch, and an error anywhere undoes all of them.
  SOREL_RETURN_IF_ERROR(
      RunInTransaction([&] { return ExecuteList(rule.ast.actions, &state); }));
  ++stats_.firings;
  FireResult result;
  result.halted = state.halted;
  result.actions = stats_.actions - actions_before;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Emit(obs::TraceEvent("rhs_apply")
                      .Str("rule", rule.name)
                      .Num("rows", num_rows)
                      .Num("actions", result.actions));
  }
  return result;
}

Result<RhsExecutor::FireResult> RhsExecutor::ExecuteStandalone(
    const CompiledRule& context, const std::vector<ActionPtr>& actions) {
  ExecState state(context, {});
  uint64_t actions_before = stats_.actions;
  SOREL_RETURN_IF_ERROR(
      RunInTransaction([&] { return ExecuteList(actions, &state); }));
  FireResult result;
  result.halted = state.halted;
  result.actions = stats_.actions - actions_before;
  return result;
}

Status RhsExecutor::ExecuteList(const std::vector<ActionPtr>& actions,
                                ExecState* state) {
  for (const ActionPtr& action : actions) {
    if (state->halted) return Status::Ok();
    SOREL_RETURN_IF_ERROR(Execute(*action, state));
  }
  return Status::Ok();
}

Status RhsExecutor::Execute(const Action& action, ExecState* state) {
  switch (action.kind) {
    // WM-mutating actions each get a nested sub-transaction: a multi-WME
    // action (set-modify over N members, or a modify whose expression
    // errors after the remove half) is all-or-nothing on its own.
    case Action::Kind::kMake:
      ++stats_.actions;
      return RunInTransaction([&] { return DoMake(action, state); });
    case Action::Kind::kModify:
    case Action::Kind::kRemove:
      ++stats_.actions;
      return RunInTransaction(
          [&] { return DoModifyOrRemove(action, state); });
    case Action::Kind::kSetModify:
    case Action::Kind::kSetRemove:
      return RunInTransaction(
          [&] { return DoSetModifyOrRemove(action, state); });
    case Action::Kind::kWrite:
      ++stats_.actions;
      return DoWrite(action, state);
    case Action::Kind::kBind: {
      ++stats_.actions;
      RhsEvalContext ctx(*state);
      SOREL_ASSIGN_OR_RETURN(Value v, EvalExpr(*action.expr, ctx));
      state->locals()[action.var] = v;
      return Status::Ok();
    }
    case Action::Kind::kForeach:
      return DoForeach(action, state);
    case Action::Kind::kIf: {
      RhsEvalContext ctx(*state);
      SOREL_ASSIGN_OR_RETURN(Value cond, EvalExpr(*action.expr, ctx));
      return ExecuteList(cond.IsTruthy() ? action.body : action.else_body,
                         state);
    }
    case Action::Kind::kHalt:
      ++stats_.actions;
      state->halted = true;
      return Status::Ok();
  }
  return Status::Ok();
}

Status RhsExecutor::DoMake(const Action& action, ExecState* state) {
  SymbolId cls = symbols_->Intern(action.cls);
  std::vector<std::pair<SymbolId, Value>> values;
  values.reserve(action.assigns.size());
  RhsEvalContext ctx(*state);
  for (const auto& [attr, expr] : action.assigns) {
    SOREL_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, ctx));
    values.emplace_back(symbols_->Intern(attr), v);
  }
  SOREL_ASSIGN_OR_RETURN(WmePtr wme, wm_->Make(cls, values));
  (void)wme;
  ++stats_.wmes_made;
  return Status::Ok();
}

Status RhsExecutor::RemoveIfLive(TimeTag tag) {
  // Lenient removal: the snapshot may reference WMEs already removed
  // earlier in this same firing (§8.1 notes how tuple-oriented systems
  // suffer from instantiations invalidating each other; set-oriented RHS
  // actions are defined over the snapshot instead).
  if (wm_->Find(tag) == nullptr) {
    ++stats_.skipped_dead_targets;
    return Status::Ok();
  }
  SOREL_RETURN_IF_ERROR(wm_->Remove(tag));
  ++stats_.wmes_removed;
  return Status::Ok();
}

Status RhsExecutor::ModifyWme(const Wme& old, const Action& action,
                              ExecState* state) {
  if (wm_->Find(old.time_tag()) == nullptr) {
    ++stats_.skipped_dead_targets;
    return Status::Ok();
  }
  std::vector<Value> fields = old.fields();
  RhsEvalContext ctx(*state);
  const ClassSchema* schema = wm_->schemas().Find(old.cls());
  for (const auto& [attr, expr] : action.assigns) {
    SOREL_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, ctx));
    int field = schema->FieldOf(symbols_->Intern(attr));
    if (field < 0) {
      return Status::RuntimeError("modify: unknown attribute '" + attr + "'");
    }
    fields[static_cast<size_t>(field)] = v;
  }
  // Replace stages the remove/re-make as a linked delta pair (one modify,
  // not two unrelated events, when inside a transaction).
  SOREL_ASSIGN_OR_RETURN(WmePtr wme,
                         wm_->Replace(old.time_tag(), std::move(fields)));
  (void)wme;
  ++stats_.wmes_removed;
  ++stats_.wmes_made;
  return Status::Ok();
}

Status RhsExecutor::DoModifyOrRemove(const Action& action, ExecState* state) {
  WmePtr target;
  if (action.var.empty() && action.remove_ordinal > 0) {
    // (remove N): the WME matching the N-th CE.
    int ce = action.remove_ordinal - 1;
    const CompiledCondition& cond =
        state->rule().conditions[static_cast<size_t>(ce)];
    if (state->selection().empty()) {
      return Status::RuntimeError("remove: empty selection");
    }
    target = state->rows()[state->selection().front()]
                          [static_cast<size_t>(cond.token_pos)];
  } else {
    SOREL_ASSIGN_OR_RETURN(target, state->ResolveElemWme(action.var));
  }
  if (action.kind == Action::Kind::kRemove) {
    return RemoveIfLive(target->time_tag());
  }
  return ModifyWme(*target, action, state);
}

Status RhsExecutor::DoSetModifyOrRemove(const Action& action,
                                        ExecState* state) {
  const VarInfo* info = state->rule().FindVar(action.var);
  if (info == nullptr || info->kind != VarInfo::Kind::kElement) {
    return Status::RuntimeError("set-modify/set-remove target <" +
                                action.var + "> is not an element variable");
  }
  // Distinct WMEs at the CE's position across the current selection, in
  // selection (conflict-set) order.
  std::vector<WmePtr> targets;
  std::unordered_set<TimeTag> seen;
  for (size_t i : state->selection()) {
    const WmePtr& w =
        state->rows()[i][static_cast<size_t>(info->elem_token_pos)];
    if (seen.insert(w->time_tag()).second) targets.push_back(w);
  }
  for (const WmePtr& w : targets) {
    ++stats_.actions;
    if (action.kind == Action::Kind::kSetRemove) {
      SOREL_RETURN_IF_ERROR(RemoveIfLive(w->time_tag()));
    } else {
      SOREL_RETURN_IF_ERROR(ModifyWme(*w, action, state));
    }
  }
  return Status::Ok();
}

Status RhsExecutor::DoWrite(const Action& action, ExecState* state) {
  RhsEvalContext ctx(*state);
  for (const ExprPtr& arg : action.write_args) {
    if (arg->kind == Expr::Kind::kCrlf) {
      *out_ << "\n";
      at_line_start_ = true;
      continue;
    }
    SOREL_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, ctx));
    if (!at_line_start_) *out_ << " ";
    *out_ << v.ToString(*symbols_);
    at_line_start_ = false;
  }
  return Status::Ok();
}

Status RhsExecutor::DoForeach(const Action& action, ExecState* state) {
  const VarInfo* info = state->rule().FindVar(action.var);
  if (info == nullptr) {
    return Status::RuntimeError("foreach over unbound variable <" +
                                action.var + ">");
  }
  std::vector<size_t> saved_selection = state->selection();
  bool var_was_fixed = state->fixed_vars().count(action.var) != 0;
  state->fixed_vars().insert(action.var);
  bool pos_was_fixed = false;
  int elem_pos = -1;
  if (info->kind == VarInfo::Kind::kElement) {
    elem_pos = info->elem_token_pos;
    pos_was_fixed = state->fixed_positions().count(elem_pos) != 0;
    state->fixed_positions().insert(elem_pos);
  }

  Status status = Status::Ok();
  if (info->kind == VarInfo::Kind::kElement) {
    // Iterate over distinct WMEs ("imagine iterating over distinct
    // time-tags", §6.2).
    std::vector<WmePtr> order;
    std::unordered_set<TimeTag> seen;
    for (size_t i : saved_selection) {
      const WmePtr& w =
          state->rows()[i][static_cast<size_t>(elem_pos)];
      if (seen.insert(w->time_tag()).second) order.push_back(w);
    }
    if (action.order == Action::Order::kAscending) {
      std::sort(order.begin(), order.end(),
                [](const WmePtr& a, const WmePtr& b) {
                  return a->time_tag() < b->time_tag();
                });
    } else if (action.order == Action::Order::kDescending) {
      std::sort(order.begin(), order.end(),
                [](const WmePtr& a, const WmePtr& b) {
                  return a->time_tag() > b->time_tag();
                });
    }
    for (const WmePtr& w : order) {
      std::vector<size_t> sub;
      for (size_t i : saved_selection) {
        if (state->rows()[i][static_cast<size_t>(elem_pos)]->time_tag() ==
            w->time_tag()) {
          sub.push_back(i);
        }
      }
      *state->mutable_selection() = std::move(sub);
      status = ExecuteList(action.body, state);
      if (!status.ok() || state->halted) break;
    }
  } else {
    // Iterate over the distinct values of the PV's domain (§6.1). Default
    // order: first appearance in conflict-set (recency) order.
    const auto& [pos, field] = info->occurrences.front();
    std::vector<Value> order;
    for (size_t i : saved_selection) {
      const Value& v = state->rows()[i][static_cast<size_t>(pos)]->field(field);
      if (std::find(order.begin(), order.end(), v) == order.end()) {
        order.push_back(v);
      }
    }
    if (action.order == Action::Order::kAscending) {
      std::sort(order.begin(), order.end(), ValueNameLess(*symbols_));
    } else if (action.order == Action::Order::kDescending) {
      ValueNameLess less(*symbols_);
      std::sort(order.begin(), order.end(),
                [&less](const Value& a, const Value& b) { return less(b, a); });
    }
    for (const Value& v : order) {
      std::vector<size_t> sub;
      for (size_t i : saved_selection) {
        if (state->rows()[i][static_cast<size_t>(pos)]->field(field) == v) {
          sub.push_back(i);
        }
      }
      *state->mutable_selection() = std::move(sub);
      status = ExecuteList(action.body, state);
      if (!status.ok() || state->halted) break;
    }
  }

  *state->mutable_selection() = std::move(saved_selection);
  if (!var_was_fixed) state->fixed_vars().erase(action.var);
  if (elem_pos >= 0 && !pos_was_fixed) state->fixed_positions().erase(elem_pos);
  return status;
}

}  // namespace sorel
