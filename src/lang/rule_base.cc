#include "lang/rule_base.h"

#include <utility>

#include "lang/compiler.h"
#include "lang/parser.h"

namespace sorel {

// --------------------------------------------------------------- pattern ---

std::unique_ptr<AlphaPattern> AlphaPattern::FromCondition(
    const CompiledCondition& cond) {
  auto p = std::make_unique<AlphaPattern>();
  p->cls = cond.cls;
  p->const_tests = cond.const_tests;
  p->member_tests = cond.member_tests;
  p->intra_tests = cond.intra_tests;
  return p;
}

bool AlphaPattern::Accepts(const Wme& wme) const {
  for (const ConstantTest& t : const_tests) {
    if (!EvalTestPred(t.pred, wme.field(t.field), t.value)) return false;
  }
  for (const MemberTest& t : member_tests) {
    bool any = false;
    for (const Value& v : t.values) {
      if (wme.field(t.field) == v) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  for (const IntraTest& t : intra_tests) {
    if (!EvalTestPred(t.pred, wme.field(t.field), wme.field(t.other_field))) {
      return false;
    }
  }
  return true;
}

bool AlphaPattern::Matches(const CompiledCondition& cond) const {
  return cls == cond.cls && SameConstantTests(const_tests, cond.const_tests) &&
         SameMemberTests(member_tests, cond.member_tests) &&
         SameIntraTests(intra_tests, cond.intra_tests);
}

size_t AlphaPattern::MemoryBytes() const {
  size_t bytes = sizeof(AlphaPattern) +
                 const_tests.capacity() * sizeof(ConstantTest) +
                 intra_tests.capacity() * sizeof(IntraTest) +
                 member_tests.capacity() * sizeof(MemberTest);
  for (const MemberTest& t : member_tests) {
    bytes += t.values.capacity() * sizeof(Value);
  }
  return bytes;
}

// -------------------------------------------------------------- topology ---

void NetworkTopology::AddRule(const CompiledRule* rule) {
  std::vector<const AlphaPattern*> assigned;
  assigned.reserve(rule->conditions.size());
  for (const CompiledCondition& cond : rule->conditions) {
    const AlphaPattern* found = nullptr;
    // First-use order, structural dedup — the same scan order an unbound
    // GetOrCreateAlpha runs, so pattern identity == memory sharing.
    for (const auto& p : patterns_) {
      if (p->Matches(cond)) {
        found = p.get();
        break;
      }
    }
    if (found == nullptr) {
      patterns_.push_back(AlphaPattern::FromCondition(cond));
      found = patterns_.back().get();
    }
    assigned.push_back(found);
  }
  by_rule_.emplace(rule, std::move(assigned));
}

size_t NetworkTopology::MemoryBytes() const {
  size_t bytes = patterns_.capacity() * sizeof(patterns_[0]);
  for (const auto& p : patterns_) bytes += p->MemoryBytes();
  for (const auto& [rule, assigned] : by_rule_) {
    bytes += sizeof(rule) + assigned.capacity() * sizeof(const AlphaPattern*);
  }
  return bytes;
}

// ------------------------------------------------------------- rule base ---

Result<RuleBasePtr> CompiledRuleBase::Compile(std::string source) {
  // shared_ptr<const ...> via a mutable local: the object is only written
  // here, before anyone else can see it.
  std::shared_ptr<CompiledRuleBase> base(new CompiledRuleBase());
  base->source_ = std::move(source);

  // The same sequence as Engine::LoadString on a fresh engine with textual
  // join order: parse, declare, compile each rule (duplicate-name check),
  // then resolve the startup actions. Running it here once instead of once
  // per session is the whole point; keeping the order identical is what
  // makes a bound session bit-identical to a private one.
  SOREL_ASSIGN_OR_RETURN(ProgramAst program, Parse(base->source_));
  RuleCompiler compiler(&base->symbols_, &base->schemas_);
  for (const LiteralizeAst& lit : program.literalizes) {
    SOREL_RETURN_IF_ERROR(compiler.DeclareLiteralize(lit));
  }
  for (RuleAst& rule_ast : program.rules) {
    if (base->FindRule(rule_ast.name) != nullptr) {
      return Status::CompileError("duplicate rule name '" + rule_ast.name +
                                  "'");
    }
    SOREL_ASSIGN_OR_RETURN(CompiledRulePtr rule,
                           compiler.Compile(std::move(rule_ast)));
    base->topology_.AddRule(rule.get());
    base->rules_.push_back(std::move(rule));
  }
  if (!program.startup.empty()) {
    SOREL_RETURN_IF_ERROR(compiler.CompileStartup(&program.startup));
    base->startup_ = std::move(program.startup);
  }
  return RuleBasePtr(std::move(base));
}

const CompiledRule* CompiledRuleBase::FindRule(std::string_view name) const {
  for (const CompiledRulePtr& rule : rules_) {
    if (rule->name == name) return rule.get();
  }
  return nullptr;
}

size_t CompiledRuleBase::MemoryBytes() const {
  // An estimate of the dominant shared storage: the source text, each
  // rule's condition/test vectors, and the topology. AST action trees are
  // approximated by their node counts' worth of pointers — exact RHS sizing
  // would buy precision nobody reads off a KiB gauge.
  size_t bytes = sizeof(CompiledRuleBase) + source_.capacity();
  for (const CompiledRulePtr& rule : rules_) {
    bytes += sizeof(CompiledRule) + rule->name.capacity();
    bytes += rule->conditions.capacity() * sizeof(CompiledCondition);
    for (const CompiledCondition& cond : rule->conditions) {
      bytes += cond.const_tests.capacity() * sizeof(ConstantTest) +
               cond.member_tests.capacity() * sizeof(MemberTest) +
               cond.intra_tests.capacity() * sizeof(IntraTest) +
               (cond.join_tests.capacity() + cond.eq_join_tests.capacity() +
                cond.residual_join_tests.capacity()) *
                   sizeof(JoinTest);
    }
    for (const auto& [name, var] : rule->vars) {
      bytes += name.capacity() + sizeof(VarInfo) +
               var.occurrences.capacity() * sizeof(std::pair<int, int>);
    }
    bytes += rule->test_aggregates.capacity() * sizeof(AggregateSpec);
    bytes += (rule->ast.actions.size() + startup_.size()) * sizeof(ActionPtr);
  }
  bytes += topology_.MemoryBytes();
  return bytes;
}

}  // namespace sorel
