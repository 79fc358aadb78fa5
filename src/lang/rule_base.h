#ifndef SOREL_LANG_RULE_BASE_H_
#define SOREL_LANG_RULE_BASE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/symbol_table.h"
#include "lang/ast.h"
#include "lang/compiled_rule.h"
#include "wm/schema.h"
#include "wm/wme.h"

namespace sorel {

/// The immutable alpha-level signature of one condition element: the class
/// plus every intra-WME test. This is the *compiled-artifact* half of an
/// alpha memory — what used to be copied into each session's `AlphaMemory`
/// (and the plan matcher's alpha groups) now lives here, deduplicated, and
/// the per-session memories hold only a borrowed pointer plus their mutable
/// item storage.
///
/// Patterns are compared structurally when built (Matches), and by pointer
/// identity afterwards: two CEs share a pattern iff their tests are equal,
/// so pointer equality is exactly the Rete "shared tests" property (§5).
struct AlphaPattern {
  SymbolId cls = kInvalidSymbol;
  std::vector<ConstantTest> const_tests;
  std::vector<MemberTest> member_tests;
  std::vector<IntraTest> intra_tests;

  /// Copies the alpha-level tests out of `cond`.
  static std::unique_ptr<AlphaPattern> FromCondition(
      const CompiledCondition& cond);

  /// True if `wme` (already of class `cls`) passes every test.
  bool Accepts(const Wme& wme) const;

  /// Structural equality against a condition's alpha tests — the sharing
  /// check.
  bool Matches(const CompiledCondition& cond) const;

  /// Bytes held by the test vectors (counted once per rule base, not per
  /// session).
  size_t MemoryBytes() const;
};

/// The deduplicated alpha-pattern set of a rule base, plus each rule's
/// per-CE pattern assignment. Patterns appear in first-use order — the
/// order an unbound matcher's GetOrCreateAlpha would create memories in —
/// so a session binding to the topology builds a network whose memory
/// creation order, successor lists, and therefore every observable trace
/// are bit-identical to a session that compiled privately.
class NetworkTopology {
 public:
  /// The patterns of `rule`'s conditions, in CE order, or nullptr if the
  /// rule is not part of this topology.
  const std::vector<const AlphaPattern*>* PatternsFor(
      const CompiledRule* rule) const {
    auto it = by_rule_.find(rule);
    return it == by_rule_.end() ? nullptr : &it->second;
  }

  size_t num_patterns() const { return patterns_.size(); }
  const std::vector<std::unique_ptr<AlphaPattern>>& patterns() const {
    return patterns_;
  }

  /// Registers every condition of `rule`, reusing structurally equal
  /// patterns (first-use order). Called by CompiledRuleBase::Compile.
  void AddRule(const CompiledRule* rule);

  size_t MemoryBytes() const;

 private:
  std::vector<std::unique_ptr<AlphaPattern>> patterns_;
  std::unordered_map<const CompiledRule*, std::vector<const AlphaPattern*>>
      by_rule_;
};

/// The immutable compiled artifact of one rule source: parsed + compiled
/// rules in textual CE order, the symbol table and schema registry they
/// were compiled against, the startup actions, and the deduplicated
/// alpha-pattern topology. Compiled once and shared — `EngineServer`
/// compiles its one source at startup, and every session binding to it
/// instantiates only its private match state (alpha columns, token arenas,
/// conflict set).
///
/// Thread safety: a CompiledRuleBase is deeply const after Compile returns
/// (no mutable members, no caches), so any number of sessions may read it
/// concurrently without synchronization.
class CompiledRuleBase {
 public:
  /// Parses and compiles `source`. The returned base is immutable and
  /// shareable; compilation errors come back as the usual lang statuses.
  static Result<std::shared_ptr<const CompiledRuleBase>> Compile(
      std::string source);

  const std::string& source() const { return source_; }
  const SymbolTable& symbols() const { return symbols_; }
  const SchemaRegistry& schemas() const { return schemas_; }
  const std::vector<CompiledRulePtr>& rules() const { return rules_; }
  /// Actions of the source's `(startup ...)` forms, already resolved;
  /// each binding session executes them once against its own WM.
  const std::vector<ActionPtr>& startup() const { return startup_; }
  const NetworkTopology& topology() const { return topology_; }

  const CompiledRule* FindRule(std::string_view name) const;

  /// Estimated bytes of the shared artifact (source, rules, topology) —
  /// what N sessions *don't* pay N times; feeds each bound engine's
  /// `engine.rule_base_bytes` gauge.
  size_t MemoryBytes() const;

 private:
  CompiledRuleBase() = default;

  std::string source_;
  SymbolTable symbols_;
  SchemaRegistry schemas_;
  std::vector<CompiledRulePtr> rules_;
  std::vector<ActionPtr> startup_;
  NetworkTopology topology_;
};

using RuleBasePtr = std::shared_ptr<const CompiledRuleBase>;

}  // namespace sorel

#endif  // SOREL_LANG_RULE_BASE_H_
