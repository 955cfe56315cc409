#ifndef AQUA_LINT_AUTOMATON_H_
#define AQUA_LINT_AUTOMATON_H_

#include <utility>
#include <vector>

#include "pattern/list_pattern.h"

namespace aqua::lint {

/// Facts derived from the single-pattern search automaton of a list pattern
/// (`MultiNfa::CompileSearch({body})`), with predicate transitions weighted
/// by `AnalyzePredicateSat`: an edge guarded by an unsatisfiable predicate
/// is dead.
struct AutomatonFacts {
  /// False when the pattern could not be compiled (it contains tree-pattern
  /// atoms); the other fields are then meaningless.
  bool compiled = false;
  /// No string of elements reaches the accept state over live edges.
  bool language_empty = false;
  /// The empty sequence is accepted (accept ∈ ε-closure(start)).
  bool accepts_empty = false;
  /// A cycle of ε-edges among live states (reachable from start *and*
  /// co-reachable to accept): the match relation diverges — the NFA
  /// simulation is safe, but a backtracking matcher can re-derive the same
  /// empty iteration forever. Produced by closures over nullable bodies.
  bool has_live_eps_cycle = false;
};

/// Compiles `body` and analyzes it. Never fails: an uncompilable pattern
/// yields `compiled == false`.
AutomatonFacts AnalyzeListPatternAutomaton(const ListPatternRef& body);

/// `AnalyzeListPatternAutomaton` memoised per pattern body, for one
/// `LintPlan` call: the pattern lint (AQL001), the plan lint's AQL009 and
/// the abstract interpreter all ask about the same bodies, and each
/// compile interns and seals a predicate alphabet. Not thread-safe.
class AutomatonMemo {
 public:
  AutomatonFacts Analyze(const ListPatternRef& body);

 private:
  // Plans carry a handful of patterns: a linear scan beats hashing. The
  // refs keep each body alive, so identity keys cannot be reused.
  std::vector<std::pair<ListPatternRef, AutomatonFacts>> entries_;
};

/// `memo->Analyze(body)`, or an unmemoised analysis when `memo` is null.
AutomatonFacts AnalyzeListPatternAutomaton(const ListPatternRef& body,
                                           AutomatonMemo* memo);

}  // namespace aqua::lint

#endif  // AQUA_LINT_AUTOMATON_H_
