#ifndef AQUA_LINT_PATTERN_LINT_H_
#define AQUA_LINT_PATTERN_LINT_H_

#include <string>
#include <vector>

#include "lint/automaton.h"
#include "lint/diagnostic.h"
#include "pattern/list_pattern.h"
#include "pattern/tree_pattern.h"

namespace aqua::lint {

struct PatternLintOptions {
  /// The text the pattern was parsed from; copied into diagnostics so they
  /// can render caret underlines. Empty for programmatic patterns.
  std::string source;
  /// True when the pattern is a whole query parameter: whole-pattern
  /// findings (emptiness AQL001, vacuity AQL002, whole-match prune AQL008)
  /// apply only then — a nullable *sub*pattern is not vacuous.
  bool query_level = true;
  /// Automaton facts shared with the other analyses of one plan; null
  /// compiles the pattern's automaton afresh.
  AutomatonMemo* automata = nullptr;
};

/// Lints a list pattern (§3.2): emptiness (automaton-backed), vacuity,
/// divergent closures, dead alternation branches, contradictory predicates,
/// and ineffective prunes.
std::vector<Diagnostic> LintListPattern(const AnchoredListPattern& lp,
                                        const PatternLintOptions& opts = {});

/// Lints a tree pattern (§3.3): the list checks on children sequences plus
/// concatenation-point arity (AQL006), unreachable anchors (AQL007), and
/// tree-level emptiness/prune findings.
std::vector<Diagnostic> LintTreePattern(const TreePatternRef& tp,
                                        const PatternLintOptions& opts = {});

/// Conservative AST-level emptiness: true only when no list can match.
/// `automata` as in `PatternLintOptions`.
bool ListPatternProvablyEmpty(const ListPatternRef& body,
                              AutomatonMemo* automata = nullptr);
/// True only when no tree can match.
bool TreePatternProvablyEmpty(const TreePatternRef& tp);

}  // namespace aqua::lint

#endif  // AQUA_LINT_PATTERN_LINT_H_
