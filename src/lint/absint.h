#ifndef AQUA_LINT_ABSINT_H_
#define AQUA_LINT_ABSINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/fn_expr.h"
#include "lint/automaton.h"
#include "lint/diagnostic.h"
#include "query/database.h"
#include "query/plan.h"

namespace aqua::lint {

/// Interval of collection counts `[lo, hi]` with an unbounded upper
/// sentinel. The unit is *collections* (trees/lists in a result set; a
/// single-collection result is exactly [1, 1]), matching what the cost
/// model calls `out_collections`.
struct CardInterval {
  static constexpr uint64_t kUnbounded = UINT64_MAX;

  uint64_t lo = 0;
  uint64_t hi = kUnbounded;

  static CardInterval Exact(uint64_t n) { return {n, n}; }
  static CardInterval Empty() { return {0, 0}; }
  static CardInterval AtMost(uint64_t n) { return {0, n}; }
  static CardInterval Unknown() { return {0, kUnbounded}; }

  bool provably_empty() const { return hi == 0; }
  bool bounded() const { return hi != kUnbounded; }
  /// True when the intervals share no point — the core contradiction test
  /// of the rewrite-safety checker.
  bool Disjoint(const CardInterval& other) const {
    return hi < other.lo || other.hi < lo;
  }
  /// Rendered as `0..*`, `1`, or `0..48`.
  std::string ToString() const;
};

/// What kind of element a plan node's result holds.
enum class ElemKind {
  kTree,     ///< ordered trees
  kList,     ///< ordered lists
  kNone,     ///< the empty set: no elements to have a kind
  kUnknown,  ///< split-family outputs (arbitrary `Datum`s from callbacks)
};

const char* ElemKindToString(ElemKind kind);

/// The abstract value one plan node evaluates to: the fact domain of the
/// abstract interpreter. Every field is a *proved* property — the analysis
/// is conservative and falls back to the unknown element of each domain.
struct PlanFacts {
  /// Set-of-collections result (fan-out ops) vs a single collection.
  bool is_set = false;
  ElemKind elem = ElemKind::kUnknown;
  /// Collections in the result.
  CardInterval card;
  /// Upper bound on total cells across the result's collections
  /// (`kUnbounded` when unknown). Exact for scans; apply preserves it.
  uint64_t nodes_hi = CardInterval::kUnbounded;
  /// Set results are duplicate-free by construction (set insertion
  /// deduplicates); single collections trivially so. Stays true through
  /// every operator in the algebra — recorded so the rewrite checker can
  /// assert no rule output loses it.
  bool duplicate_free = true;
  /// Result enumeration order is derived from document order (selects,
  /// matches in enumeration order). All current operators preserve it;
  /// the checker asserts rewrites do too.
  bool order_preserving = true;
  /// Effect of this node's own function parameter (kPure when none).
  FnEffect effect = FnEffect::kPure;
  /// This node is an `apply` certified for morsel-parallel fan-out.
  bool parallel_certified = false;

  /// e.g. `set of trees, card 0..48, <=200 nodes, effect=read-only`.
  std::string ToString() const;
};

/// Everything one `AnalyzePlan` pass produced.
struct AbsIntResult {
  /// Facts per plan node (absent for null subtrees).
  std::map<const PlanNode*, PlanFacts> facts;
  /// AQL013–AQL019 findings (AQL020 comes from `CheckRewriteSafety`).
  std::vector<Diagnostic> diags;

  /// Facts of the root node (defaults when the plan was null).
  PlanFacts root;
};

/// Runs the abstract interpreter over `plan`: propagates `PlanFacts`
/// bottom-up through every operator and surfaces contradictions and
/// provably-degenerate subplans:
///
///  * AQL013 `kind-flow-mismatch`   — an operator consumes elements of the
///    wrong kind through the flow (e.g. a tree select over the set-of-lists
///    output of a list sub_select); direct scan mismatches stay AQL010.
///  * AQL014 `empty-input-flow`     — the input is provably empty, so the
///    operator (however well-formed) can never see an element.
///  * AQL015 `tautological-select`  — a select whose predicate is provably
///    true of every object: the operator keeps everything.
///  * AQL016 `identity-apply`      — an apply whose expression is identity.
///  * AQL017 `constant-apply-collapse` — a constant apply over a set input:
///    set insertion collapses the output to at most one element.
///  * AQL018 `uncertified-serial-fn` (note) — an apply whose function is
///    opaque or store-mutating, forcing the serial path.
///  * AQL019 `empty-result-flow`    — provable emptiness reached the root:
///    the whole query returns nothing.
///
/// `pattern_source` is threaded onto diagnostics exactly as in `LintPlan`;
/// `automata` shares list-pattern automaton facts with the caller's other
/// analyses (null analyzes afresh).
/// Emits `lint.absint_facts` (nodes analyzed) per pass.
AbsIntResult AnalyzePlan(const Database& db, const PlanRef& plan,
                         const std::string& pattern_source = {},
                         AutomatonMemo* automata = nullptr);

/// Asserts the §4 rewrite `before → after` against the inferred facts and
/// returns AQL020 `unsafe-rewrite` diagnostics for every contradiction: a
/// result-shape change (set vs single), an element-kind change, disjoint
/// cardinality intervals, or a lost duplicate-freeness/order invariant.
/// The rewriter rejects any candidate this reports on (and counts it in
/// `lint.rewrites_rejected`); an empty result certifies the rewrite.
std::vector<Diagnostic> CheckRewriteSafety(const Database& db,
                                           const PlanRef& before,
                                           const PlanRef& after,
                                           const std::string& rule_name);

/// `Explain`-style rendering of the plan with each node annotated by its
/// facts — what the shell's `\lint` shows.
std::string RenderFacts(const Database& db, const PlanRef& plan);

}  // namespace aqua::lint

#endif  // AQUA_LINT_ABSINT_H_
