#ifndef AQUA_QUERY_VALIDATE_H_
#define AQUA_QUERY_VALIDATE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "lint/diagnostic.h"
#include "query/database.h"
#include "query/plan.h"

namespace aqua {

// §3.1, footnote 2: "This cannot be determined by the user, since it would
// be a violation of encapsulation. However, the query optimizer can verify
// that the attributes involved are stored and not computed." This module is
// that verification.

/// Checks every alphabet-predicate reachable from `tp` against the object
/// types actually present in `tree`: each referenced attribute must be a
/// *stored* attribute of every present type that declares it. Returns
/// InvalidArgument naming the offending attribute otherwise.
Status ValidateTreePatternAgainst(const StoreView& store, const Tree& tree,
                                  const TreePatternRef& tp);

/// The list analogue.
Status ValidateListPatternAgainst(const StoreView& store, const List& list,
                                  const AnchoredListPattern& lp);

/// Walks a plan and validates every pattern/predicate parameter against the
/// collection its scan feeds it from. Plans whose inputs are not direct
/// scans (rewritten shapes, forests) validate against the union of the
/// database's collections named in the subtree.
Status ValidatePlanPatterns(const Database& db, const PlanRef& plan);

// Diagnostic-producing cores of the checks above (code AQL011,
// computed-attribute). The `Validate*` wrappers return the first violation's
// message as a Status; `aqua::lint` consumes the full structured lists.

/// Violations in every alphabet-predicate reachable from `tp`, against the
/// types present in `tree`. Spans point at the offending comparison when the
/// predicate was parsed from text.
std::vector<lint::Diagnostic> TreePatternStoredAttrViolations(
    const StoreView& store, const Tree& tree, const TreePatternRef& tp);

/// The list analogue.
std::vector<lint::Diagnostic> ListPatternStoredAttrViolations(
    const StoreView& store, const List& list, const AnchoredListPattern& lp);

/// The object types present in each collection a plan scans, filled on
/// first use. One memo lives for one plan check (`LintPlan`,
/// `ValidatePlanPatterns`), so each collection is walked at most once per
/// call and no cached set outlives the database state it was read from.
using CollectionTypeMemo = std::map<std::string, std::set<TypeId>>;

/// Violations for one plan node's own parameters (pred / anchor / patterns),
/// checked against the types of the collections scanned in its subtree.
/// Does not recurse into children; unknown collections are skipped (the lint
/// pass reports those separately as AQL012). Collections are walked only
/// when a parameter reads an attribute the schema declares computed
/// somewhere, and only on their first use in `memo`; a plan walk passes
/// the same memo to every node.
std::vector<lint::Diagnostic> PlanNodeStoredAttrViolations(
    const Database& db, const PlanRef& node, CollectionTypeMemo* memo);

}  // namespace aqua

#endif  // AQUA_QUERY_VALIDATE_H_
