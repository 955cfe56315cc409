#include "lint/absint.h"

#include <algorithm>
#include <utility>

#include "lint/effects.h"
#include "lint/interval.h"
#include "lint/pattern_lint.h"
#include "obs/metrics.h"

namespace aqua::lint {

namespace {

uint64_t MinU(uint64_t a, uint64_t b) { return a < b ? a : b; }

bool RequiresTreeElems(PlanOp op) {
  switch (op) {
    case PlanOp::kTreeSelect:
    case PlanOp::kTreeApply:
    case PlanOp::kTreeSubSelect:
    case PlanOp::kTreeSplit:
    case PlanOp::kTreeAllAnc:
    case PlanOp::kTreeAllDesc:
      return true;
    default:
      return false;
  }
}

bool RequiresListElems(PlanOp op) {
  switch (op) {
    case PlanOp::kListSelect:
    case PlanOp::kListApply:
    case PlanOp::kListSubSelect:
    case PlanOp::kListSplit:
    case PlanOp::kListAllAnc:
    case PlanOp::kListAllDesc:
      return true;
    default:
      return false;
  }
}

bool IsApplyOp(PlanOp op) {
  return op == PlanOp::kTreeApply || op == PlanOp::kListApply;
}

/// Cardinality of an apply's output given its input. An isomorphic map
/// keeps a single collection single; over a *set* input the images are
/// re-inserted into a set, so a non-injective expression may collapse
/// distinct inputs onto one image: the lower bound drops to one.
CardInterval ApplyCard(const PlanFacts& in, const FnExprRef& expr) {
  if (!in.is_set) return in.card;
  if (in.card.provably_empty()) return CardInterval::Empty();
  if (expr != nullptr && expr->kind() == FnExpr::Kind::kIdentity) {
    return in.card;  // injective: the set maps onto itself
  }
  CardInterval out;
  out.lo = MinU(in.card.lo, 1);
  if (expr != nullptr && expr->kind() == FnExpr::Kind::kConst) {
    // Every cell maps to the same oid, so every input collection maps to
    // the same collection: the set holds at most one element.
    out.hi = MinU(in.card.hi, 1);
  } else {
    out.hi = in.card.hi;
  }
  return out;
}

/// The abstract interpreter: one bottom-up pass assigning `PlanFacts` to
/// every node and emitting AQL013–AQL019 along the way.
class AbsInterpreter {
 public:
  AbsInterpreter(const Database& db, std::string pattern_source,
                 AutomatonMemo* automata, AbsIntResult* out)
      : db_(db),
        pattern_source_(std::move(pattern_source)),
        automata_(automata),
        out_(out) {}

  PlanFacts Walk(const PlanRef& node) {
    if (node == nullptr) return PlanFacts{};
    PlanFacts in;  // facts of the (first) input, defaults when a leaf
    bool has_input = !node->children.empty() && node->children[0] != nullptr;
    if (has_input) in = Walk(node->children[0]);
    PlanFacts facts = Transfer(*node, in, has_input);
    Diagnose(*node, in, has_input, facts);
    out_->facts.emplace(node.get(), facts);
    return facts;
  }

 private:
  void Emit(const PlanNode& node, DiagCode code, std::string msg,
            SourceSpan span = {}) {
    Diagnostic d;
    d.code = code;
    d.severity = DefaultSeverity(code);
    d.message = std::move(msg);
    d.span = span;
    d.source = pattern_source_;
    d.context = PlanOpToString(node.op);
    out_->diags.push_back(std::move(d));
  }

  /// Facts of a scan leaf over `collection` expected to hold a tree/list.
  /// Unknown collections (AQL012 territory) get conservative defaults.
  PlanFacts ScanFacts(const std::string& collection, bool wants_tree) const {
    PlanFacts f;
    f.is_set = false;
    f.card = CardInterval::Exact(1);
    if (wants_tree) {
      f.elem = ElemKind::kTree;
      if (auto tree = db_.GetTree(collection); tree.ok()) {
        f.nodes_hi = static_cast<uint64_t>((*tree)->size());
      }
    } else {
      f.elem = ElemKind::kList;
      if (auto list = db_.GetList(collection); list.ok()) {
        f.nodes_hi = static_cast<uint64_t>((*list)->size());
      }
    }
    return f;
  }

  /// The transfer function: output facts of `node` from its input facts.
  PlanFacts Transfer(const PlanNode& node, const PlanFacts& in,
                     bool has_input) {
    PlanFacts out;
    switch (node.op) {
      case PlanOp::kScanTree:
        return ScanFacts(node.collection, /*wants_tree=*/true);
      case PlanOp::kScanList:
        return ScanFacts(node.collection, /*wants_tree=*/false);
      case PlanOp::kEmptySet:
        out.is_set = true;
        out.elem = ElemKind::kNone;
        out.card = CardInterval::Empty();
        out.nodes_hi = 0;
        return out;
      case PlanOp::kEmptyList:
        // One list with no cells — a real (single) collection.
        out.is_set = false;
        out.elem = ElemKind::kList;
        out.card = CardInterval::Exact(1);
        out.nodes_hi = 0;
        return out;

      case PlanOp::kTreeSelect: {
        // Forest result: the maximal selected subtrees of every input tree.
        out.is_set = true;
        out.elem = ElemKind::kTree;
        out.nodes_hi = in.nodes_hi;
        if (in.card.provably_empty()) {
          out.card = CardInterval::Empty();
          out.nodes_hi = 0;
          return out;
        }
        switch (AnalyzePredicateSat(node.pred)) {
          case PredSat::kUnsatisfiable:
            out.card = CardInterval::Empty();
            out.nodes_hi = 0;
            break;
          case PredSat::kTautological:
            // Every tree survives whole; set insertion of already
            // duplicate-free inputs keeps the count.
            out.card = in.card;
            break;
          case PredSat::kSatisfiable:
            // Each selected subtree is rooted at a distinct input node.
            out.card = in.nodes_hi == CardInterval::kUnbounded
                           ? CardInterval::Unknown()
                           : CardInterval::AtMost(in.nodes_hi);
            break;
        }
        return out;
      }

      case PlanOp::kListSelect: {
        // Filters cells within each list: one (possibly empty) list per
        // input list.
        out.is_set = in.is_set;
        out.elem = ElemKind::kList;
        out.nodes_hi = in.nodes_hi;
        if (in.card.provably_empty()) {
          out.card = CardInterval::Empty();
          out.nodes_hi = 0;
          return out;
        }
        switch (AnalyzePredicateSat(node.pred)) {
          case PredSat::kUnsatisfiable:
            // Every list filters to the empty list; a set input collapses
            // onto that one element.
            out.card = in.is_set
                           ? CardInterval{MinU(in.card.lo, 1),
                                          MinU(in.card.hi, 1)}
                           : in.card;
            out.nodes_hi = 0;
            break;
          case PredSat::kTautological:
            out.card = in.card;
            break;
          case PredSat::kSatisfiable:
            // Distinct lists may filter to the same list.
            out.card = in.is_set
                           ? CardInterval{MinU(in.card.lo, 1), in.card.hi}
                           : in.card;
            break;
        }
        return out;
      }

      case PlanOp::kTreeApply:
      case PlanOp::kListApply: {
        // Isomorphic map: shape and node counts carry over.
        out.is_set = in.is_set;
        out.elem =
            node.op == PlanOp::kTreeApply ? ElemKind::kTree : ElemKind::kList;
        out.card = has_input ? ApplyCard(in, node.fn_expr)
                             : CardInterval::Unknown();
        out.nodes_hi = in.nodes_hi;
        out.effect = NodeFnEffect(node);
        out.parallel_certified =
            NodeParallelCertified(node) || NodeSnapshotWriteCertified(node);
        if (in.card.provably_empty()) out.nodes_hi = 0;
        return out;
      }

      case PlanOp::kTreeSubSelect:
      case PlanOp::kIndexedSubSelect: {
        out.is_set = true;
        out.elem = ElemKind::kTree;
        PlanFacts base = node.op == PlanOp::kIndexedSubSelect
                             ? ScanFacts(node.collection, /*wants_tree=*/true)
                             : in;
        bool dead = base.card.provably_empty() ||
                    TreePatternProvablyEmpty(node.tpattern) ||
                    (node.anchor != nullptr &&
                     AnalyzePredicateSat(node.anchor) ==
                         PredSat::kUnsatisfiable);
        if (dead) {
          out.card = CardInterval::Empty();
          out.nodes_hi = 0;
          return out;
        }
        // Each matching subgraph is rooted at a distinct node, but the
        // pieces may overlap — the total cell count is unbounded.
        out.card = base.nodes_hi == CardInterval::kUnbounded
                       ? CardInterval::Unknown()
                       : CardInterval::AtMost(base.nodes_hi);
        return out;
      }

      case PlanOp::kListSubSelect:
      case PlanOp::kIndexedListSubSelect: {
        out.is_set = true;
        out.elem = ElemKind::kList;
        PlanFacts base =
            node.op == PlanOp::kIndexedListSubSelect
                ? ScanFacts(node.collection, /*wants_tree=*/false)
                : in;
        bool dead = base.card.provably_empty() ||
                    ListPatternProvablyEmpty(node.lpattern.body, automata_) ||
                    (node.anchor != nullptr &&
                     AnalyzePredicateSat(node.anchor) ==
                         PredSat::kUnsatisfiable);
        if (dead) {
          out.card = CardInterval::Empty();
          out.nodes_hi = 0;
        }
        // Matching sublists are (start, end) ranges: quadratically many.
        return out;
      }

      case PlanOp::kTreeSplit:
      case PlanOp::kTreeAllAnc:
      case PlanOp::kTreeAllDesc: {
        out.is_set = true;
        out.elem = ElemKind::kUnknown;  // f builds arbitrary datums
        out.effect = NodeFnEffect(node);
        if (in.card.provably_empty() ||
            TreePatternProvablyEmpty(node.tpattern)) {
          out.card = CardInterval::Empty();
          out.nodes_hi = 0;
        }
        return out;
      }
      case PlanOp::kListSplit:
      case PlanOp::kListAllAnc:
      case PlanOp::kListAllDesc: {
        out.is_set = true;
        out.elem = ElemKind::kUnknown;
        out.effect = NodeFnEffect(node);
        if (in.card.provably_empty() ||
            ListPatternProvablyEmpty(node.lpattern.body, automata_)) {
          out.card = CardInterval::Empty();
          out.nodes_hi = 0;
        }
        return out;
      }
    }
    return out;
  }

  /// AQL013–AQL018: per-node findings against the computed facts.
  void Diagnose(const PlanNode& node, const PlanFacts& in, bool has_input,
                const PlanFacts& facts) {
    // AQL013: the *flow* delivers elements of the wrong kind. Direct scan
    // mismatches stay AQL010 (operator-param-mismatch) in the base linter;
    // this rule fires on derived inputs, where only the inferred element
    // kind reveals the contradiction.
    if (has_input && node.children[0]->op != PlanOp::kScanTree &&
        node.children[0]->op != PlanOp::kScanList) {
      const char* from = PlanOpToString(node.children[0]->op);
      if (RequiresTreeElems(node.op) && in.elem == ElemKind::kList) {
        Emit(node, DiagCode::kKindFlowMismatch,
             std::string("tree operator consumes lists: its input (") + from +
                 ") produces list elements");
      } else if (RequiresListElems(node.op) && in.elem == ElemKind::kTree) {
        Emit(node, DiagCode::kKindFlowMismatch,
             std::string("list operator consumes trees: its input (") + from +
                 ") produces tree elements");
      }
    }

    // AQL014: the input can never deliver an element. Fires at the first
    // consumer only — where the emptiness *originates* is AQL009's job.
    if (has_input && in.card.provably_empty() && !GrandchildEmpty(node)) {
      Emit(node, DiagCode::kEmptyInputFlow,
           std::string("operator input (") +
               PlanOpToString(node.children[0]->op) +
               ") is provably empty: this operator can never see an element");
    }

    // AQL015: a select that keeps everything. An explicit `true` predicate
    // is idiomatic "no filter"; a *derived* tautology is the surprise.
    if ((node.op == PlanOp::kTreeSelect || node.op == PlanOp::kListSelect) &&
        node.pred != nullptr && node.pred->kind() != Predicate::Kind::kTrue &&
        AnalyzePredicateSat(node.pred) == PredSat::kTautological) {
      Emit(node, DiagCode::kTautologicalSelect,
           "select predicate " + node.pred->ToString() +
               " is provably true of every object: the operator keeps "
               "everything",
           node.pred->span());
    }

    if (IsApplyOp(node.op)) {
      // AQL016/AQL017: degenerate structured expressions.
      if (node.fn_expr != nullptr) {
        if (node.fn_expr->kind() == FnExpr::Kind::kIdentity) {
          Emit(node, DiagCode::kIdentityApply,
               "apply maps every cell to itself: the operator is a no-op");
        } else if (node.fn_expr->kind() == FnExpr::Kind::kConst &&
                   in.is_set && in.card.hi > 1) {
          Emit(node, DiagCode::kConstantApplyCollapse,
               "constant apply over a set input: every collection maps to "
               "the same image, so set insertion collapses the result to at "
               "most one element (input card " +
                   in.card.ToString() + ")");
        }
      }
      // AQL018/AQL021: why this apply runs serial. An opaque function is
      // AQL018 (nothing to analyze); a structured store-writing expression
      // that failed the snapshot order-dependence analysis is AQL021, with
      // the conflict witness (store-writing expressions that *pass* are
      // certified for the snapshot-delta parallel path and emit nothing).
      if (!facts.parallel_certified) {
        if (node.fn_expr == nullptr) {
          Emit(node, DiagCode::kUncertifiedSerialFn,
               "apply function is an opaque std::function: effects "
               "are unknown, so the apply runs serial (build it via "
               "TreeApplyExpr/ListApplyExpr to certify it)");
        } else {
          FnSnapshotSafety safety = FnExprSnapshotSafety(node.fn_expr);
          Emit(node, DiagCode::kSnapshotWriteConflict,
               "apply expression " + node.fn_expr->ToString() +
                   " writes the store with an order dependence (" +
                   safety.conflict +
                   "): a snapshot-parallel fold would diverge from serial, "
                   "so the apply runs serial");
        }
      }
    }
  }

  /// True when emptiness already held *below* `node`'s input — i.e. the
  /// input merely propagated it (dedups the AQL014 cascade).
  bool GrandchildEmpty(const PlanNode& node) const {
    for (const PlanRef& gc : node.children[0]->children) {
      if (gc == nullptr) continue;
      auto it = out_->facts.find(gc.get());
      if (it != out_->facts.end() && it->second.card.provably_empty()) {
        return true;
      }
    }
    return false;
  }

  const Database& db_;
  std::string pattern_source_;
  AutomatonMemo* automata_;
  AbsIntResult* out_;
};

void RenderNode(const AbsIntResult& result, const PlanRef& node, int depth,
                std::string* out) {
  if (node == nullptr) return;
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += DescribeNode(*node);
  auto it = result.facts.find(node.get());
  if (it != result.facts.end()) {
    *out += "  :: ";
    *out += it->second.ToString();
  }
  *out += '\n';
  for (const PlanRef& child : node->children) {
    RenderNode(result, child, depth + 1, out);
  }
}

}  // namespace

std::string CardInterval::ToString() const {
  if (lo == hi) return std::to_string(lo);
  if (hi == kUnbounded) return std::to_string(lo) + "..*";
  return std::to_string(lo) + ".." + std::to_string(hi);
}

const char* ElemKindToString(ElemKind kind) {
  switch (kind) {
    case ElemKind::kTree:
      return "trees";
    case ElemKind::kList:
      return "lists";
    case ElemKind::kNone:
      return "nothing";
    case ElemKind::kUnknown:
      return "data";
  }
  return "data";
}

std::string PlanFacts::ToString() const {
  std::string out = is_set ? "set of " : "single ";
  if (!is_set) {
    // Singular form for the one-collection shapes.
    switch (elem) {
      case ElemKind::kTree:
        out += "tree";
        break;
      case ElemKind::kList:
        out += "list";
        break;
      default:
        out += "collection";
        break;
    }
  } else {
    out += ElemKindToString(elem);
  }
  out += ", card " + card.ToString();
  if (nodes_hi != CardInterval::kUnbounded) {
    out += ", <=" + std::to_string(nodes_hi) + " nodes";
  }
  if (!duplicate_free) out += ", may-duplicate";
  if (!order_preserving) out += ", unordered";
  if (effect != FnEffect::kPure) {
    out += ", effect=";
    out += FnEffectToString(effect);
  }
  if (parallel_certified) out += ", parallel-certified";
  return out;
}

AbsIntResult AnalyzePlan(const Database& db, const PlanRef& plan,
                         const std::string& pattern_source,
                         AutomatonMemo* automata) {
  AbsIntResult result;
  AbsInterpreter interp(db, pattern_source, automata, &result);
  result.root = interp.Walk(plan);

  // AQL019: provable emptiness flowed all the way up. Only fires when a
  // direct child is already empty — emptiness originating at the root
  // itself is AQL009's finding.
  if (plan != nullptr && result.root.card.provably_empty() &&
      !plan->children.empty()) {
    for (const PlanRef& child : plan->children) {
      if (child == nullptr) continue;
      auto it = result.facts.find(child.get());
      if (it != result.facts.end() && it->second.card.provably_empty()) {
        Diagnostic d;
        d.code = DiagCode::kEmptyResultFlow;
        d.severity = DefaultSeverity(d.code);
        d.message =
            "provable emptiness reaches the plan root: the whole query "
            "returns no result";
        d.source = pattern_source;
        d.context = PlanOpToString(plan->op);
        result.diags.push_back(std::move(d));
        break;
      }
    }
  }

  AQUA_OBS_COUNT("lint.absint_facts", result.facts.size());
  return result;
}

std::vector<Diagnostic> CheckRewriteSafety(const Database& db,
                                           const PlanRef& before,
                                           const PlanRef& after,
                                           const std::string& rule_name) {
  std::vector<Diagnostic> out;
  AbsIntResult b = AnalyzePlan(db, before);
  AbsIntResult a = AnalyzePlan(db, after);
  auto emit = [&](std::string msg) {
    Diagnostic d;
    d.code = DiagCode::kUnsafeRewrite;
    d.severity = DefaultSeverity(d.code);
    d.message = std::move(msg);
    d.context = rule_name;
    out.push_back(std::move(d));
  };

  // Shape: a set-of-collections result must stay one. Folding to the
  // constant empty set/list keeps the shape by construction, so a mismatch
  // here is a genuine rule bug.
  if (b.root.is_set != a.root.is_set) {
    emit(std::string("rewrite changes the result shape: ") +
         (b.root.is_set ? "set" : "single collection") + " before, " +
         (a.root.is_set ? "set" : "single collection") + " after");
  }
  // Element kind: only contradictory when both sides prove a (different)
  // concrete kind; kNone (provably empty) and kUnknown are compatible with
  // anything.
  auto concrete = [](ElemKind k) {
    return k == ElemKind::kTree || k == ElemKind::kList;
  };
  if (concrete(b.root.elem) && concrete(a.root.elem) &&
      b.root.elem != a.root.elem) {
    emit(std::string("rewrite changes the element kind: ") +
         ElemKindToString(b.root.elem) + " before, " +
         ElemKindToString(a.root.elem) + " after");
  }
  // Cardinality: the intervals must overlap — a rewrite cannot change how
  // many collections the query returns.
  if (b.root.card.Disjoint(a.root.card)) {
    emit("rewrite contradicts the inferred cardinality: card " +
         b.root.card.ToString() + " before is disjoint from card " +
         a.root.card.ToString() + " after");
  }
  // Invariants the algebra guarantees must not be lost by a rule.
  if (b.root.duplicate_free && !a.root.duplicate_free) {
    emit("rewrite loses duplicate-freeness");
  }
  if (b.root.order_preserving && !a.root.order_preserving) {
    emit("rewrite loses order preservation");
  }
  return out;
}

std::string RenderFacts(const Database& db, const PlanRef& plan) {
  AbsIntResult result = AnalyzePlan(db, plan);
  std::string out;
  RenderNode(result, plan, 0, &out);
  return out;
}

}  // namespace aqua::lint
