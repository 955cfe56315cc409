#include "lint/pattern_lint.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "lint/automaton.h"
#include "lint/interval.h"

namespace aqua::lint {

namespace {

using LKind = ListPattern::Kind;
using TKind = TreePattern::Kind;

bool EmptyT(const TreePattern& t);

/// AST-level language emptiness (conservative: `true` is a proof).
bool EmptyL(const ListPattern& p) {
  switch (p.kind()) {
    case LKind::kPred:
      return AnalyzePredicateSat(p.pred()) == PredSat::kUnsatisfiable;
    case LKind::kAny:
    case LKind::kPoint:
      return false;
    case LKind::kConcat:
      return std::any_of(p.parts().begin(), p.parts().end(),
                         [](const ListPatternRef& q) { return EmptyL(*q); });
    case LKind::kAlt:
      return std::all_of(p.parts().begin(), p.parts().end(),
                         [](const ListPatternRef& q) { return EmptyL(*q); });
    case LKind::kStar:
      return false;  // always contains ε
    case LKind::kPlus:
    case LKind::kPrune:
      return EmptyL(*p.inner());
    case LKind::kTreeAtom:
      return EmptyT(*p.tree_atom());
  }
  return false;
}

bool EmptyT(const TreePattern& t) {
  switch (t.kind()) {
    case TKind::kLeaf:
      return t.pred() != nullptr &&
             AnalyzePredicateSat(t.pred()) == PredSat::kUnsatisfiable;
    case TKind::kNode:
      // The children sequence must match the node's *entire* child list; an
      // empty children language admits no node at all.
      if (t.pred() != nullptr &&
          AnalyzePredicateSat(t.pred()) == PredSat::kUnsatisfiable) {
        return true;
      }
      return EmptyL(*t.children());
    case TKind::kPoint:
      return false;
    case TKind::kAlt:
      return std::all_of(t.alts().begin(), t.alts().end(),
                         [](const TreePatternRef& q) { return EmptyT(*q); });
    case TKind::kConcatAt:
      return EmptyT(*t.first());
    case TKind::kStarAt:
    case TKind::kPlusAt:
    case TKind::kRootAnchor:
    case TKind::kLeafAnchor:
    case TKind::kPrune:
      return EmptyT(*t.inner());
  }
  return false;
}

/// Language ⊆ {ε}: the pattern can match at most the empty sequence.
bool OnlyEmptyL(const ListPattern& p) {
  switch (p.kind()) {
    case LKind::kConcat:
      return std::all_of(
          p.parts().begin(), p.parts().end(),
          [](const ListPatternRef& q) { return OnlyEmptyL(*q); });
    case LKind::kAlt:
      return std::all_of(
          p.parts().begin(), p.parts().end(),
          [](const ListPatternRef& q) { return OnlyEmptyL(*q); });
    case LKind::kStar:
    case LKind::kPlus:
    case LKind::kPrune:
      return OnlyEmptyL(*p.inner());
    case LKind::kPred:
    case LKind::kAny:
    case LKind::kPoint:
    case LKind::kTreeAtom:
      // Single-element atoms never contain ε; ⊆ {ε} iff the language is
      // empty outright.
      return EmptyL(p);
  }
  return false;
}

/// Language ⊇ Σ: matches any single element.
bool CoversAnyElement(const ListPattern& p) {
  switch (p.kind()) {
    case LKind::kAny:
      return true;
    case LKind::kPred:
      return AnalyzePredicateSat(p.pred()) == PredSat::kTautological;
    case LKind::kAlt:
      return std::any_of(
          p.parts().begin(), p.parts().end(),
          [](const ListPatternRef& q) { return CoversAnyElement(*q); });
    case LKind::kPrune:
      return CoversAnyElement(*p.inner());
    default:
      return false;
  }
}

/// Language ⊇ Σ*: matches every sequence.
bool CoversEverySequence(const ListPattern& p) {
  switch (p.kind()) {
    case LKind::kStar:
      return CoversAnyElement(*p.inner()) || CoversEverySequence(*p.inner());
    case LKind::kConcat:
      return !p.parts().empty() &&
             std::all_of(
                 p.parts().begin(), p.parts().end(),
                 [](const ListPatternRef& q) { return CoversEverySequence(*q); });
    case LKind::kAlt:
      return std::any_of(
          p.parts().begin(), p.parts().end(),
          [](const ListPatternRef& q) { return CoversEverySequence(*q); });
    case LKind::kPrune:
      return CoversEverySequence(*p.inner());
    default:
      return false;
  }
}

class PatternLinter {
 public:
  PatternLinter(const PatternLintOptions& opts, std::vector<Diagnostic>* out)
      : opts_(opts), out_(out) {}

  void LintAnchored(const AnchoredListPattern& lp) {
    if (lp.body == nullptr) return;
    if (opts_.query_level) {
      AutomatonFacts facts =
          AnalyzeListPatternAutomaton(lp.body, opts_.automata);
      bool empty = facts.compiled ? facts.language_empty : EmptyL(*lp.body);
      if (empty) {
        Emit(DiagCode::kEmptyPattern,
             "pattern language is empty: no list can ever match",
             lp.body->span());
      } else if (!lp.anchor_begin && !lp.anchor_end && lp.body->Nullable()) {
        Emit(DiagCode::kVacuousPattern,
             "unanchored pattern matches the empty sublist, so it matches "
             "somewhere in every list; anchor it (^ / $) or require at "
             "least one element",
             lp.body->span());
      } else if (CoversEverySequence(*lp.body)) {
        Emit(DiagCode::kVacuousPattern, "pattern matches every list",
             lp.body->span());
      }
      if (lp.body->kind() == LKind::kPrune) {
        Emit(DiagCode::kIneffectivePrune,
             "the entire match is pruned: every matched sublist is cut away",
             lp.body->span());
      }
      size_t before = out_->size();
      WalkList(lp.body);
      // Automaton backstop: a live ε-cycle not already explained by a
      // closure-over-nullable finding.
      bool reported = std::any_of(
          out_->begin() + static_cast<long>(before), out_->end(),
          [](const Diagnostic& d) {
            return d.code == DiagCode::kDivergentClosure;
          });
      if (facts.compiled && facts.has_live_eps_cycle && !reported) {
        Emit(DiagCode::kDivergentClosure,
             "the pattern's automaton has a live ε-cycle: matching can "
             "re-derive the same empty iteration forever",
             lp.body->span());
      }
      return;
    }
    WalkList(lp.body);
  }

  void LintTree(const TreePatternRef& tp) {
    if (tp == nullptr) return;
    if (opts_.query_level) {
      if (EmptyT(*tp)) {
        Emit(DiagCode::kEmptyPattern,
             "tree pattern language is empty: no tree can ever match",
             tp->span());
      } else {
        // Unwrap ⊤ only: `?$` (leaf-anchored any) genuinely restricts.
        const TreePattern* core = tp.get();
        while (core->kind() == TKind::kRootAnchor) core = core->inner().get();
        if (core->kind() == TKind::kLeaf && core->is_any()) {
          Emit(DiagCode::kVacuousPattern,
               "the any-leaf pattern `?` matches at every node of every tree",
               tp->span());
        }
      }
      const TreePattern* core = tp.get();
      while (core->kind() == TKind::kRootAnchor ||
             core->kind() == TKind::kLeafAnchor) {
        core = core->inner().get();
      }
      if (core->kind() == TKind::kPrune) {
        Emit(DiagCode::kIneffectivePrune,
             "the entire match is pruned: every matched subtree is cut away",
             tp->span());
      }
    }
    WalkTree(tp, /*at_root=*/true);
  }

 private:
  void Emit(DiagCode code, std::string msg, SourceSpan span) {
    Diagnostic d;
    d.code = code;
    d.severity = DefaultSeverity(code);
    d.message = std::move(msg);
    d.span = span;
    d.source = opts_.source;
    out_->push_back(std::move(d));
  }

  /// Reports the smallest unsatisfiable subtrees of a predicate; returns
  /// true when anything under `p` (or `p` itself) was reported.
  bool LintPredicate(const PredicateRef& p, SourceSpan fallback) {
    if (p == nullptr) return false;
    bool in_child = false;
    if (p->kind() == Predicate::Kind::kAnd ||
        p->kind() == Predicate::Kind::kOr ||
        p->kind() == Predicate::Kind::kNot) {
      bool l = LintPredicate(p->left(), fallback);
      bool r = LintPredicate(p->right(), fallback);
      in_child = l || r;
    }
    if (in_child) return true;
    if (AnalyzePredicateSat(p) == PredSat::kUnsatisfiable) {
      Emit(DiagCode::kContradictoryPredicate,
           "predicate " + p->ToString() +
               " is unsatisfiable: it is false for every object",
           p->span().valid() ? p->span() : fallback);
      return true;
    }
    return false;
  }

  void WalkList(const ListPatternRef& p) {
    switch (p->kind()) {
      case LKind::kPred:
        LintPredicate(p->pred(), p->span());
        return;
      case LKind::kAny:
      case LKind::kPoint:
        return;
      case LKind::kConcat:
        for (const ListPatternRef& part : p->parts()) WalkList(part);
        return;
      case LKind::kAlt: {
        std::set<std::string> seen;
        for (const ListPatternRef& part : p->parts()) {
          if (EmptyL(*part)) {
            Emit(DiagCode::kDeadAltBranch,
                 "alternation branch can never match", part->span());
          } else if (!seen.insert(part->ToString()).second) {
            Emit(DiagCode::kDeadAltBranch,
                 "alternation branch duplicates an earlier branch",
                 part->span());
          }
          WalkList(part);
        }
        return;
      }
      case LKind::kStar:
      case LKind::kPlus:
        if (p->inner()->Nullable()) {
          Emit(DiagCode::kDivergentClosure,
               "closure over a pattern that matches the empty sequence "
               "diverges: the empty iteration can repeat forever",
               p->span());
        }
        WalkList(p->inner());
        return;
      case LKind::kPrune:
        if (p->inner()->kind() == LKind::kPrune) {
          Emit(DiagCode::kIneffectivePrune, "nested prune `!!` is redundant",
               p->span());
        } else if (OnlyEmptyL(*p->inner()) && !EmptyL(*p->inner())) {
          Emit(DiagCode::kIneffectivePrune,
               "prune of a pattern that only matches the empty sequence "
               "removes nothing",
               p->span());
        }
        WalkList(p->inner());
        return;
      case LKind::kTreeAtom:
        WalkTree(p->tree_atom(), /*at_root=*/false);
        return;
    }
  }

  void WalkTree(const TreePatternRef& t, bool at_root) {
    switch (t->kind()) {
      case TKind::kLeaf:
        if (t->pred() != nullptr) LintPredicate(t->pred(), t->span());
        return;
      case TKind::kNode:
        if (t->pred() != nullptr) LintPredicate(t->pred(), t->span());
        WalkList(t->children());
        return;
      case TKind::kPoint:
        return;
      case TKind::kAlt: {
        std::set<std::string> seen;
        for (const TreePatternRef& part : t->alts()) {
          if (EmptyT(*part)) {
            Emit(DiagCode::kDeadAltBranch,
                 "alternation branch can never match", part->span());
          } else if (!seen.insert(part->ToString()).second) {
            Emit(DiagCode::kDeadAltBranch,
                 "alternation branch duplicates an earlier branch",
                 part->span());
          }
          WalkTree(part, at_root);
        }
        return;
      }
      case TKind::kConcatAt:
        if (!t->first()->HasFreePoint(t->label())) {
          Emit(DiagCode::kPointArityMismatch,
               "left operand of concatenation at @" + t->label() +
                   " has no free point @" + t->label() +
                   ": the concatenation is the identity and the right "
                   "operand is dead (§3.3)",
               t->span());
        }
        WalkTree(t->first(), at_root);
        WalkTree(t->second(), /*at_root=*/false);
        return;
      case TKind::kStarAt:
      case TKind::kPlusAt:
        if (t->inner()->kind() == TKind::kPoint &&
            t->inner()->label() == t->label()) {
          Emit(DiagCode::kDivergentClosure,
               "closure at @" + t->label() + " over the bare point @" +
                   t->label() + " diverges: each iteration substitutes "
                   "itself",
               t->span());
        } else if (!t->inner()->HasFreePoint(t->label())) {
          Emit(DiagCode::kPointArityMismatch,
               "closure at @" + t->label() +
                   " over a pattern with no free point @" + t->label() +
                   " degenerates to a single iteration",
               t->span());
        }
        WalkTree(t->inner(), at_root);
        return;
      case TKind::kRootAnchor:
        if (!at_root) {
          Emit(DiagCode::kUnreachableAnchor,
               "root anchor (^ / ⊤) below the pattern root can never match",
               t->span());
        }
        WalkTree(t->inner(), at_root);
        return;
      case TKind::kLeafAnchor:
        WalkTree(t->inner(), at_root);
        return;
      case TKind::kPrune:
        if (t->inner()->kind() == TKind::kPrune) {
          Emit(DiagCode::kIneffectivePrune, "nested prune `!!` is redundant",
               t->span());
        }
        WalkTree(t->inner(), at_root);
        return;
    }
  }

  const PatternLintOptions& opts_;
  std::vector<Diagnostic>* out_;
};

}  // namespace

std::vector<Diagnostic> LintListPattern(const AnchoredListPattern& lp,
                                        const PatternLintOptions& opts) {
  std::vector<Diagnostic> out;
  PatternLinter(opts, &out).LintAnchored(lp);
  return out;
}

std::vector<Diagnostic> LintTreePattern(const TreePatternRef& tp,
                                        const PatternLintOptions& opts) {
  std::vector<Diagnostic> out;
  PatternLinter(opts, &out).LintTree(tp);
  return out;
}

bool ListPatternProvablyEmpty(const ListPatternRef& body,
                              AutomatonMemo* automata) {
  if (body == nullptr) return false;
  AutomatonFacts facts = AnalyzeListPatternAutomaton(body, automata);
  if (facts.compiled) return facts.language_empty;
  return EmptyL(*body);
}

bool TreePatternProvablyEmpty(const TreePatternRef& tp) {
  return tp != nullptr && EmptyT(*tp);
}

}  // namespace aqua::lint
