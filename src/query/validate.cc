#include "query/validate.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace aqua {

namespace {

void CollectListPatternPreds(const ListPattern& lp,
                             std::vector<PredicateRef>* out);

void CollectTreePatternPreds(const TreePattern& tp,
                             std::vector<PredicateRef>* out) {
  switch (tp.kind()) {
    case TreePattern::Kind::kLeaf:
      if (tp.pred() != nullptr) out->push_back(tp.pred());
      return;
    case TreePattern::Kind::kNode:
      if (tp.pred() != nullptr) out->push_back(tp.pred());
      CollectListPatternPreds(*tp.children(), out);
      return;
    case TreePattern::Kind::kPoint:
      return;
    default:
      for (const auto& part : tp.alts()) {
        CollectTreePatternPreds(*part, out);
      }
      return;
  }
}

void CollectListPatternPreds(const ListPattern& lp,
                             std::vector<PredicateRef>* out) {
  switch (lp.kind()) {
    case ListPattern::Kind::kPred:
      out->push_back(lp.pred());
      return;
    case ListPattern::Kind::kTreeAtom:
      CollectTreePatternPreds(*lp.tree_atom(), out);
      return;
    case ListPattern::Kind::kAny:
    case ListPattern::Kind::kPoint:
      return;
    default:
      for (const auto& part : lp.parts()) {
        CollectListPatternPreds(*part, out);
      }
      return;
  }
}

void AddCellType(const StoreView& store, const NodePayload& p,
                 std::set<TypeId>* types) {
  if (!p.is_cell()) return;
  auto obj = store.Get(p.oid());
  if (obj.ok()) types->insert((*obj)->type());
}

/// The types of the objects a collection's cells contain, read in place
/// from its node storage. A type set ignores order, so a tree is read in
/// arena order; `Tree::Validate` guarantees the arena holds exactly the
/// reachable nodes.
std::set<TypeId> CellTypes(const StoreView& store, const Tree& tree) {
  AQUA_OBS_COUNT("lint.collection_walks", 1);
  std::set<TypeId> types;
  for (NodeId v = 0; v < tree.size(); ++v) {
    AddCellType(store, tree.payload(v), &types);
  }
  return types;
}

std::set<TypeId> CellTypes(const StoreView& store, const List& list) {
  AQUA_OBS_COUNT("lint.collection_walks", 1);
  std::set<TypeId> types;
  for (const NodePayload& p : list.elems()) AddCellType(store, p, &types);
  return types;
}

/// True when some predicate reads an attribute that a schema type declares
/// computed. Only then can a violation exist, so the checks below consult
/// this before walking any collection.
bool ReadsComputedAttr(const Schema& schema,
                       const std::vector<PredicateRef>& preds) {
  std::vector<std::string> attrs;
  for (const PredicateRef& pred : preds) {
    if (pred != nullptr) pred->CollectAttrs(&attrs);
  }
  return std::any_of(
      attrs.begin(), attrs.end(),
      [&schema](const std::string& attr) {
        return schema.IsComputedAttr(attr);
      });
}

/// The comparison node that reads `attr`, for span attribution.
const Predicate* FindCompareOnAttr(const Predicate& pred,
                                   const std::string& attr) {
  if (pred.kind() == Predicate::Kind::kCompare) {
    return pred.attr() == attr ? &pred : nullptr;
  }
  if (pred.left() != nullptr) {
    if (const Predicate* hit = FindCompareOnAttr(*pred.left(), attr)) {
      return hit;
    }
  }
  if (pred.right() != nullptr) {
    return FindCompareOnAttr(*pred.right(), attr);
  }
  return nullptr;
}

/// A predicate is admissible when every attribute it reads is *stored* in
/// every present type that declares it. Types without the attribute are
/// fine — the predicate simply never matches those objects (§3.1). Each
/// violation becomes one AQL011 diagnostic.
void CollectPredicateViolations(const Schema& schema,
                                const std::set<TypeId>& types,
                                const Predicate& pred,
                                std::vector<lint::Diagnostic>* out) {
  std::vector<std::string> attrs;
  pred.CollectAttrs(&attrs);
  for (const std::string& attr : attrs) {
    for (TypeId type : types) {
      auto def = schema.GetType(type);
      if (!def.ok() || !(*def)->HasAttr(attr)) continue;
      auto idx = (*def)->AttrIndex(attr);
      if (!idx.ok()) continue;
      if (!(*def)->attrs()[*idx].stored) {
        lint::Diagnostic d;
        d.code = lint::DiagCode::kComputedAttribute;
        d.severity = lint::DefaultSeverity(d.code);
        d.message =
            "alphabet-predicates may only use stored attributes (§3.1): '" +
            attr + "' is computed in type '" + (*def)->name() + "'";
        if (const Predicate* site = FindCompareOnAttr(pred, attr)) {
          d.span = site->span();
        }
        out->push_back(std::move(d));
        break;  // one diagnostic per attribute, not per type
      }
    }
  }
}

void CollectPredsViolations(const Schema& schema,
                            const std::set<TypeId>& types,
                            const std::vector<PredicateRef>& preds,
                            std::vector<lint::Diagnostic>* out) {
  for (const PredicateRef& pred : preds) {
    if (pred == nullptr) continue;
    CollectPredicateViolations(schema, types, *pred, out);
  }
}

/// First violation as the legacy Status (message text unchanged).
Status FirstViolationStatus(const std::vector<lint::Diagnostic>& diags) {
  if (diags.empty()) return Status::OK();
  return Status::InvalidArgument(diags.front().message);
}

void CollectScanCollections(const PlanRef& node,
                            std::vector<std::string>* out) {
  if (node == nullptr) return;
  if (node->op == PlanOp::kScanTree || node->op == PlanOp::kScanList ||
      node->op == PlanOp::kIndexedSubSelect ||
      node->op == PlanOp::kIndexedListSubSelect) {
    out->push_back(node->collection);
  }
  for (const PlanRef& child : node->children) {
    CollectScanCollections(child, out);
  }
}

/// The types in collection `name`, walked at most once per memo. Unknown
/// collections are NotFound and not memoized.
Result<const std::set<TypeId>*> TypesInCollection(const Database& db,
                                                  const std::string& name,
                                                  CollectionTypeMemo* memo) {
  auto it = memo->find(name);
  if (it != memo->end()) return &it->second;
  std::set<TypeId> types;
  if (db.HasTree(name)) {
    AQUA_ASSIGN_OR_RETURN(const Tree* tree, db.GetTree(name));
    types = CellTypes(db.store(), *tree);
  } else {
    AQUA_ASSIGN_OR_RETURN(const List* list, db.GetList(name));
    types = CellTypes(db.store(), *list);
  }
  return &memo->emplace(name, std::move(types)).first->second;
}

std::vector<PredicateRef> NodeParameterPreds(const PlanNode& node) {
  std::vector<PredicateRef> preds;
  if (node.pred != nullptr) preds.push_back(node.pred);
  if (node.anchor != nullptr) preds.push_back(node.anchor);
  if (node.tpattern != nullptr) CollectTreePatternPreds(*node.tpattern, &preds);
  if (node.lpattern.body != nullptr) {
    CollectListPatternPreds(*node.lpattern.body, &preds);
  }
  return preds;
}

Status ValidateSubplan(const Database& db, const PlanRef& node,
                       CollectionTypeMemo* memo) {
  if (node == nullptr) return Status::InvalidArgument("null plan");
  AQUA_RETURN_IF_ERROR(
      FirstViolationStatus(PlanNodeStoredAttrViolations(db, node, memo)));
  for (const PlanRef& child : node->children) {
    AQUA_RETURN_IF_ERROR(ValidateSubplan(db, child, memo));
  }
  return Status::OK();
}

}  // namespace

std::vector<lint::Diagnostic> TreePatternStoredAttrViolations(
    const StoreView& store, const Tree& tree, const TreePatternRef& tp) {
  std::vector<lint::Diagnostic> out;
  if (tp == nullptr) return out;
  std::vector<PredicateRef> preds;
  CollectTreePatternPreds(*tp, &preds);
  if (!ReadsComputedAttr(store.schema(), preds)) return out;
  CollectPredsViolations(store.schema(), CellTypes(store, tree), preds, &out);
  return out;
}

std::vector<lint::Diagnostic> ListPatternStoredAttrViolations(
    const StoreView& store, const List& list, const AnchoredListPattern& lp) {
  std::vector<lint::Diagnostic> out;
  if (lp.body == nullptr) return out;
  std::vector<PredicateRef> preds;
  CollectListPatternPreds(*lp.body, &preds);
  if (!ReadsComputedAttr(store.schema(), preds)) return out;
  CollectPredsViolations(store.schema(), CellTypes(store, list), preds, &out);
  return out;
}

std::vector<lint::Diagnostic> PlanNodeStoredAttrViolations(
    const Database& db, const PlanRef& node, CollectionTypeMemo* memo) {
  std::vector<lint::Diagnostic> out;
  if (node == nullptr) return out;
  std::vector<PredicateRef> preds = NodeParameterPreds(*node);
  const Schema& schema = db.store().schema();
  if (!ReadsComputedAttr(schema, preds)) return out;
  // The types the parameters are evaluated against: everything in the
  // collections scanned below the node (and by it, for physical index ops).
  std::vector<std::string> collections;
  CollectScanCollections(node, &collections);
  std::set<TypeId> types;
  for (const std::string& name : collections) {
    Result<const std::set<TypeId>*> in_coll =
        TypesInCollection(db, name, memo);
    if (!in_coll.ok()) continue;  // unknown collection: AQL012's job
    types.insert((*in_coll)->begin(), (*in_coll)->end());
  }
  CollectPredsViolations(schema, types, preds, &out);
  return out;
}

Status ValidateTreePatternAgainst(const StoreView& store, const Tree& tree,
                                  const TreePatternRef& tp) {
  if (tp == nullptr) return Status::InvalidArgument("null tree pattern");
  return FirstViolationStatus(TreePatternStoredAttrViolations(store, tree, tp));
}

Status ValidateListPatternAgainst(const StoreView& store, const List& list,
                                  const AnchoredListPattern& lp) {
  if (lp.body == nullptr) return Status::InvalidArgument("null list pattern");
  return FirstViolationStatus(
      ListPatternStoredAttrViolations(store, list, lp));
}

Status ValidatePlanPatterns(const Database& db, const PlanRef& plan) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  // Unknown collections stay hard errors here, unlike the lint pass, and
  // precede any violation — even where no predicate needs the walk.
  std::vector<std::string> collections;
  CollectScanCollections(plan, &collections);
  for (const std::string& name : collections) {
    if (!db.HasTree(name)) {
      AQUA_RETURN_IF_ERROR(db.GetList(name).status());
    }
  }
  CollectionTypeMemo memo;
  return ValidateSubplan(db, plan, &memo);
}

}  // namespace aqua
