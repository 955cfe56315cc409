#ifndef AQUA_BULK_NODE_H_
#define AQUA_BULK_NODE_H_

#include <functional>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/ids.h"

namespace aqua {

/// Payload of a list element or tree node.
///
/// Per §2 of the paper, the elements of a list or tree are of type
/// `Cell[T]`: a cell is a node with its own identity that *contains* the
/// identity of the actual element object, so the node set can be a set while
/// element objects may repeat. Per §3.5, a node may instead be a *labeled
/// NULL* (concatenation point): only the concatenation operator can observe
/// it.
class NodePayload {
 public:
  enum class Kind { kCell, kConcatPoint };

  /// A cell containing (the identity of) object `oid`.
  static NodePayload Cell(Oid oid) { return NodePayload(Kind::kCell, oid, ""); }

  /// A labeled NULL with concatenation-point label `label`.
  static NodePayload ConcatPoint(std::string label) {
    return NodePayload(Kind::kConcatPoint, Oid::Null(), std::move(label));
  }

  Kind kind() const { return kind_; }
  bool is_cell() const { return kind_ == Kind::kCell; }
  bool is_concat_point() const { return kind_ == Kind::kConcatPoint; }

  /// The referenced object; null Oid when this is a concat point.
  Oid oid() const { return oid_; }
  /// The concatenation-point label; empty when this is a cell.
  const std::string& label() const { return label_; }

  /// Payload equality: same kind and same oid/label. Note this compares the
  /// cell *contents* (shared object identity), not cell identity — cell
  /// identity is positional in this implementation.
  friend bool operator==(const NodePayload& a, const NodePayload& b) {
    return a.kind_ == b.kind_ && a.oid_ == b.oid_ && a.label_ == b.label_;
  }
  friend bool operator!=(const NodePayload& a, const NodePayload& b) {
    return !(a == b);
  }

  /// Hash consistent with `==`: covers the kind, the oid and the label.
  size_t Hash() const {
    size_t h = HashCombine(static_cast<size_t>(kind_), oid_.value);
    return label_.empty() ? h
                          : HashCombine(h, std::hash<std::string>{}(label_));
  }

 private:
  NodePayload(Kind kind, Oid oid, std::string label)
      : kind_(kind), oid_(oid), label_(std::move(label)) {}

  Kind kind_;
  Oid oid_;
  std::string label_;
};

}  // namespace aqua

#endif  // AQUA_BULK_NODE_H_
