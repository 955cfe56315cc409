#ifndef AQUA_BULK_LIST_H_
#define AQUA_BULK_LIST_H_

#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "bulk/node.h"

namespace aqua {

/// An ordered list of `NodePayload` elements (the paper's `List[T]`, §2).
///
/// Elements are cells (object references) or labeled NULLs (concatenation
/// points, §3.5). List edges run left to right. A list is exactly a
/// "list-like tree" (each node has at most one child, §6); `bulk/concat.h`
/// provides the mapping in both directions.
class List {
 public:
  List() = default;
  explicit List(std::vector<NodePayload> elems) : elems_(std::move(elems)) {}

  /// Builds a list of cells from object ids.
  static List OfOids(const std::vector<Oid>& oids);

  bool empty() const { return elems_.empty(); }
  size_t size() const { return elems_.size(); }
  const NodePayload& at(size_t i) const { return elems_[i]; }
  const std::vector<NodePayload>& elems() const { return elems_; }

  void Append(NodePayload payload) { elems_.push_back(std::move(payload)); }

  /// The contiguous sublist [begin, end).
  List Sublist(size_t begin, size_t end) const;

  /// Rewrites every cell's oid through `fn`, in place; points are
  /// untouched (see Tree::MapCells).
  void MapCells(const std::function<Oid(Oid)>& fn);

  /// True when some element is a concatenation point labeled `label`.
  bool HasPoint(const std::string& label) const;
  /// Positions of concatenation points labeled `label`.
  std::vector<size_t> FindPoints(const std::string& label) const;
  /// Labels of all concatenation points in order (with duplicates).
  std::vector<std::string> PointLabels() const;

  /// Element-wise equality (cell contents / point labels).
  bool Equals(const List& other) const;
  /// Hash consistent with `Equals`.
  size_t Hash() const;

  friend bool operator==(const List& a, const List& b) { return a.Equals(b); }
  friend bool operator!=(const List& a, const List& b) { return !a.Equals(b); }

 private:
  std::vector<NodePayload> elems_;
};

}  // namespace aqua

#endif  // AQUA_BULK_LIST_H_
