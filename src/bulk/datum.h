#ifndef AQUA_BULK_DATUM_H_
#define AQUA_BULK_DATUM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "bulk/list.h"
#include "bulk/notation.h"
#include "bulk/tree.h"

namespace aqua {

/// The universal runtime value of the AQUA algebra.
///
/// Operators in the paper freely compose bulk types (`Set[Tree]`, tuples of
/// tree pieces, ...); `Datum` is the dynamically typed currency that query
/// results and `split` functions traffic in: a scalar, a list, a tree, a
/// tuple of datums, or a set of datums.
class Datum {
 public:
  enum class Kind { kNull, kScalar, kList, kTree, kTuple, kSet };

  /// Constructs the null datum.
  Datum() = default;
  Datum(const Datum& other);
  Datum& operator=(const Datum& other);
  Datum(Datum&&) noexcept = default;
  Datum& operator=(Datum&&) noexcept = default;

  static Datum Scalar(Value v);
  static Datum Of(Tree t);
  static Datum Of(List l);
  /// Wraps an immutable tree/list without copying it: the datum shares
  /// ownership (collection scans hand out the registered collection).
  static Datum Shared(std::shared_ptr<const Tree> t);
  static Datum Shared(std::shared_ptr<const List> l);
  static Datum Tuple(std::vector<Datum> fields);
  /// Builds a set, deduplicating by `Equals` (insertion order kept).
  static Datum Set(std::vector<Datum> elems);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_scalar() const { return kind_ == Kind::kScalar; }
  bool is_list() const { return kind_ == Kind::kList; }
  bool is_tree() const { return kind_ == Kind::kTree; }
  bool is_tuple() const { return kind_ == Kind::kTuple; }
  bool is_set() const { return kind_ == Kind::kSet; }

  const Value& scalar() const { return scalar_; }
  const List& list() const { return *static_cast<const List*>(bulk_.get()); }
  const Tree& tree() const { return *static_cast<const Tree*>(bulk_.get()); }
  /// Tuple fields or set elements.
  const std::vector<Datum>& children() const { return children_; }
  size_t size() const { return children_.size(); }
  const Datum& at(size_t i) const { return children_[i]; }

  /// Deep structural equality (sets compare order-insensitively).
  bool Equals(const Datum& other) const;
  /// Structural hash consistent with `Equals`: equal datums hash equal
  /// (covering the kind, tree shape, oids, concat-point labels, and
  /// int/double coercion of scalars; sets combine their elements
  /// independently of order).
  size_t Hash() const;

  /// True when the set contains an element equal to `d` (set datums only).
  /// Expected O(1) deep compares: hash-indexed.
  bool SetContains(const Datum& d) const;
  /// Inserts into a set datum unless an equal element is present; the
  /// first-inserted of equal elements keeps its position.
  void SetInsert(Datum d);
  /// Inserts every element of `other` (a set's elements or a tuple's
  /// fields) in order, exactly as `SetInsert` of each would, moving them
  /// and reusing the hashes `other` cached when it is a set.
  void SetUnion(Datum other);
  /// Appends to a tuple datum.
  void TupleAppend(Datum d);

  /// Renders the datum using `label` for cells, e.g.
  /// `{<Ted(@a), Gen(John), [Joe Mary(Ann)]>}`.
  std::string ToString(const LabelFn& label) const;

 private:
  /// Hash index over a set's elements, allocated for non-empty sets only.
  /// `hashes[i]` is `children_[i].Hash()`, computed once when the set took
  /// ownership of the element; `slots` is an open-addressing table of
  /// element positions + 1 (0 = empty), sized a power of two.
  struct SetIndex {
    std::vector<size_t> hashes;
    std::vector<uint32_t> slots;
    /// Sum of `hashes`: the order-independent part of the set's own hash.
    size_t sum = 0;
  };

  /// Position of the element equal to `d` (whose hash is `h`), or
  /// `children_.size()`; adds the deep compares made to `*compares`.
  size_t FindHashed(const Datum& d, size_t h, uint64_t* compares) const;
  /// `SetInsert` of an element whose hash is known.
  void InsertHashed(Datum d, size_t h, uint64_t* compares);

  Kind kind_ = Kind::kNull;
  Value scalar_;
  /// The `List` or `Tree` of a list/tree datum (by kind), shared and
  /// immutable.
  std::shared_ptr<const void> bulk_;
  std::vector<Datum> children_;
  std::unique_ptr<SetIndex> index_;
};

}  // namespace aqua

#endif  // AQUA_BULK_DATUM_H_
