#include "bulk/datum.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/metrics.h"

namespace aqua {

Datum::Datum(const Datum& other)
    : kind_(other.kind_),
      scalar_(other.scalar_),
      bulk_(other.bulk_),
      children_(other.children_),
      index_(other.index_ ? std::make_unique<SetIndex>(*other.index_)
                          : nullptr) {}

Datum& Datum::operator=(const Datum& other) {
  if (this != &other) *this = Datum(other);
  return *this;
}

Datum Datum::Scalar(Value v) {
  Datum d;
  d.kind_ = Kind::kScalar;
  d.scalar_ = std::move(v);
  return d;
}

Datum Datum::Of(Tree t) {
  return Shared(std::make_shared<const Tree>(std::move(t)));
}

Datum Datum::Of(List l) {
  return Shared(std::make_shared<const List>(std::move(l)));
}

Datum Datum::Shared(std::shared_ptr<const Tree> t) {
  Datum d;
  d.kind_ = Kind::kTree;
  d.bulk_ = std::move(t);
  return d;
}

Datum Datum::Shared(std::shared_ptr<const List> l) {
  Datum d;
  d.kind_ = Kind::kList;
  d.bulk_ = std::move(l);
  return d;
}

Datum Datum::Tuple(std::vector<Datum> fields) {
  Datum d;
  d.kind_ = Kind::kTuple;
  d.children_ = std::move(fields);
  return d;
}

Datum Datum::Set(std::vector<Datum> elems) {
  Datum d;
  d.kind_ = Kind::kSet;
  for (auto& e : elems) d.SetInsert(std::move(e));
  return d;
}

bool Datum::Equals(const Datum& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kScalar:
      return scalar_.Equals(other.scalar_);
    case Kind::kList:
      return bulk_ == other.bulk_ || list().Equals(other.list());
    case Kind::kTree:
      return bulk_ == other.bulk_ || tree().StructurallyEquals(other.tree());
    case Kind::kTuple: {
      if (children_.size() != other.children_.size()) return false;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (!children_[i].Equals(other.children_[i])) return false;
      }
      return true;
    }
    case Kind::kSet: {
      if (children_.size() != other.children_.size()) return false;
      if (children_.empty()) return true;
      if (index_->sum != other.index_->sum) return false;
      // Sets are deduplicated, so equal sizes + one-way containment
      // suffices.
      uint64_t compares = 0;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (other.FindHashed(children_[i], index_->hashes[i], &compares) ==
            other.children_.size()) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

size_t Datum::Hash() const {
  size_t h = static_cast<size_t>(kind_);
  switch (kind_) {
    case Kind::kNull:
      break;
    case Kind::kScalar:
      h = HashCombine(h, scalar_.Hash());
      break;
    case Kind::kList:
      h = HashCombine(h, list().Hash());
      break;
    case Kind::kTree:
      h = HashCombine(h, tree().StructuralHash());
      break;
    case Kind::kTuple:
      h = HashCombine(h, children_.size());
      for (const Datum& c : children_) h = HashCombine(h, c.Hash());
      break;
    case Kind::kSet:
      h = HashCombine(h, children_.size());
      h = HashCombine(h, index_ ? index_->sum : 0);
      break;
  }
  return HashFinalize(h);
}

size_t Datum::FindHashed(const Datum& d, size_t h, uint64_t* compares) const {
  if (!index_) return children_.size();
  const size_t mask = index_->slots.size() - 1;
  for (size_t s = h & mask; index_->slots[s] != 0; s = (s + 1) & mask) {
    const size_t pos = index_->slots[s] - 1;
    if (index_->hashes[pos] != h) continue;
    ++*compares;
    if (children_[pos].Equals(d)) return pos;
  }
  return children_.size();
}

void Datum::InsertHashed(Datum d, size_t h, uint64_t* compares) {
  kind_ = Kind::kSet;
  if (FindHashed(d, h, compares) != children_.size()) return;
  if (!index_) index_ = std::make_unique<SetIndex>();
  SetIndex& ix = *index_;
  auto place = [&ix](size_t pos) {
    const size_t mask = ix.slots.size() - 1;
    size_t s = ix.hashes[pos] & mask;
    while (ix.slots[s] != 0) s = (s + 1) & mask;
    ix.slots[s] = static_cast<uint32_t>(pos + 1);
  };
  ix.hashes.push_back(h);
  ix.sum += h;
  children_.push_back(std::move(d));
  // Keep the load factor at or below 1/2; regrow by rehashing positions.
  if (ix.hashes.size() * 2 > ix.slots.size()) {
    ix.slots.assign(std::max<size_t>(16, ix.slots.size() * 2), 0);
    for (size_t pos = 0; pos < ix.hashes.size(); ++pos) place(pos);
  } else {
    place(ix.hashes.size() - 1);
  }
}

bool Datum::SetContains(const Datum& d) const {
  uint64_t compares = 0;
  const bool found = FindHashed(d, d.Hash(), &compares) != children_.size();
  if (compares > 0) AQUA_OBS_COUNT("datum.deep_equal_calls", compares);
  return found;
}

void Datum::SetInsert(Datum d) {
  uint64_t compares = 0;
  const size_t h = d.Hash();
  InsertHashed(std::move(d), h, &compares);
  AQUA_OBS_COUNT("datum.set_inserts", 1);
  if (compares > 0) AQUA_OBS_COUNT("datum.deep_equal_calls", compares);
}

void Datum::SetUnion(Datum other) {
  if (other.kind_ == Kind::kSet && children_.empty()) {
    // Into an empty set, the union is `other` itself, already
    // deduplicated and in order.
    AQUA_OBS_COUNT("datum.set_inserts", other.children_.size());
    *this = std::move(other);
    return;
  }
  kind_ = Kind::kSet;
  uint64_t compares = 0;
  for (size_t i = 0; i < other.children_.size(); ++i) {
    const size_t h = other.index_ ? other.index_->hashes[i]
                                  : other.children_[i].Hash();
    InsertHashed(std::move(other.children_[i]), h, &compares);
  }
  AQUA_OBS_COUNT("datum.set_inserts", other.children_.size());
  if (compares > 0) AQUA_OBS_COUNT("datum.deep_equal_calls", compares);
}

void Datum::TupleAppend(Datum d) {
  kind_ = Kind::kTuple;
  children_.push_back(std::move(d));
}

std::string Datum::ToString(const LabelFn& label) const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kScalar:
      return scalar_.ToString();
    case Kind::kList:
      return PrintList(list(), label);
    case Kind::kTree:
      return PrintTree(tree(), label);
    case Kind::kTuple: {
      std::string out = "<";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i].ToString(label);
      }
      out += ">";
      return out;
    }
    case Kind::kSet: {
      std::string out = "{";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i].ToString(label);
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

}  // namespace aqua
