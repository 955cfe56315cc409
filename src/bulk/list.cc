#include "bulk/list.h"

namespace aqua {

List List::OfOids(const std::vector<Oid>& oids) {
  std::vector<NodePayload> elems;
  elems.reserve(oids.size());
  for (Oid o : oids) elems.push_back(NodePayload::Cell(o));
  return List(std::move(elems));
}

List List::Sublist(size_t begin, size_t end) const {
  if (begin > end || end > elems_.size()) return List();
  return List(std::vector<NodePayload>(elems_.begin() + begin,
                                       elems_.begin() + end));
}

bool List::HasPoint(const std::string& label) const {
  for (const auto& e : elems_) {
    if (e.is_concat_point() && e.label() == label) return true;
  }
  return false;
}

std::vector<size_t> List::FindPoints(const std::string& label) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < elems_.size(); ++i) {
    if (elems_[i].is_concat_point() && elems_[i].label() == label) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::string> List::PointLabels() const {
  std::vector<std::string> out;
  for (const auto& e : elems_) {
    if (e.is_concat_point()) out.push_back(e.label());
  }
  return out;
}

bool List::Equals(const List& other) const {
  if (elems_.size() != other.elems_.size()) return false;
  for (size_t i = 0; i < elems_.size(); ++i) {
    if (elems_[i] != other.elems_[i]) return false;
  }
  return true;
}

size_t List::Hash() const {
  size_t h = elems_.size();
  for (const NodePayload& e : elems_) h = HashCombine(h, e.Hash());
  return HashFinalize(h);
}

void List::MapCells(const std::function<Oid(Oid)>& fn) {
  for (NodePayload& e : elems_) {
    if (e.is_cell()) e = NodePayload::Cell(fn(e.oid()));
  }
}

}  // namespace aqua
