#include "bulk/tree.h"

#include <algorithm>

namespace aqua {

Tree Tree::Leaf(NodePayload payload) {
  Tree t;
  NodeId n = t.AddNode(std::move(payload));
  t.root_ = n;
  return t;
}

Tree Tree::Node(NodePayload payload, const std::vector<Tree>& children) {
  Tree t = Leaf(std::move(payload));
  for (const Tree& child : children) {
    if (child.empty()) continue;
    NodeId sub = child.CopyInto(&t, child.root());
    t.children_[t.root_].push_back(sub);
    t.parents_[sub] = t.root_;
  }
  return t;
}

Tree Tree::Point(std::string label) {
  return Leaf(NodePayload::ConcatPoint(std::move(label)));
}

Result<size_t> Tree::ChildIndex(NodeId parent, NodeId child) const {
  const auto& kids = children_[parent];
  auto it = std::find(kids.begin(), kids.end(), child);
  if (it == kids.end()) {
    return Status::OutOfRange("node is not a child of the given parent");
  }
  return static_cast<size_t>(it - kids.begin());
}

std::vector<NodeId> Tree::Preorder() const {
  if (empty()) return {};
  return PreorderFrom(root_);
}

std::vector<NodeId> Tree::PreorderFrom(NodeId n) const {
  std::vector<NodeId> out;
  out.reserve(payloads_.size());
  std::vector<NodeId> stack = {n};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    const auto& kids = children_[cur];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

size_t Tree::DepthOf(NodeId n) const {
  size_t d = 0;
  while (parents_[n] != kInvalidNode) {
    n = parents_[n];
    ++d;
  }
  return d;
}

size_t Tree::Height() const {
  if (empty()) return 0;
  size_t h = 0;
  // Depth-first with explicit (node, depth) stack.
  std::vector<std::pair<NodeId, size_t>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto [cur, d] = stack.back();
    stack.pop_back();
    h = std::max(h, d);
    for (NodeId c : children_[cur]) stack.push_back({c, d + 1});
  }
  return h;
}

size_t Tree::MaxArity() const {
  size_t m = 0;
  for (const auto& kids : children_) m = std::max(m, kids.size());
  return m;
}

bool Tree::IsAncestorOf(NodeId anc, NodeId n) const {
  while (n != kInvalidNode) {
    if (n == anc) return true;
    n = parents_[n];
  }
  return false;
}

NodeId Tree::AddNode(NodePayload payload) {
  NodeId n = static_cast<NodeId>(payloads_.size());
  payloads_.push_back(std::move(payload));
  children_.emplace_back();
  parents_.push_back(kInvalidNode);
  return n;
}

Status Tree::AddChild(NodeId parent, NodeId child) {
  if (parent >= payloads_.size() || child >= payloads_.size()) {
    return Status::OutOfRange("node id out of range");
  }
  if (parents_[child] != kInvalidNode) {
    return Status::InvalidArgument("child already has a parent");
  }
  if (IsAncestorOf(child, parent)) {
    return Status::InvalidArgument("adding child would create a cycle");
  }
  children_[parent].push_back(child);
  parents_[child] = parent;
  return Status::OK();
}

Status Tree::SetRoot(NodeId n) {
  if (n >= payloads_.size()) return Status::OutOfRange("node id out of range");
  if (parents_[n] != kInvalidNode) {
    return Status::InvalidArgument("root must not have a parent");
  }
  root_ = n;
  return Status::OK();
}

NodeId Tree::CopyInto(Tree* dst, NodeId src_node) const {
  NodeId copy = dst->AddNode(payloads_[src_node]);
  for (NodeId c : children_[src_node]) {
    NodeId child_copy = CopyInto(dst, c);
    dst->children_[copy].push_back(child_copy);
    dst->parents_[child_copy] = copy;
  }
  return copy;
}

Tree Tree::SubtreeCopy(NodeId n) const {
  Tree t;
  t.root_ = CopyInto(&t, n);
  return t;
}

Tree Tree::CopyWithSubtreeReplacedByPoint(NodeId n,
                                          const std::string& label) const {
  if (n == root_) return Point(label);
  Tree t;
  // Copy everything, but when we reach `n` emit a point leaf instead.
  struct Copier {
    const Tree* src;
    Tree* dst;
    NodeId target;
    const std::string* label;
    NodeId Copy(NodeId s) {
      if (s == target) {
        return dst->AddNode(NodePayload::ConcatPoint(*label));
      }
      NodeId copy = dst->AddNode(src->payloads_[s]);
      for (NodeId c : src->children_[s]) {
        NodeId cc = Copy(c);
        dst->children_[copy].push_back(cc);
        dst->parents_[cc] = copy;
      }
      return copy;
    }
  };
  Copier copier{this, &t, n, &label};
  t.root_ = copier.Copy(root_);
  return t;
}

Tree Tree::CopyWithSubtreeRemoved(NodeId n) const {
  if (n == root_) return Tree();
  Tree t;
  struct Copier {
    const Tree* src;
    Tree* dst;
    NodeId target;
    // Returns kInvalidNode when the node is the removed subtree root.
    NodeId Copy(NodeId s) {
      if (s == target) return kInvalidNode;
      NodeId copy = dst->AddNode(src->payloads_[s]);
      for (NodeId c : src->children_[s]) {
        NodeId cc = Copy(c);
        if (cc == kInvalidNode) continue;
        dst->children_[copy].push_back(cc);
        dst->parents_[cc] = copy;
      }
      return copy;
    }
  };
  Copier copier{this, &t, n};
  t.root_ = copier.Copy(root_);
  return t;
}

bool Tree::HasPoint(const std::string& label) const {
  for (const auto& p : payloads_) {
    if (p.is_concat_point() && p.label() == label) return true;
  }
  return false;
}

std::vector<NodeId> Tree::FindPoints(const std::string& label) const {
  std::vector<NodeId> out;
  for (NodeId n : Preorder()) {
    const auto& p = payloads_[n];
    if (p.is_concat_point() && p.label() == label) out.push_back(n);
  }
  return out;
}

std::vector<std::string> Tree::PointLabels() const {
  std::vector<std::string> out;
  for (NodeId n : Preorder()) {
    const auto& p = payloads_[n];
    if (p.is_concat_point()) out.push_back(p.label());
  }
  return out;
}

bool Tree::StructurallyEquals(const Tree& other) const {
  if (empty() || other.empty()) return empty() == other.empty();
  struct Cmp {
    const Tree* a;
    const Tree* b;
    bool Eq(NodeId x, NodeId y) const {
      if (a->payloads_[x] != b->payloads_[y]) return false;
      const auto& cx = a->children_[x];
      const auto& cy = b->children_[y];
      if (cx.size() != cy.size()) return false;
      for (size_t i = 0; i < cx.size(); ++i) {
        if (!Eq(cx[i], cy[i])) return false;
      }
      return true;
    }
  };
  return Cmp{this, &other}.Eq(root_, other.root_);
}

size_t Tree::StructuralHash() const {
  size_t h = 0;
  std::vector<NodeId> stack;
  if (!empty()) stack.push_back(root_);
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    const auto& kids = children_[n];
    h = HashCombine(HashCombine(h, payloads_[n].Hash()), kids.size());
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return HashFinalize(h);
}

Status Tree::Validate() const {
  if (empty()) {
    if (!payloads_.empty()) {
      return Status::Internal("empty tree with allocated nodes");
    }
    return Status::OK();
  }
  if (root_ >= payloads_.size()) return Status::Internal("root out of range");
  if (parents_[root_] != kInvalidNode) {
    return Status::Internal("root has a parent");
  }
  std::vector<bool> seen(payloads_.size(), false);
  std::vector<NodeId> order = Preorder();
  for (NodeId n : order) {
    if (seen[n]) return Status::Internal("node reached twice (cycle/share)");
    seen[n] = true;
    for (NodeId c : children_[n]) {
      if (c >= payloads_.size()) return Status::Internal("child out of range");
      if (parents_[c] != n) return Status::Internal("parent link mismatch");
    }
    if (payloads_[n].is_concat_point() && !children_[n].empty()) {
      return Status::Internal("concatenation point must be a leaf");
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      return Status::Internal("unreachable node in arena (id " +
                              std::to_string(i) + ")");
    }
  }
  return Status::OK();
}

void Tree::MapCells(const std::function<Oid(Oid)>& fn) {
  for (NodePayload& p : payloads_) {
    if (p.is_cell()) p = NodePayload::Cell(fn(p.oid()));
  }
}

}  // namespace aqua
