#ifndef AQUA_BULK_TREE_H_
#define AQUA_BULK_TREE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "bulk/node.h"

namespace aqua {

/// An ordered, rooted tree of `NodePayload` nodes (the paper's `Tree[T]`,
/// §2).
///
/// * Children are ordered left to right; arity may vary per node
///   ("variable-arity" trees).
/// * Nodes are stored in an arena addressed by `NodeId`; the tree also
///   maintains parent links for upward navigation (used by `all_anc` and
///   `split`).
/// * A node may be a labeled NULL (concatenation point, §3.5); such nodes
///   must be leaves.
/// * The empty tree (`empty() == true`) plays the role of `nil` in
///   concatenation: concatenating `nil` at a point deletes the point.
class Tree {
 public:
  /// Constructs the empty (nil) tree.
  Tree() = default;

  Tree(const Tree&) = default;
  Tree& operator=(const Tree&) = default;
  Tree(Tree&&) = default;
  Tree& operator=(Tree&&) = default;

  /// Builds a single-node tree.
  static Tree Leaf(NodePayload payload);

  /// Builds a tree from a root payload and already-built child subtrees
  /// (empty children are skipped).
  static Tree Node(NodePayload payload, const std::vector<Tree>& children);

  /// Convenience: a single concatenation-point leaf.
  static Tree Point(std::string label);

  // ---------------------------------------------------------------------
  // Structure

  bool empty() const { return root_ == kInvalidNode; }
  /// Number of nodes.
  size_t size() const { return payloads_.size(); }
  NodeId root() const { return root_; }

  const NodePayload& payload(NodeId n) const { return payloads_[n]; }
  const std::vector<NodeId>& children(NodeId n) const { return children_[n]; }
  /// Parent of `n`, or `kInvalidNode` for the root.
  NodeId parent(NodeId n) const { return parents_[n]; }
  bool is_leaf(NodeId n) const { return children_[n].empty(); }

  /// Out-degree of `n`.
  size_t arity(NodeId n) const { return children_[n].size(); }

  /// Position of `child` within `parent`'s child list; OutOfRange if absent.
  Result<size_t> ChildIndex(NodeId parent, NodeId child) const;

  /// Nodes in preorder (root, then children left to right).
  std::vector<NodeId> Preorder() const;
  /// Preorder of the subtree rooted at `n`.
  std::vector<NodeId> PreorderFrom(NodeId n) const;

  /// Depth of node `n` (root has depth 0).
  size_t DepthOf(NodeId n) const;
  /// Height of the tree (single node -> 0; empty -> 0).
  size_t Height() const;
  /// Maximum out-degree over all nodes.
  size_t MaxArity() const;

  /// True when `anc` is a proper or improper ancestor of `n`.
  bool IsAncestorOf(NodeId anc, NodeId n) const;

  // ---------------------------------------------------------------------
  // Incremental construction

  /// Adds a detached node; attach it with `AddChild` or make it the root.
  NodeId AddNode(NodePayload payload);
  /// Appends `child` (a detached node or subtree root) under `parent`.
  Status AddChild(NodeId parent, NodeId child);
  /// Sets the root node.
  Status SetRoot(NodeId n);

  // ---------------------------------------------------------------------
  // Copying / editing

  /// Deep copy of the subtree rooted at `n`, as a fresh tree.
  Tree SubtreeCopy(NodeId n) const;

  /// Copy of this tree with the subtree rooted at `n` removed and replaced
  /// by a concatenation point labeled `label` (the "context" used by
  /// `split`). If `n` is the root the result is a single point node.
  Tree CopyWithSubtreeReplacedByPoint(NodeId n, const std::string& label) const;

  /// Copy of this tree with the subtree rooted at `n` removed entirely
  /// (the node disappears from its parent's child list). Removing the root
  /// yields the empty tree.
  Tree CopyWithSubtreeRemoved(NodeId n) const;

  /// Rewrites every cell's oid through `fn`, in place; points are
  /// untouched. Used by the executor to resolve provisional oids after a
  /// snapshot-delta apply commits.
  void MapCells(const std::function<Oid(Oid)>& fn);

  // ---------------------------------------------------------------------
  // Concatenation points (§3.5)

  /// True when some node is a concatenation point labeled `label`.
  bool HasPoint(const std::string& label) const;
  /// All concatenation-point nodes labeled `label`, in preorder.
  std::vector<NodeId> FindPoints(const std::string& label) const;
  /// Labels of all concatenation points, in preorder (with duplicates).
  std::vector<std::string> PointLabels() const;

  // ---------------------------------------------------------------------
  // Comparison / checking

  /// Structural equality: same shape and equal payloads position-wise.
  bool StructurallyEquals(const Tree& other) const;
  /// Hash consistent with `StructurallyEquals`: every reachable node's
  /// payload and arity, in preorder (so the shape counts).
  size_t StructuralHash() const;

  /// Verifies internal invariants: single root reaching every arena node,
  /// acyclic parent/child links, concat points are leaves.
  Status Validate() const;

 private:
  NodeId CopyInto(Tree* dst, NodeId src_node) const;

  NodeId root_ = kInvalidNode;
  std::vector<NodePayload> payloads_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<NodeId> parents_;
};

}  // namespace aqua

#endif  // AQUA_BULK_TREE_H_
