#include "lint/automaton.h"

#include <cstdint>
#include <vector>

#include "lint/interval.h"
#include "pattern/multi.h"

namespace aqua::lint {

namespace {

using Transition = MultiNfa::Transition;

/// Whether an edge can ever be taken by any element.
bool EdgeLive(const Transition& t, const std::vector<bool>& pred_sat) {
  if (t.kind == Transition::Kind::kPred) return pred_sat[t.index];
  return true;  // ε, `?`, point, and search-loop edges are always takeable.
}

/// DFS over live edges of `adj` (forward or reversed adjacency) from every
/// state in `from`.
std::vector<bool> Reach(
    size_t num_states, const std::vector<uint32_t>& from,
    const std::vector<std::vector<std::pair<uint32_t, bool>>>& adj) {
  std::vector<bool> seen(num_states, false);
  std::vector<uint32_t> stack = from;
  for (uint32_t s : from) seen[s] = true;
  while (!stack.empty()) {
    uint32_t s = stack.back();
    stack.pop_back();
    for (const auto& [target, live] : adj[s]) {
      if (!live || seen[target]) continue;
      seen[target] = true;
      stack.push_back(target);
    }
  }
  return seen;
}

/// DFS 3-coloring over ε-edges restricted to `live` states; true when a
/// back edge closes an ε-cycle.
bool HasEpsCycle(const MultiNfa& nfa, const std::vector<bool>& live) {
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(nfa.num_states(), kWhite);
  // Iterative DFS: (state, next edge index) frames.
  for (uint32_t root = 0; root < nfa.num_states(); ++root) {
    if (!live[root] || color[root] != kWhite) continue;
    std::vector<std::pair<uint32_t, size_t>> stack = {{root, 0}};
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [s, i] = stack.back();
      const auto& edges = nfa.states()[s];
      if (i >= edges.size()) {
        color[s] = kBlack;
        stack.pop_back();
        continue;
      }
      const Transition& t = edges[i++];
      if (t.kind != Transition::Kind::kEpsilon || !live[t.target]) continue;
      if (color[t.target] == kGray) return true;
      if (color[t.target] == kWhite) {
        color[t.target] = kGray;
        stack.emplace_back(t.target, 0);
      }
    }
  }
  return false;
}

}  // namespace

AutomatonFacts AnalyzeListPatternAutomaton(const ListPatternRef& body) {
  AutomatonFacts facts;
  if (body == nullptr) return facts;
  // The N=1 search automaton: its `?*` search loop is a consuming self-loop
  // plus one ε-edge into the pattern, which adds no accepting state, no
  // ε-path to one, and no ε-cycle, so the three facts are the pattern's.
  Result<MultiNfa> compiled = MultiNfa::CompileSearch({body});
  if (!compiled.ok()) return facts;
  const MultiNfa& nfa = *compiled;
  facts.compiled = true;

  const std::vector<PredicateRef>& preds = nfa.alphabet().preds();
  std::vector<bool> pred_sat(preds.size(), true);
  for (size_t i = 0; i < preds.size(); ++i) {
    pred_sat[i] = AnalyzePredicateSat(preds[i]) != PredSat::kUnsatisfiable;
  }

  // Forward and reverse adjacency with per-edge liveness.
  std::vector<std::vector<std::pair<uint32_t, bool>>> fwd(nfa.num_states());
  std::vector<std::vector<std::pair<uint32_t, bool>>> rev(nfa.num_states());
  std::vector<uint32_t> accepting;
  for (uint32_t s = 0; s < nfa.num_states(); ++s) {
    if (nfa.accept_masks()[s] & 1) accepting.push_back(s);
    for (const Transition& t : nfa.states()[s]) {
      bool live = EdgeLive(t, pred_sat);
      fwd[s].emplace_back(t.target, live);
      rev[t.target].emplace_back(s, live);
    }
  }

  std::vector<bool> from_start = Reach(nfa.num_states(), {nfa.start()}, fwd);
  std::vector<bool> to_accept = Reach(nfa.num_states(), accepting, rev);
  std::vector<bool> eps(nfa.num_states(), false);
  eps[nfa.start()] = true;
  nfa.EpsClosure(&eps);
  facts.language_empty = true;
  for (uint32_t s : accepting) {
    if (from_start[s]) facts.language_empty = false;
    if (eps[s]) facts.accepts_empty = true;
  }

  std::vector<bool> live(nfa.num_states(), false);
  for (uint32_t s = 0; s < nfa.num_states(); ++s) {
    live[s] = from_start[s] && to_accept[s];
  }
  facts.has_live_eps_cycle = HasEpsCycle(nfa, live);
  return facts;
}

AutomatonFacts AutomatonMemo::Analyze(const ListPatternRef& body) {
  for (const auto& [b, facts] : entries_) {
    if (b == body) return facts;
  }
  entries_.emplace_back(body, AnalyzeListPatternAutomaton(body));
  return entries_.back().second;
}

AutomatonFacts AnalyzeListPatternAutomaton(const ListPatternRef& body,
                                           AutomatonMemo* memo) {
  return memo != nullptr ? memo->Analyze(body)
                         : AnalyzeListPatternAutomaton(body);
}

}  // namespace aqua::lint
