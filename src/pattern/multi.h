#ifndef AQUA_PATTERN_MULTI_H_
#define AQUA_PATTERN_MULTI_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bulk/list.h"
#include "common/result.h"
#include "pattern/alphabet.h"
#include "pattern/list_pattern.h"

namespace aqua {

/// The list-pattern existence automaton: a merged product automaton
/// answering up to 64 list patterns in one scan. A single pattern is the
/// case N=1 — every list existence prefilter in the system runs on it.
///
/// Compilation interns every pattern predicate into one shared
/// `PredicateAlphabet` (structural dedup, so `{citizen=="Brazil"}` appearing
/// in five patterns is one slot), trie-merges the patterns' common leading
/// atoms into shared states, and Thompson-compiles each remainder. Every
/// state carries an *accept mask*: bit j set means pattern j's accept state
/// is reachable here. Matching is a single left-to-right search-mode scan
/// (the patterns sit behind one shared `?*` loop that also skips
/// concatenation points, so a match may begin anywhere): element facts come
/// from one columnar `PredicateAlphabet::EvalBatch` per chunk, and the scan
/// OR-accumulates the accept masks it touches, early-exiting once every
/// pattern has matched. Chunks grow geometrically (16, 32, ... 256
/// elements), so a scan that stops early evaluates little beyond the match.
///
/// Prune markers do not change the recognized language (§3.4 separates
/// matching from result shaping), and anchors only narrow it, so a clear
/// bit j proves pattern j has no match — the soundness argument every
/// prefilter relies on.
///
/// Thread model: a compiled MultiNfa is immutable and freely shared; the
/// mutable per-call buffers live in the caller-provided `AlphabetScratch`
/// (one per worker, like `LazyMultiDfa`).
class MultiNfa {
 public:
  /// Compiles `?* merged(patterns)` for single-pass existence search.
  /// Fails on empty input, more than 64 patterns, or tree-pattern atoms.
  static Result<MultiNfa> CompileSearch(
      const std::vector<ListPatternRef>& patterns);

  /// Returns the bitset of patterns with some matching sublist in `list`
  /// (bit j = patterns[j]): exactly the unanchored existence answer of the
  /// backtracking `ListMatcher` for each pattern. Counts the elements it
  /// steps in `pattern.nfa_steps`.
  ///
  /// With a `column`, also leaves the list's *signature column* there:
  /// `alphabet().sig_stride()` words per list position, the cell's packed
  /// alphabet outcomes or zero for a point. The scan then evaluates the
  /// rest of the list in the same chunks after every pattern has matched,
  /// so the column always covers the whole list; a `ListMatcher` bound to
  /// it (through `ListPatternSlots`) evaluates no predicate again.
  uint64_t MatchAll(const StoreView& store, const List& list,
                    AlphabetScratch* scratch,
                    std::vector<uint64_t>* column = nullptr) const;

  size_t num_patterns() const { return num_patterns_; }
  size_t num_states() const { return states_.size(); }
  const PredicateAlphabet& alphabet() const { return alphabet_; }
  /// All-patterns-matched mask (bit j set for every pattern j).
  uint64_t full_mask() const { return full_mask_; }
  /// States shared by trie-merging pattern prefixes (0 when all patterns
  /// start differently); a direct measure of the product-automaton win.
  size_t trie_shared_states() const { return trie_shared_states_; }

  struct Transition {
    /// `kAnyElement` consumes a cell or a point; only the search loop has
    /// it (pattern `?` sees cells only).
    enum class Kind { kEpsilon, kPred, kAnyCell, kPoint, kAnyElement };
    Kind kind;
    uint32_t target;
    uint32_t index;  // alphabet slot (kPred) or label index (kPoint)
  };

  const std::vector<std::vector<Transition>>& states() const {
    return states_;
  }
  const std::vector<uint64_t>& accept_masks() const { return accept_masks_; }
  const std::vector<std::string>& point_labels() const {
    return point_labels_;
  }
  uint32_t start() const { return start_; }

  /// Epsilon-closure of a state bitset, in place.
  void EpsClosure(std::vector<bool>* set) const;

  /// OR of the accept masks of all states in `set`.
  uint64_t AcceptMask(const std::vector<bool>& set) const;

  /// One simulation step over a cell whose alphabet signature starts at
  /// `sig` (sig_stride words), or over a point with `label_index`
  /// (`kNoLabel` for an unknown label). Closure included.
  static constexpr uint32_t kNoLabel = static_cast<uint32_t>(-1);
  /// Index of a point label in `point_labels()`, or `kNoLabel`.
  uint32_t LabelIndex(const std::string& label) const;
  std::vector<bool> StepCell(const std::vector<bool>& from,
                             const uint64_t* sig) const;
  std::vector<bool> StepPoint(const std::vector<bool>& from,
                              uint32_t label_index) const;

 private:
  struct Frag {
    uint32_t start;
    uint32_t accept;
  };

  uint32_t NewState();
  void AddEdge(uint32_t from, Transition t);
  uint32_t InternLabel(const std::string& label);
  Result<Frag> Build(const ListPattern& p);
  Status AddPattern(const ListPatternRef& pattern, uint32_t index,
                    uint32_t trie_root);

  std::vector<std::vector<Transition>> states_;
  std::vector<uint64_t> accept_masks_;
  std::vector<std::string> point_labels_;
  PredicateAlphabet alphabet_;
  uint32_t start_ = 0;
  uint64_t full_mask_ = 0;
  size_t num_patterns_ = 0;
  size_t trie_shared_states_ = 0;

  /// Trie edges: (parent state, atom key) -> child state. Only used during
  /// compilation. The atom key packs (kind, index).
  std::map<std::pair<uint32_t, uint64_t>, uint32_t> trie_;
};

/// Lazily determinized automaton over a `MultiNfa`.
///
/// The input alphabet of a list pattern is *symbolic* (predicate outcomes),
/// so ahead-of-time determinization would enumerate predicate minterms.
/// Instead each distinct element signature seen at a DFA state
/// materializes one cached transition, and each DFA state caches the OR of
/// its NFA states' accept masks, so a hot scan approaches one table lookup
/// plus one mask OR per element.
///
/// Thread model: matching MUTATES the caches — per-worker instances only,
/// over one shared const `MultiNfa` (see `exec/compile.cc`); the cache then
/// amortizes across all the lists one worker scans.
class LazyMultiDfa {
 public:
  /// `nfa` must outlive the DFA. At most 58 alphabet predicates are
  /// supported (signatures pack into 64 bits).
  static Result<LazyMultiDfa> Make(const MultiNfa* nfa);

  /// Same contract as `MultiNfa::MatchAll`, the signature column
  /// included. Counts its cache hits and misses in `pattern.dfa_hits` /
  /// `pattern.dfa_misses`, and each miss — one fallback NFA step — in
  /// `pattern.nfa_steps`.
  uint64_t MatchAll(const StoreView& store, const List& list,
                    AlphabetScratch* scratch,
                    std::vector<uint64_t>* column = nullptr);

  size_t num_states() const { return dfa_states_.size(); }
  size_t num_transitions() const { return trans_.size(); }
  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }

 private:
  explicit LazyMultiDfa(const MultiNfa* nfa);

  uint32_t InternState(const std::vector<bool>& set);
  uint32_t StepState(uint32_t state, uint64_t sig, bool is_cell,
                     uint32_t label_index);

  const MultiNfa* nfa_;
  std::vector<std::vector<bool>> dfa_states_;  // NFA state sets
  std::vector<uint64_t> state_accept_masks_;
  std::map<std::vector<bool>, uint32_t> state_ids_;
  std::map<std::pair<uint32_t, uint64_t>, uint32_t> trans_;
  uint32_t start_state_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_MULTI_H_
