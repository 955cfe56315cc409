#ifndef AQUA_PATTERN_LIST_MATCHER_H_
#define AQUA_PATTERN_LIST_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "object/object_store.h"
#include "bulk/list.h"
#include "pattern/list_pattern.h"

namespace aqua {

/// One way a list pattern matches a sublist (§3.4).
struct ListMatch {
  /// Matched sublist is `[begin, end)`.
  size_t begin = 0;
  size_t end = 0;
  /// Positions inside `[begin, end)` consumed under a `!` scope, sorted.
  /// These elements are pruned from the result and become cut pieces.
  std::vector<size_t> pruned;

  /// Maximal runs of pruned positions, as `[first, last)` ranges in order.
  std::vector<std::pair<size_t, size_t>> PruneRanges() const;

  friend bool operator==(const ListMatch& a, const ListMatch& b) {
    return a.begin == b.begin && a.end == b.end && a.pruned == b.pruned;
  }
  friend bool operator<(const ListMatch& a, const ListMatch& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.end != b.end) return a.end < b.end;
    return a.pruned < b.pruned;
  }
};

/// Options bounding match enumeration.
struct ListMatchOptions {
  /// Stop after this many matches (0 = unlimited).
  size_t max_matches = 0;
  /// Keep only the first derivation found per (begin, end) extent; distinct
  /// prune decompositions of the same extent are dropped.
  bool distinct_extents_only = false;
  /// Abort with InvalidArgument after this many atom probes (0 = unlimited).
  /// Backtracking over ambiguous closures can be exponential (the paper's
  /// footnote 3); a budget turns a runaway query into an error the caller
  /// can handle (e.g. by answering a boolean question with the list search
  /// automaton, `MultiNfa`/`LazyMultiDfa` in pattern/multi.h, instead).
  /// The count does not depend on whether a signature column is bound.
  size_t max_steps = 0;
};

class PredicateAlphabet;  // pattern/alphabet.h

/// Binds one list pattern's alphabet-predicate atoms to the slots of a
/// sealed `PredicateAlphabet` (the list search automaton's), so a matcher
/// over a list whose signatures that alphabet already evaluated answers
/// each `kPred` probe with a bit test instead of `Predicate::Eval`.
/// Resolved once per pattern and alphabet, never per probe.
///
/// It also holds the pattern's *begin set*: the slots one of which must
/// hold at the first element of every match (the list analogue of the
/// batched tree gate's root clause). The set is unconstrained when the
/// body can match the empty sequence or can begin with `?`, a point, or a
/// predicate the alphabet lacks.
class ListPatternSlots {
 public:
  /// Resolves every `kPred` atom of `body` against `alphabet` by
  /// `PredicateStructuralEquals`; atoms without a slot keep `Eval`.
  static ListPatternSlots Resolve(const ListPattern& body,
                                  const PredicateAlphabet& alphabet);

  /// The pattern body the slots were resolved for.
  const ListPattern* body() const { return body_; }
  /// Words per list position in the signature column.
  size_t stride() const { return stride_; }
  /// The alphabet slot of atom `atom`, or `PredicateAlphabet::kNoSlot`.
  uint32_t SlotOf(const ListPattern* atom) const;
  /// True when a match may begin at an element with signature `sig`.
  bool MayBegin(const uint64_t* sig) const;
  bool begin_unconstrained() const { return begin_unconstrained_; }

 private:
  void CollectAtoms(const ListPattern& p, const PredicateAlphabet& alphabet);
  void CollectBegin(const ListPattern& p);

  const ListPattern* body_ = nullptr;
  size_t stride_ = 0;
  std::vector<std::pair<const ListPattern*, uint32_t>> atoms_;  // sorted
  bool begin_unconstrained_ = false;
  std::vector<uint64_t> begin_mask_;  // stride_ words
};

/// Backtracking pattern matcher over a list instance.
///
/// Elements that are concatenation points (§3.5) are invisible to
/// alphabet-predicates and `?`; they are matched only by pattern points with
/// the same label. A pattern point may also match the empty string (a NULL
/// closing, §3.3), so `@a` in a pattern consumes either one same-labeled
/// instance point or nothing.
///
/// A matcher may be given the list's *signature column*: the packed
/// outcomes of a sealed alphabet at every list position (`slots->stride()`
/// words each, zero at concatenation points), as the list search
/// automaton's scan leaves them, plus the pattern's `ListPatternSlots` in
/// that alphabet. A `kPred` probe then reads its bit; atoms without a slot,
/// and calls whose pattern is not the one the slots were resolved for,
/// evaluate the predicate against the store. Unbudgeted `FindAll` calls
/// also try only the begins whose signature meets the begin set — a begin
/// failing the first atom yields no match, so the answer is unchanged.
///
/// Thread model: a ListMatcher carries per-call mutable state (`steps_`)
/// and must not be shared between threads; the algebra layer constructs
/// one per (list, call). Concurrent matchers over different lists are safe
/// — each holds a `StoreView` pinning one immutable store epoch (passing
/// an `ObjectStore` snapshots it at construction).
class ListMatcher {
 public:
  ListMatcher(StoreView store, const List& list,
              const uint64_t* column = nullptr,
              const ListPatternSlots* slots = nullptr)
      : store_(std::move(store)), list_(list), column_(column),
        slots_(slots) {}

  /// Enumerates all matches (all begin positions unless anchored, all
  /// derivations deduplicated), ordered by (begin, end, prunes).
  Result<std::vector<ListMatch>> FindAll(const AnchoredListPattern& pattern,
                                         const ListMatchOptions& opts = {});

  /// Enumerates matches beginning only at the given positions (the physical
  /// operator behind index-anchored list sub_select). `begins` must be
  /// sorted ascending; a `^` anchor further restricts to position 0.
  Result<std::vector<ListMatch>> FindAllAtBegins(
      const AnchoredListPattern& pattern, const std::vector<size_t>& begins,
      const ListMatchOptions& opts = {});

  /// True when the entire list is in the pattern's language.
  Result<bool> MatchesWhole(const ListPatternRef& body);

  /// Atom probes executed by the last call (work measure for benchmarks).
  size_t steps() const { return steps_; }
  /// `kPred` probes of the last call answered by `Predicate::Eval`.
  size_t pred_evals() const { return pred_evals_; }

 private:
  Status ValidateListPattern(const ListPattern& p) const;
  /// The slots to read for `body`, or null when they were resolved for
  /// another pattern (or none were given).
  const ListPatternSlots* SlotsFor(const ListPatternRef& body) const;

  StoreView store_;
  const List& list_;
  const uint64_t* column_;
  const ListPatternSlots* slots_;
  size_t steps_ = 0;
  size_t pred_evals_ = 0;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_LIST_MATCHER_H_
