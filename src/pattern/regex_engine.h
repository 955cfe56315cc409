#ifndef AQUA_PATTERN_REGEX_ENGINE_H_
#define AQUA_PATTERN_REGEX_ENGINE_H_

#include <functional>

#include "pattern/list_pattern.h"

namespace aqua {

/// Continuation invoked with the position reached after a (partial) match.
using RegexCont = std::function<void(size_t)>;

/// Backtracking interpreter for the `ListPattern` regular-expression
/// structure, parameterized over how *atoms* are matched.
///
/// The engine handles the structural kinds (`kConcat`, `kAlt`, `kStar`,
/// `kPlus`, `kPrune`) and delegates every atom kind (`kPred`, `kAny`,
/// `kPoint`, `kTreeAtom`) to `atom`, which must invoke the continuation once
/// per way the atom can match starting at `pos` (typically `cont(pos + 1)`
/// after consuming one element; a pattern concatenation point may consume
/// zero). The `pruned` flag is true inside a `!` scope (§3.4): elements
/// consumed there are pruned from results and become cut pieces.
///
/// `kStar`/`kPlus` iterations are required to consume at least one element,
/// which keeps nullable-body closures from looping forever without changing
/// the recognized language.
///
/// All derivations are enumerated (the caller deduplicates results); the
/// engine itself is linear in pattern size per derivation step but may
/// explore exponentially many derivations for ambiguous patterns — the
/// paper's footnote 3 acknowledges this, and the list search automaton
/// (`pattern/multi.h`) provides the efficient boolean path.
template <typename AtomMatcher>
class RegexEngine {
 public:
  explicit RegexEngine(const AtomMatcher& atom) : atom_(atom) {}

  void Run(const ListPattern* p, size_t pos, bool pruned,
           const RegexCont& cont) const {
    switch (p->kind()) {
      case ListPattern::Kind::kConcat:
        RunSeq(p->parts(), 0, pos, pruned, cont);
        return;
      case ListPattern::Kind::kAlt: {
        for (const auto& alt : p->parts()) {
          Run(alt.get(), pos, pruned, cont);
        }
        return;
      }
      case ListPattern::Kind::kStar:
        RunStar(p->inner().get(), pos, pruned, cont);
        return;
      case ListPattern::Kind::kPlus: {
        const ListPattern* body = p->inner().get();
        Run(body, pos, pruned, [this, body, pruned, &cont](size_t next) {
          RunStar(body, next, pruned, cont);
        });
        return;
      }
      case ListPattern::Kind::kPrune:
        Run(p->inner().get(), pos, /*pruned=*/true, cont);
        return;
      case ListPattern::Kind::kPred:
      case ListPattern::Kind::kAny:
      case ListPattern::Kind::kPoint:
      case ListPattern::Kind::kTreeAtom:
        atom_(*p, pos, pruned, cont);
        return;
    }
  }

 private:
  void RunSeq(const std::vector<ListPatternRef>& parts, size_t i, size_t pos,
              bool pruned, const RegexCont& cont) const {
    if (i == parts.size()) {
      cont(pos);
      return;
    }
    Run(parts[i].get(), pos, pruned,
        [this, &parts, i, pruned, &cont](size_t next) {
          RunSeq(parts, i + 1, next, pruned, cont);
        });
  }

  void RunStar(const ListPattern* body, size_t pos, bool pruned,
               const RegexCont& cont) const {
    cont(pos);
    Run(body, pos, pruned, [this, body, pos, pruned, &cont](size_t next) {
      if (next > pos) RunStar(body, next, pruned, cont);
    });
  }

  const AtomMatcher& atom_;
};

}  // namespace aqua

#endif  // AQUA_PATTERN_REGEX_ENGINE_H_
