#include "pattern/list_matcher.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/query_context.h"
#include "pattern/alphabet.h"
#include "pattern/regex_engine.h"

namespace aqua {

namespace {

/// Flushes one matcher call's backtracking work to the registry on every
/// exit path (including step-budget errors).
struct ListMatchFlush {
  const size_t* steps;
  const size_t* pred_evals;
  ListMatchFlush(const size_t* s, const size_t* e) : steps(s), pred_evals(e) {}
  ~ListMatchFlush() {
    AQUA_OBS_COUNT("pattern.list_match_calls", 1);
    if (*steps > 0) AQUA_OBS_COUNT("pattern.list_steps", *steps);
    if (*pred_evals > 0) {
      AQUA_OBS_COUNT("pattern.list_pred_evals", *pred_evals);
    }
  }
};

bool TestBit(const uint64_t* sig, uint32_t slot) {
  return (sig[slot >> 6] >> (slot & 63)) & 1;
}

}  // namespace

ListPatternSlots ListPatternSlots::Resolve(const ListPattern& body,
                                          const PredicateAlphabet& alphabet) {
  ListPatternSlots s;
  s.body_ = &body;
  s.stride_ = alphabet.sig_stride();
  s.begin_mask_.assign(s.stride_, 0);
  s.CollectAtoms(body, alphabet);
  std::sort(s.atoms_.begin(), s.atoms_.end());
  // The matcher treats a point as able to match nothing, which `Nullable`
  // does not; a point makes the set unconstrained either way.
  if (body.Nullable()) {
    s.begin_unconstrained_ = true;
  } else {
    s.CollectBegin(body);
  }
  return s;
}

void ListPatternSlots::CollectAtoms(const ListPattern& p,
                                    const PredicateAlphabet& alphabet) {
  if (p.kind() == ListPattern::Kind::kPred) {
    uint32_t slot = alphabet.Find(*p.pred());
    if (slot != PredicateAlphabet::kNoSlot) atoms_.push_back({&p, slot});
    return;
  }
  for (const ListPatternRef& part : p.parts()) CollectAtoms(*part, alphabet);
}

void ListPatternSlots::CollectBegin(const ListPattern& p) {
  switch (p.kind()) {
    case ListPattern::Kind::kPred: {
      uint32_t slot = SlotOf(&p);
      if (slot == PredicateAlphabet::kNoSlot) {
        begin_unconstrained_ = true;
      } else {
        begin_mask_[slot >> 6] |= 1ULL << (slot & 63);
      }
      return;
    }
    case ListPattern::Kind::kConcat:
      // Every part up to the first one that must consume can hold the
      // first element.
      for (const ListPatternRef& part : p.parts()) {
        CollectBegin(*part);
        if (!part->Nullable()) return;
      }
      return;
    case ListPattern::Kind::kAlt:
      for (const ListPatternRef& alt : p.parts()) CollectBegin(*alt);
      return;
    case ListPattern::Kind::kStar:
    case ListPattern::Kind::kPlus:
    case ListPattern::Kind::kPrune:
      CollectBegin(*p.inner());
      return;
    case ListPattern::Kind::kAny:
    case ListPattern::Kind::kPoint:
    case ListPattern::Kind::kTreeAtom:
      begin_unconstrained_ = true;
      return;
  }
}

uint32_t ListPatternSlots::SlotOf(const ListPattern* atom) const {
  auto it = std::lower_bound(
      atoms_.begin(), atoms_.end(), atom,
      [](const std::pair<const ListPattern*, uint32_t>& e,
         const ListPattern* a) { return e.first < a; });
  return it != atoms_.end() && it->first == atom ? it->second
                                                 : PredicateAlphabet::kNoSlot;
}

bool ListPatternSlots::MayBegin(const uint64_t* sig) const {
  if (begin_unconstrained_) return true;
  for (size_t w = 0; w < stride_; ++w) {
    if ((sig[w] & begin_mask_[w]) != 0) return true;
  }
  return false;
}

std::vector<std::pair<size_t, size_t>> ListMatch::PruneRanges() const {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t p : pruned) {
    if (!out.empty() && out.back().second == p) {
      ++out.back().second;
    } else {
      out.push_back({p, p + 1});
    }
  }
  return out;
}

Status ListMatcher::ValidateListPattern(const ListPattern& p) const {
  if (p.kind() == ListPattern::Kind::kTreeAtom) {
    return Status::InvalidArgument(
        "tree-pattern atoms are not allowed in a list pattern");
  }
  for (const auto& part : p.parts()) {
    AQUA_RETURN_IF_ERROR(ValidateListPattern(*part));
  }
  return Status::OK();
}

const ListPatternSlots* ListMatcher::SlotsFor(
    const ListPatternRef& body) const {
  return slots_ != nullptr && slots_->body() == body.get() ? slots_ : nullptr;
}

Result<std::vector<ListMatch>> ListMatcher::FindAll(
    const AnchoredListPattern& pattern, const ListMatchOptions& opts) {
  std::vector<size_t> begins;
  const ListPatternSlots* slots = SlotsFor(pattern.body);
  if (pattern.anchor_begin) {
    begins.push_back(0);
  } else if (slots != nullptr && !slots->begin_unconstrained() &&
             opts.max_steps == 0) {
    // Skipped begins fail their first atom; a budgeted call keeps every
    // begin so that its step count does not depend on the column.
    const size_t stride = slots->stride();
    for (size_t i = 0; i < list_.size(); ++i) {
      if (slots->MayBegin(column_ + i * stride)) begins.push_back(i);
    }
  } else {
    begins.reserve(list_.size() + 1);
    for (size_t i = 0; i <= list_.size(); ++i) begins.push_back(i);
  }
  return FindAllAtBegins(pattern, begins, opts);
}

Result<std::vector<ListMatch>> ListMatcher::FindAllAtBegins(
    const AnchoredListPattern& pattern, const std::vector<size_t>& begins,
    const ListMatchOptions& opts) {
  if (pattern.body == nullptr) {
    return Status::InvalidArgument("null list pattern");
  }
  AQUA_RETURN_IF_ERROR(ValidateListPattern(*pattern.body));
  steps_ = 0;
  pred_evals_ = 0;
  ListMatchFlush flush(&steps_, &pred_evals_);
  const ListPatternSlots* slots = SlotsFor(pattern.body);

  std::vector<ListMatch> out;
  std::vector<size_t> prune_stack;
  bool hit_limit = false;
  bool over_budget = false;
  obs::QueryContext* query = obs::QueryContext::Current();
  Status cancel = Status::OK();

  auto atom = [&](const ListPattern& p, size_t pos, bool pruned,
                  const RegexCont& cont) {
    if (hit_limit || over_budget || !cancel.ok()) return;
    ++steps_;
    if (query != nullptr &&
        (steps_ & (obs::QueryContext::kCheckStride - 1)) == 0) {
      query->AddNodes(obs::QueryContext::kCheckStride);
      cancel = query->CheckPoint();
      if (!cancel.ok()) return;
    }
    if (opts.max_steps > 0 && steps_ > opts.max_steps) {
      over_budget = true;
      return;
    }
    switch (p.kind()) {
      case ListPattern::Kind::kPred: {
        if (pos >= list_.size()) return;
        const NodePayload& e = list_.at(pos);
        if (!e.is_cell()) return;
        const uint32_t slot = slots != nullptr
                                  ? slots->SlotOf(&p)
                                  : PredicateAlphabet::kNoSlot;
        if (slot != PredicateAlphabet::kNoSlot) {
          if (!TestBit(column_ + pos * slots->stride(), slot)) return;
        } else {
          ++pred_evals_;
          if (!p.pred()->Eval(store_, e.oid())) return;
        }
        break;
      }
      case ListPattern::Kind::kAny: {
        if (pos >= list_.size() || !list_.at(pos).is_cell()) return;
        break;
      }
      case ListPattern::Kind::kPoint: {
        // Alternative 1: close with NULL (consume nothing).
        cont(pos);
        // Alternative 2: consume one same-labeled instance point.
        if (pos >= list_.size()) return;
        const NodePayload& e = list_.at(pos);
        if (!e.is_concat_point() || e.label() != p.label()) return;
        break;
      }
      default:
        return;  // kTreeAtom was rejected by validation.
    }
    if (pruned) {
      prune_stack.push_back(pos);
      cont(pos + 1);
      prune_stack.pop_back();
    } else {
      cont(pos + 1);
    }
  };

  RegexEngine<decltype(atom)> engine(atom);

  for (size_t begin : begins) {
    if (hit_limit || over_budget || !cancel.ok()) break;
    if (begin > list_.size()) {
      return Status::OutOfRange("begin position beyond list end");
    }
    if (pattern.anchor_begin && begin != 0) continue;
    engine.Run(pattern.body.get(), begin, /*pruned=*/false,
               [&](size_t end) {
                 if (hit_limit) return;
                 if (pattern.anchor_end && end != list_.size()) return;
                 ListMatch m;
                 m.begin = begin;
                 m.end = end;
                 m.pruned = prune_stack;
                 std::sort(m.pruned.begin(), m.pruned.end());
                 out.push_back(std::move(m));
                 if (opts.max_matches > 0 &&
                     out.size() >= 4 * opts.max_matches + 64) {
                   // Soft stop; exact trimming happens after dedup below.
                   hit_limit = true;
                 }
               });
  }

  if (!cancel.ok()) return cancel;
  if (over_budget) {
    return Status::InvalidArgument(
        "list match exceeded the step budget of " +
        std::to_string(opts.max_steps) + " atom probes");
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (opts.distinct_extents_only) {
    std::vector<ListMatch> dedup;
    for (auto& m : out) {
      if (!dedup.empty() && dedup.back().begin == m.begin &&
          dedup.back().end == m.end) {
        continue;
      }
      dedup.push_back(std::move(m));
    }
    out = std::move(dedup);
  }
  if (opts.max_matches > 0 && out.size() > opts.max_matches) {
    out.resize(opts.max_matches);
  }
  return out;
}

Result<bool> ListMatcher::MatchesWhole(const ListPatternRef& body) {
  AnchoredListPattern anchored{body, /*anchor_begin=*/true,
                               /*anchor_end=*/true};
  ListMatchOptions opts;
  opts.max_matches = 1;
  AQUA_ASSIGN_OR_RETURN(std::vector<ListMatch> matches,
                        FindAll(anchored, opts));
  return !matches.empty();
}

}  // namespace aqua
