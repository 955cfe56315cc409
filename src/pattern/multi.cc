#include "pattern/multi.h"

#include <algorithm>
#include <deque>

#include "obs/metrics.h"

namespace aqua {

namespace {

/// Unwraps prune markers: `!lp` matches like `lp` (§3.4 separates result
/// shaping from matching), so the merged automaton sees through them.
const ListPattern* UnwrapPrune(const ListPattern* p) {
  while (p->kind() == ListPattern::Kind::kPrune) p = p->inner().get();
  return p;
}

/// Flattens top-level concatenation (through prune markers) into a part
/// sequence, so trie merging sees each leading atom individually.
void FlattenConcat(const ListPattern* p, std::vector<const ListPattern*>* out) {
  p = UnwrapPrune(p);
  if (p->kind() == ListPattern::Kind::kConcat) {
    for (const auto& part : p->parts()) FlattenConcat(part.get(), out);
    return;
  }
  out->push_back(p);
}

bool IsSimpleAtom(const ListPattern* p) {
  switch (p->kind()) {
    case ListPattern::Kind::kPred:
    case ListPattern::Kind::kAny:
    case ListPattern::Kind::kPoint:
      return true;
    default:
      return false;
  }
}

/// Drives one left-to-right scan of `list` in chunks that grow
/// geometrically from 16 to 256 elements: each chunk's cells are evaluated
/// against the whole alphabet in one columnar pass, then `step(element,
/// sig)` runs per element while `more` holds (it starts as given and becomes
/// `step`'s result). `sig` points at a cell's packed signature (an all-zero
/// word when the alphabet is empty) and is null for a point. Small first
/// chunks keep an early match from paying for 256 elements of evaluation;
/// full-size later chunks keep long scans amortized.
///
/// With a `column`, every chunk's signatures also land there at their list
/// positions (`sig_stride()` words each, zero for points), and the chunks
/// go on to the end of the list after `step` stops, so each row is
/// evaluated exactly once for the automaton and every matcher that reads
/// the column. Counts the rows evaluated in `exec.batch_scan_rows` and
/// returns the number of elements stepped.
template <typename Step>
size_t ScanChunks(const PredicateAlphabet& alphabet, const StoreView& store,
                  const List& list, AlphabetScratch* scratch,
                  std::vector<uint64_t>* column, bool more, Step step) {
  constexpr size_t kFirstChunk = 16;
  constexpr size_t kMaxChunk = 256;
  static constexpr uint64_t kNoPreds = 0;
  const size_t stride = alphabet.sig_stride();
  if (column != nullptr) column->assign(list.size() * stride, 0);
  size_t evaluated = 0;
  size_t stepped = 0;
  for (size_t base = 0, chunk = kFirstChunk;
       (more || column != nullptr) && base < list.size();
       base += chunk, chunk = std::min(2 * chunk, kMaxChunk)) {
    const size_t end = std::min(base + chunk, list.size());
    scratch->oids.clear();
    for (size_t i = base; i < end; ++i) {
      const NodePayload& e = list.at(i);
      if (e.is_cell()) scratch->oids.push_back(e.oid());
    }
    alphabet.EvalBatch(store, scratch->oids.data(), scratch->oids.size(),
                       scratch);
    evaluated += end - base;
    size_t cell_pos = 0;
    for (size_t i = base; (more || column != nullptr) && i < end; ++i) {
      const NodePayload& e = list.at(i);
      const uint64_t* sig = nullptr;
      if (e.is_cell()) {
        sig = stride > 0 ? scratch->sigs.data() + cell_pos * stride
                         : &kNoPreds;
        if (column != nullptr) {
          std::copy(sig, sig + stride, column->data() + i * stride);
        }
        ++cell_pos;
      }
      if (more) {
        more = step(e, sig);
        ++stepped;
      }
    }
  }
  if (evaluated > 0) AQUA_OBS_COUNT("exec.batch_scan_rows", evaluated);
  return stepped;
}

}  // namespace

uint32_t MultiNfa::NewState() {
  states_.emplace_back();
  accept_masks_.push_back(0);
  return static_cast<uint32_t>(states_.size() - 1);
}

void MultiNfa::AddEdge(uint32_t from, Transition t) {
  states_[from].push_back(t);
}

uint32_t MultiNfa::InternLabel(const std::string& label) {
  for (size_t i = 0; i < point_labels_.size(); ++i) {
    if (point_labels_[i] == label) return static_cast<uint32_t>(i);
  }
  point_labels_.push_back(label);
  return static_cast<uint32_t>(point_labels_.size() - 1);
}

uint32_t MultiNfa::LabelIndex(const std::string& label) const {
  for (size_t i = 0; i < point_labels_.size(); ++i) {
    if (point_labels_[i] == label) return static_cast<uint32_t>(i);
  }
  return kNoLabel;
}

Result<MultiNfa::Frag> MultiNfa::Build(const ListPattern& p) {
  switch (p.kind()) {
    case ListPattern::Kind::kPred: {
      Frag f{NewState(), NewState()};
      AddEdge(f.start,
              {Transition::Kind::kPred, f.accept, alphabet_.Intern(p.pred())});
      return f;
    }
    case ListPattern::Kind::kAny: {
      Frag f{NewState(), NewState()};
      AddEdge(f.start, {Transition::Kind::kAnyCell, f.accept, 0});
      return f;
    }
    case ListPattern::Kind::kPoint: {
      Frag f{NewState(), NewState()};
      // A pattern point closes with NULL (epsilon) or consumes one
      // same-labeled instance point.
      AddEdge(f.start, {Transition::Kind::kEpsilon, f.accept, 0});
      AddEdge(f.start,
              {Transition::Kind::kPoint, f.accept, InternLabel(p.label())});
      return f;
    }
    case ListPattern::Kind::kConcat: {
      Frag f{NewState(), 0};
      uint32_t cur = f.start;
      for (const auto& part : p.parts()) {
        AQUA_ASSIGN_OR_RETURN(Frag sub, Build(*part));
        AddEdge(cur, {Transition::Kind::kEpsilon, sub.start, 0});
        cur = sub.accept;
      }
      f.accept = cur;
      return f;
    }
    case ListPattern::Kind::kAlt: {
      Frag f{NewState(), NewState()};
      for (const auto& part : p.parts()) {
        AQUA_ASSIGN_OR_RETURN(Frag sub, Build(*part));
        AddEdge(f.start, {Transition::Kind::kEpsilon, sub.start, 0});
        AddEdge(sub.accept, {Transition::Kind::kEpsilon, f.accept, 0});
      }
      return f;
    }
    case ListPattern::Kind::kStar: {
      AQUA_ASSIGN_OR_RETURN(Frag body, Build(*p.inner()));
      Frag f{NewState(), NewState()};
      AddEdge(f.start, {Transition::Kind::kEpsilon, f.accept, 0});
      AddEdge(f.start, {Transition::Kind::kEpsilon, body.start, 0});
      AddEdge(body.accept, {Transition::Kind::kEpsilon, body.start, 0});
      AddEdge(body.accept, {Transition::Kind::kEpsilon, f.accept, 0});
      return f;
    }
    case ListPattern::Kind::kPlus: {
      AQUA_ASSIGN_OR_RETURN(Frag body, Build(*p.inner()));
      Frag f{NewState(), NewState()};
      AddEdge(f.start, {Transition::Kind::kEpsilon, body.start, 0});
      AddEdge(body.accept, {Transition::Kind::kEpsilon, body.start, 0});
      AddEdge(body.accept, {Transition::Kind::kEpsilon, f.accept, 0});
      return f;
    }
    case ListPattern::Kind::kPrune:
      return Build(*p.inner());
    case ListPattern::Kind::kTreeAtom:
      return Status::InvalidArgument(
          "tree-pattern atoms cannot be compiled to a list NFA");
  }
  return Status::Internal("unreachable in MultiNfa::Build");
}

Status MultiNfa::AddPattern(const ListPatternRef& pattern, uint32_t index,
                            uint32_t trie_root) {
  if (pattern == nullptr) return Status::InvalidArgument("null pattern");
  std::vector<const ListPattern*> parts;
  FlattenConcat(pattern.get(), &parts);

  // Walk the trie over the leading run of simple atoms, reusing states that
  // an earlier pattern with the same prefix already created.
  uint32_t cur = trie_root;
  size_t consumed = 0;
  for (; consumed < parts.size(); ++consumed) {
    const ListPattern* atom = UnwrapPrune(parts[consumed]);
    if (!IsSimpleAtom(atom)) break;
    uint64_t key = 0;
    switch (atom->kind()) {
      case ListPattern::Kind::kPred:
        key = (1ULL << 32) | alphabet_.Intern(atom->pred());
        break;
      case ListPattern::Kind::kAny:
        key = 2ULL << 32;
        break;
      case ListPattern::Kind::kPoint:
        key = (3ULL << 32) | InternLabel(atom->label());
        break;
      default:
        break;
    }
    auto it = trie_.find({cur, key});
    if (it != trie_.end()) {
      cur = it->second;
      ++trie_shared_states_;
      continue;
    }
    uint32_t child = NewState();
    switch (atom->kind()) {
      case ListPattern::Kind::kPred:
        AddEdge(cur, {Transition::Kind::kPred, child,
                      static_cast<uint32_t>(key & 0xffffffffu)});
        break;
      case ListPattern::Kind::kAny:
        AddEdge(cur, {Transition::Kind::kAnyCell, child, 0});
        break;
      case ListPattern::Kind::kPoint:
        AddEdge(cur, {Transition::Kind::kEpsilon, child, 0});
        AddEdge(cur, {Transition::Kind::kPoint, child,
                      static_cast<uint32_t>(key & 0xffffffffu)});
        break;
      default:
        break;
    }
    trie_.emplace(std::make_pair(cur, key), child);
    cur = child;
  }

  // Thompson-compile the non-trivial remainder, if any.
  for (; consumed < parts.size(); ++consumed) {
    AQUA_ASSIGN_OR_RETURN(Frag sub, Build(*parts[consumed]));
    AddEdge(cur, {Transition::Kind::kEpsilon, sub.start, 0});
    cur = sub.accept;
  }
  accept_masks_[cur] |= 1ULL << index;
  return Status::OK();
}

Result<MultiNfa> MultiNfa::CompileSearch(
    const std::vector<ListPatternRef>& patterns) {
  if (patterns.empty()) {
    return Status::InvalidArgument("empty pattern batch");
  }
  if (patterns.size() > 64) {
    return Status::InvalidArgument(
        "at most 64 patterns per merged automaton");
  }
  MultiNfa nfa;
  // One shared search loop feeding one shared trie root: matches may begin
  // at any position — after a concatenation point too, so the loop consumes
  // points as well as cells — discovered in a single left-to-right pass.
  uint32_t loop = nfa.NewState();
  uint32_t root = nfa.NewState();
  nfa.AddEdge(loop, {Transition::Kind::kAnyElement, loop, 0});
  nfa.AddEdge(loop, {Transition::Kind::kEpsilon, root, 0});
  nfa.start_ = loop;
  for (size_t j = 0; j < patterns.size(); ++j) {
    AQUA_RETURN_IF_ERROR(
        nfa.AddPattern(patterns[j], static_cast<uint32_t>(j), root));
  }
  nfa.num_patterns_ = patterns.size();
  nfa.full_mask_ = patterns.size() == 64
                       ? ~0ULL
                       : (1ULL << patterns.size()) - 1;
  nfa.alphabet_.Seal();
  nfa.trie_.clear();
  return nfa;
}

void MultiNfa::EpsClosure(std::vector<bool>* set) const {
  std::deque<uint32_t> work;
  for (uint32_t s = 0; s < set->size(); ++s) {
    if ((*set)[s]) work.push_back(s);
  }
  while (!work.empty()) {
    uint32_t s = work.front();
    work.pop_front();
    for (const Transition& t : states_[s]) {
      if (t.kind == Transition::Kind::kEpsilon && !(*set)[t.target]) {
        (*set)[t.target] = true;
        work.push_back(t.target);
      }
    }
  }
}

uint64_t MultiNfa::AcceptMask(const std::vector<bool>& set) const {
  uint64_t mask = 0;
  for (uint32_t s = 0; s < set.size(); ++s) {
    if (set[s]) mask |= accept_masks_[s];
  }
  return mask;
}

std::vector<bool> MultiNfa::StepCell(const std::vector<bool>& from,
                                     const uint64_t* sig) const {
  std::vector<bool> next(states_.size(), false);
  for (uint32_t s = 0; s < from.size(); ++s) {
    if (!from[s]) continue;
    for (const Transition& t : states_[s]) {
      switch (t.kind) {
        case Transition::Kind::kEpsilon:
        case Transition::Kind::kPoint:
          break;
        case Transition::Kind::kPred:
          if ((sig[t.index >> 6] >> (t.index & 63)) & 1) {
            next[t.target] = true;
          }
          break;
        case Transition::Kind::kAnyCell:
        case Transition::Kind::kAnyElement:
          next[t.target] = true;
          break;
      }
    }
  }
  EpsClosure(&next);
  return next;
}

std::vector<bool> MultiNfa::StepPoint(const std::vector<bool>& from,
                                      uint32_t label_index) const {
  std::vector<bool> next(states_.size(), false);
  for (uint32_t s = 0; s < from.size(); ++s) {
    if (!from[s]) continue;
    for (const Transition& t : states_[s]) {
      if ((t.kind == Transition::Kind::kPoint && t.index == label_index) ||
          t.kind == Transition::Kind::kAnyElement) {
        next[t.target] = true;
      }
    }
  }
  EpsClosure(&next);
  return next;
}

uint64_t MultiNfa::MatchAll(const StoreView& store, const List& list,
                            AlphabetScratch* scratch,
                            std::vector<uint64_t>* column) const {
  std::vector<bool> cur(states_.size(), false);
  cur[start_] = true;
  EpsClosure(&cur);
  uint64_t matched = AcceptMask(cur);

  const size_t steps = ScanChunks(
      alphabet_, store, list, scratch, column, matched != full_mask_,
      [&](const NodePayload& e, const uint64_t* sig) {
        cur = sig != nullptr ? StepCell(cur, sig)
                             : StepPoint(cur, LabelIndex(e.label()));
        matched |= AcceptMask(cur);
        return matched != full_mask_;
      });
  if (steps > 0) AQUA_OBS_COUNT("pattern.nfa_steps", steps);
  return matched;
}

LazyMultiDfa::LazyMultiDfa(const MultiNfa* nfa) : nfa_(nfa) {
  std::vector<bool> start(nfa_->num_states(), false);
  start[nfa_->start()] = true;
  nfa_->EpsClosure(&start);
  start_state_ = InternState(start);
}

Result<LazyMultiDfa> LazyMultiDfa::Make(const MultiNfa* nfa) {
  if (nfa == nullptr) return Status::InvalidArgument("null MultiNfa");
  if (nfa->alphabet().size() > 58) {
    return Status::InvalidArgument(
        "too many alphabet predicates for 64-bit signatures");
  }
  return LazyMultiDfa(nfa);
}

uint32_t LazyMultiDfa::InternState(const std::vector<bool>& set) {
  auto it = state_ids_.find(set);
  if (it != state_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(dfa_states_.size());
  dfa_states_.push_back(set);
  state_accept_masks_.push_back(nfa_->AcceptMask(set));
  state_ids_.emplace(set, id);
  return id;
}

uint32_t LazyMultiDfa::StepState(uint32_t state, uint64_t sig, bool is_cell,
                                 uint32_t label_index) {
  // Cell signatures set bit 63 over the (≤58-bit) predicate word; point
  // signatures encode label+1 (so an unknown label is distinct from any
  // cell and from every known label).
  const uint64_t key =
      is_cell ? (1ULL << 63) | sig
              : static_cast<uint64_t>(label_index) + 1;
  auto it = trans_.find({state, key});
  if (it != trans_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  std::vector<bool> next =
      is_cell ? nfa_->StepCell(dfa_states_[state], &sig)
              : nfa_->StepPoint(dfa_states_[state], label_index);
  uint32_t id = InternState(next);
  trans_.emplace(std::make_pair(state, key), id);
  return id;
}

uint64_t LazyMultiDfa::MatchAll(const StoreView& store, const List& list,
                                AlphabetScratch* scratch,
                                std::vector<uint64_t>* column) {
  uint64_t matched = state_accept_masks_[start_state_];
  const uint64_t full = nfa_->full_mask();

  const uint64_t hits0 = hits_;
  const uint64_t misses0 = misses_;
  uint32_t state = start_state_;
  ScanChunks(nfa_->alphabet(), store, list, scratch, column, matched != full,
             [&](const NodePayload& e, const uint64_t* sig) {
               state = sig != nullptr
                           ? StepState(state, *sig, true, 0)
                           : StepState(state, 0, false,
                                       nfa_->LabelIndex(e.label()));
               matched |= state_accept_masks_[state];
               return matched != full;
             });
  if (hits_ > hits0) AQUA_OBS_COUNT("pattern.dfa_hits", hits_ - hits0);
  if (misses_ > misses0) {
    AQUA_OBS_COUNT("pattern.dfa_misses", misses_ - misses0);
    // Each miss fell back to one NFA simulation step.
    AQUA_OBS_COUNT("pattern.nfa_steps", misses_ - misses0);
  }
  return matched;
}

}  // namespace aqua
