#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace reqbench {

using aqua::Datum;
using aqua::Oid;
using aqua::StoreView;

Hasher& Hasher::Add(uint64_t v) {
  uint64_t x = h_ ^ (v + 0x9e3779b97f4a7c15ull + (h_ << 6) + (h_ >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  h_ = x ^ (x >> 31);
  return *this;
}

namespace {

uint64_t HashPayload(const aqua::NodePayload& p) {
  if (p.is_cell()) return p.oid().value;
  return std::hash<std::string>{}(p.label()) | (1ull << 63);
}

uint64_t HashDatum(const Datum& d);

Answer SetAnswer(std::vector<uint64_t> elems) {
  std::sort(elems.begin(), elems.end());
  Hasher h;
  h.Add(elems.size());
  for (uint64_t e : elems) h.Add(e);
  return Answer{elems.size(), h.value()};
}

uint64_t HashDatum(const Datum& d) {
  Hasher h;
  switch (d.kind()) {
    case Datum::Kind::kNull:
      return 0x6e756c6cull;
    case Datum::Kind::kScalar:
      if (d.scalar().is_int()) return static_cast<uint64_t>(d.scalar().int_value());
      return std::hash<std::string>{}(d.scalar().ToString());
    case Datum::Kind::kTree: {
      const aqua::Tree& t = d.tree();
      for (aqua::NodeId n : t.Preorder()) {
        h.Add(HashPayload(t.payload(n))).Add(t.arity(n));
      }
      return h.value();
    }
    case Datum::Kind::kList:
      for (size_t i = 0; i < d.list().size(); ++i) {
        h.Add(HashPayload(d.list().at(i)));
      }
      return h.value();
    case Datum::Kind::kTuple:
      for (const Datum& f : d.children()) h.Add(HashDatum(f));
      return h.value();
    case Datum::Kind::kSet: {
      std::vector<uint64_t> elems;
      for (const Datum& e : d.children()) elems.push_back(HashDatum(e));
      return SetAnswer(std::move(elems)).hash;
    }
  }
  return 0;
}

// Reads one attribute through the snapshot; a missing attribute is a
// broken benchmark set-up, not a request failure.
aqua::Value Attr(const StoreView& view, Oid oid, const char* attr) {
  aqua::Result<aqua::Value> v = view.GetAttr(oid, attr);
  if (!v.ok()) {
    std::fprintf(stderr, "reqbench: oracle read failed: %s\n",
                 v.status().ToString().c_str());
    std::exit(1);
  }
  return *v;
}

}  // namespace

Answer Fingerprint(const Datum& d) {
  if (!d.is_set()) return Answer{1, HashDatum(d)};
  std::vector<uint64_t> elems;
  for (const Datum& e : d.children()) elems.push_back(HashDatum(e));
  return SetAnswer(std::move(elems));
}

Oracle::Oracle(const aqua::Database& db) {
  StoreView view = db.store().Snapshot();
  if (auto family = db.GetTree("family"); family.ok()) {
    const aqua::Tree& t = **family;
    sentinel_ = t.root();
    people_.resize(t.size());
    std::map<std::string, uint32_t> citizen_ids;
    for (aqua::NodeId n = 0; n < t.size(); ++n) {
      Person& p = people_[n];
      p.oid = t.payload(n).oid();
      p.name = Attr(view, p.oid, "name").string_value();
      p.citizen = Attr(view, p.oid, "citizen").string_value();
      p.children.assign(t.children(n).begin(), t.children(n).end());
      if (n == sentinel_) continue;
      auto [it, fresh] = citizen_ids.emplace(
          p.citizen, static_cast<uint32_t>(citizens_.size()));
      if (fresh) citizens_.push_back(p.citizen);
      aged_.push_back(
          {p.oid, it->second, Attr(view, p.oid, "age").int_value()});
    }
  }
  if (auto items = db.GetTree("items"); items.ok()) {
    const aqua::Tree& t = **items;
    items_.resize(t.size());
    std::vector<aqua::NodeId> pre = t.Preorder();
    for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
      Item& item = items_[*it];
      item.oid = t.payload(*it).oid();
      item.name = Attr(view, item.oid, "name").string_value();
      item.val = Attr(view, item.oid, "val").int_value();
      item.arity = t.arity(*it);
      if (t.parent(*it) != aqua::kInvalidNode) {
        items_[t.parent(*it)].subtree += item.subtree;
      }
    }
  }
  for (const std::string& name : db.ListNames()) {
    const aqua::List& list = **db.GetList(name);
    std::vector<Note>& notes = songs_[name];
    for (size_t i = 0; i < list.size(); ++i) {
      Oid oid = list.at(i).oid();
      notes.push_back({oid, Attr(view, oid, "pitch").string_value(),
                       Attr(view, oid, "duration").int_value()});
    }
  }
}

Answer Oracle::Expect(const ReadRequest& r, size_t plan) const {
  std::vector<uint64_t> elems;
  switch (r.tmpl) {
    case Template::kIndexedSubSelect:
    case Template::kForestPrune:
    case Template::kLargePrune: {
      // Parent matching the root predicate with one child matching the
      // child predicate; the pruned siblings are dropped from the match.
      bool by_name = r.tmpl == Template::kIndexedSubSelect;
      for (uint32_t n = 0; n < people_.size(); ++n) {
        const Person& p = people_[n];
        if (n == sentinel_ || (by_name ? p.name : p.citizen) != r.a) continue;
        for (uint32_t c : p.children) {
          if (people_[c].citizen != r.b) continue;
          elems.push_back(
              Hasher().Add(p.oid.value).Add(1).Add(people_[c].oid.value).Add(0).value());
        }
      }
      break;
    }
    case Template::kSplitContext: {
      // One match per item with the label and value; x is the whole tree
      // minus the match's subtree plus the context point, z its children.
      for (const Item& item : items_) {
        if (item.name != r.a || item.val != r.val) continue;
        elems.push_back(Hasher()
                            .Add(items_.size() - item.subtree + 1)
                            .Add(item.oid.value)
                            .Add(item.arity)
                            .value());
      }
      break;
    }
    case Template::kMotifBatch: {
      const std::vector<MotifAtom>& motif = r.motifs[plan];
      const std::vector<Note>& notes = songs_.at(r.collection);
      for (size_t i = 0; i + motif.size() <= notes.size(); ++i) {
        bool match = true;
        for (size_t j = 0; j < motif.size() && match; ++j) {
          const MotifAtom& a = motif[j];
          const Note& note = notes[i + j];
          match = a.kind == MotifAtom::Kind::kAny ||
                  (a.kind == MotifAtom::Kind::kPitch && note.pitch == a.pitch) ||
                  (a.kind == MotifAtom::Kind::kDuration &&
                   note.duration == a.duration);
        }
        if (!match) continue;
        Hasher h;
        for (size_t j = 0; j < motif.size(); ++j) h.Add(notes[i + j].oid.value);
        elems.push_back(h.value());
      }
      break;
    }
  }
  return SetAnswer(std::move(elems));
}

void Oracle::DropReadTables() {
  // Move-assigning empty containers frees their storage (`= {}` would
  // only clear).
  people_ = std::vector<Person>();
  items_ = std::vector<Item>();
  songs_.clear();
}

size_t Oracle::CitizenCount(const std::string& citizen) const {
  size_t n = 0;
  for (const Aged& p : aged_) n += citizens_[p.citizen] == citizen ? 1 : 0;
  return n;
}

size_t Oracle::AgeMismatches(const aqua::Database& db,
                             const std::vector<WriteRequest>& log) const {
  std::map<std::string, int64_t> last;
  for (const WriteRequest& w : log) last[w.citizen] = w.age;
  StoreView view = db.store().Snapshot();
  size_t bad = 0;
  for (const Aged& p : aged_) {
    auto it = last.find(citizens_[p.citizen]);
    int64_t want = it == last.end() ? p.age : it->second;
    aqua::Result<aqua::Value> got = view.GetAttr(p.oid, "age");
    if (!got.ok() || !got->is_int() || got->int_value() != want) ++bad;
  }
  return bad;
}

}  // namespace reqbench
