#include "requests.h"

#include <time.h>

#include <algorithm>
#include <random>

#include "oracle.h"

namespace reqbench {

using aqua::Database;
using aqua::Datum;
using aqua::PlanRef;
using aqua::Result;
using aqua::Tree;
using aqua::Value;
namespace Q = aqua::Q;

namespace {

const char* const kCitizens[] = {"USA", "Brazil", "France",
                                 "Japan", "India", "Kenya"};
// Citizenships of the forest prune: every one but USA (70% of people), so
// a request touches 5-10% of the forest.
const char* const kMinorCitizens[] = {"Brazil", "France", "Japan", "India",
                                      "Kenya"};
// The citizenships of 5% of people each: the large prune's parents and the
// writer's targets. Brazil (10%) is left out so that every large prune has
// a like-sized answer and every write rewrites as many persons.
const char* const kEvenCitizens[] = {"France", "Japan", "India", "Kenya"};
const char* const kPitches[] = {"A", "B", "C", "D", "E", "F", "G"};
const char* const kItemLabels[] = {"a", "b", "c", "d", "e"};
constexpr int kMaxDuration = 8;
// Pool sizes; a run cycles through its pool.
constexpr size_t kPoolPeriods = 16;  // tree pools: 16 periods of 40 requests
constexpr size_t kMotifBatches = 64;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string SongName(size_t i) { return "song" + std::to_string(i); }

std::string AtomText(const MotifAtom& a) {
  switch (a.kind) {
    case MotifAtom::Kind::kPitch:
      return "{pitch == " + Quote(a.pitch) + "}";
    case MotifAtom::Kind::kDuration:
      return "{duration == " + std::to_string(a.duration) + "}";
    case MotifAtom::Kind::kAny:
      return "?";
  }
  return "?";
}

ReadRequest MakeTreeRead(Template t, std::string a, std::string b,
                         int64_t val) {
  ReadRequest r;
  r.tmpl = t;
  r.a = std::move(a);
  r.b = std::move(b);
  r.val = val;
  switch (t) {
    case Template::kIndexedSubSelect:
    case Template::kForestPrune:
    case Template::kLargePrune:
      r.collection = "family";
      r.patterns = {"{" + std::string(t == Template::kIndexedSubSelect
                                          ? "name"
                                          : "citizen") +
                    " == " + Quote(r.a) + "}(!?* {citizen == " + Quote(r.b) +
                    "} !?*)"};
      break;
    case Template::kSplitContext:
      r.collection = "items";
      r.patterns = {"{name == " + Quote(r.a) +
                    " && val == " + std::to_string(r.val) + "}"};
      break;
    case Template::kMotifBatch:
      break;
  }
  return r;
}

// Element kinds of the 8 motifs of every batch, after the pitch head
// (P pitch, D duration, A any). Fixing the shapes keeps every batch's match
// counts alike: the cost of a list sub_select grows with the square of its
// match count (Datum sets dedup by linear scan), so a batch with "? ?"
// motifs would cost several times one without.
const char* const kMotifShapes[kMotifsPerBatch] = {"AP",  "DAP", "PD",  "APD",
                                                   "DP",  "PAD", "AD",  "DPP"};

ReadRequest DrawMotifBatch(size_t song, std::mt19937_64& rng) {
  ReadRequest r;
  r.tmpl = Template::kMotifBatch;
  r.collection = SongName(song);
  for (const char* shape : kMotifShapes) {
    // The head is always a pitch test: the songs are indexed on `duration`
    // only, so no motif is index-anchorable.
    std::string kinds = std::string("P") + shape;
    std::vector<MotifAtom> motif;
    std::string text;
    for (char kind : kinds) {
      MotifAtom a;
      if (kind == 'P') {
        a.kind = MotifAtom::Kind::kPitch;
        a.pitch = kPitches[rng() % 7];
      } else if (kind == 'D') {
        a.kind = MotifAtom::Kind::kDuration;
        a.duration = static_cast<int64_t>(1 + rng() % kMaxDuration);
      }
      text += (text.empty() ? "" : " ") + AtomText(a);
      motif.push_back(a);
    }
    r.motifs.push_back(std::move(motif));
    r.patterns.push_back(std::move(text));
  }
  return r;
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

bool HasIndexedOp(const PlanRef& plan) {
  if (plan == nullptr) return false;
  if (plan->op == aqua::PlanOp::kIndexedSubSelect ||
      plan->op == aqua::PlanOp::kIndexedListSubSelect) {
    return true;
  }
  for (const PlanRef& c : plan->children) {
    if (HasIndexedOp(c)) return true;
  }
  return false;
}

// The split function of the context template: summarizes each match's
// pieces as (|x|, root oid of y, |z|) so the oracle can check that x was
// materialized in full without rebuilding it.
Result<Datum> SummarizePieces(const Tree& x, const Tree& y,
                              const std::vector<Tree>& z) {
  return Datum::Tuple(
      {Datum::Scalar(Value::Int(static_cast<int64_t>(x.size()))),
       Datum::Scalar(Value::Int(
           static_cast<int64_t>(y.payload(y.root()).oid().value))),
       Datum::Scalar(Value::Int(static_cast<int64_t>(z.size())))});
}

Result<PlanRef> BuildReadPlan(const ReadRequest& r, const std::string& text) {
  aqua::PatternParserOptions popts;
  switch (r.tmpl) {
    case Template::kIndexedSubSelect: {
      AQUA_ASSIGN_OR_RETURN(aqua::TreePatternRef tp,
                            aqua::ParseTreePattern(text, popts));
      return Q::TreeSubSelect(Q::ScanTree(r.collection), tp);
    }
    case Template::kForestPrune:
    case Template::kLargePrune: {
      AQUA_ASSIGN_OR_RETURN(aqua::TreePatternRef tp,
                            aqua::ParseTreePattern(text, popts));
      // Dropping the sentinel root turns the family tree into a forest of
      // 48 families, so the sub_select fans out over them.
      AQUA_ASSIGN_OR_RETURN(aqua::PredicateRef families,
                            aqua::ParsePredicate("citizen != \"none\""));
      return Q::TreeSubSelect(
          Q::TreeSelect(Q::ScanTree(r.collection), families), tp);
    }
    case Template::kSplitContext: {
      AQUA_ASSIGN_OR_RETURN(aqua::TreePatternRef tp,
                            aqua::ParseTreePattern(text, popts));
      return Q::TreeSplit(Q::ScanTree(r.collection), tp, SummarizePieces);
    }
    case Template::kMotifBatch: {
      AQUA_ASSIGN_OR_RETURN(aqua::AnchoredListPattern lp,
                            aqua::ParseListPattern(text, popts));
      return Q::ListSubSelect(Q::ScanList(r.collection), lp);
    }
  }
  return aqua::Status::Internal("unknown template");
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kListBatch, Workload::kMixedRw}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kListBatch:
      return "list_batch";
    case Workload::kMixedRw:
      return "mixed_rw";
  }
  return "?";
}

const char* TemplateName(Template t) {
  switch (t) {
    case Template::kIndexedSubSelect:
      return "indexed_sub_select";
    case Template::kForestPrune:
      return "forest_prune";
    case Template::kLargePrune:
      return "large_prune";
    case Template::kSplitContext:
      return "split_context";
    case Template::kMotifBatch:
      return "motif_batch";
  }
  return "?";
}

std::vector<ReadRequest> DrawReads(Workload w, uint64_t seed) {
  // Constants are stratified (every citizenship, label and song appears
  // equally often, every batch has the same motif shapes) and only their
  // order and the free constants are random, so every seed yields the same
  // latency mix.
  std::mt19937_64 rng(Mix(seed) ^ 0x5eed);
  std::vector<ReadRequest> pool;
  if (w == Workload::kListBatch) {
    for (size_t i = 0; i < kMotifBatches; ++i) {
      pool.push_back(DrawMotifBatch(i % kSongs, rng));
    }
    std::shuffle(pool.begin(), pool.end(), rng);
    return pool;
  }
  // Per period of 40 requests: 17 indexed sub_selects, 18 splits, 4 forest
  // prunes and 1 large prune. The prune costs ~6x the cheap templates and
  // the large prune more again, so read_p95_ms falls inside the prune's
  // latency distribution and read_p50_ms inside the cheap templates', not
  // on the edge between two templates.
  std::vector<ReadRequest> indexed, prune, split, large;
  for (size_t i = 0; i < kPoolPeriods * 17; ++i) {
    indexed.push_back(MakeTreeRead(
        Template::kIndexedSubSelect,
        "P" + std::to_string(rng() % kPeoplePerFamily), kCitizens[i % 6], 0));
  }
  for (size_t i = 0; i < kPoolPeriods * 18; ++i) {
    split.push_back(MakeTreeRead(Template::kSplitContext, kItemLabels[i % 5],
                                 "", static_cast<int64_t>(rng() % kItemValRange)));
  }
  for (size_t i = 0; i < kPoolPeriods * 4; ++i) {
    prune.push_back(MakeTreeRead(Template::kForestPrune,
                                 kMinorCitizens[i % 5],
                                 kMinorCitizens[(i / 5) % 5], 0));
  }
  // The large prune's USA child gives it thousands of answer elements;
  // Datum sets dedup by linear scan, so the merge of its partial answers
  // costs the square of the answer size, and this template shows that cost.
  for (size_t i = 0; i < kPoolPeriods; ++i) {
    large.push_back(
        MakeTreeRead(Template::kLargePrune, kEvenCitizens[i % 4], "USA", 0));
  }
  for (auto* v : {&indexed, &prune, &split, &large}) {
    std::shuffle(v->begin(), v->end(), rng);
  }
  size_t ia = 0, ib = 0, ic = 0, id = 0;
  for (size_t i = 0; i < kPoolPeriods * 40; ++i) {
    size_t slot = i % 40;
    if (slot == 25) {
      pool.push_back(large[id++]);
    } else if (slot % 10 == 0) {
      pool.push_back(prune[ib++]);
    } else if ((slot % 2 == 1) == (slot % 20 < 10)) {
      pool.push_back(indexed[ia++]);
    } else {
      pool.push_back(split[ic++]);
    }
  }
  return pool;
}

WriteRequest DrawWrite(uint64_t seed, uint64_t k) {
  // The citizenships take turns, so every run writes the same mix.
  uint64_t h = Mix(Mix(seed) ^ (k + 1));
  WriteRequest w;
  w.citizen = kEvenCitizens[(Mix(seed) + k) % 4];
  w.age = static_cast<int64_t>(5 + h % 90);
  return w;
}

std::unique_ptr<Database> BuildDatabase(Workload w, uint64_t seed,
                                        SetupTimes* times) {
  auto db = std::make_unique<Database>();
  auto check = [](const aqua::Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "reqbench: set-up failed: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
  };
  int64_t t0 = NowNs();
  std::vector<std::string> indexed;  // (collection, attr) pairs, flattened
  if (w == Workload::kListBatch) {
    for (size_t i = 0; i < kSongs; ++i) {
      aqua::SongSpec spec;
      spec.num_notes = kShortestSong + i * kSongLengthStep;
      spec.max_duration = kMaxDuration;
      spec.seed = Mix(seed) + i;
      Result<aqua::List> song = aqua::MakeSong(db->store(), spec);
      check(song.status());
      check(db->RegisterList(SongName(i), std::move(*song)));
      indexed.push_back(SongName(i));
      indexed.push_back("duration");
    }
  } else {
    std::vector<Tree> families;
    for (size_t i = 0; i < kFamilies; ++i) {
      aqua::FamilyTreeSpec spec;
      spec.num_people = kPeoplePerFamily;
      spec.seed = Mix(seed) + i;
      Result<Tree> t = aqua::MakeFamilyTree(db->store(), spec);
      check(t.status());
      families.push_back(std::move(*t));
    }
    Result<aqua::Oid> sentinel = db->store().Create(
        "Person", {{"name", Value::String("forest")},
                   {"citizen", Value::String("none")},
                   {"eyes", Value::String("none")},
                   {"education", Value::String("none")},
                   {"age", Value::Int(0)}});
    check(sentinel.status());
    check(db->RegisterTree(
        "family",
        Tree::Node(aqua::NodePayload::Cell(*sentinel), families)));
    aqua::RandomTreeSpec spec;
    spec.num_nodes = kItemNodes;
    spec.val_range = kItemValRange;
    spec.seed = Mix(seed) ^ 0x17e5;
    Result<Tree> items = aqua::MakeRandomTree(db->store(), spec);
    check(items.status());
    check(db->RegisterTree("items", std::move(*items)));
    indexed = {"family", "name", "family", "citizen"};
  }
  int64_t t1 = NowNs();
  for (size_t i = 0; i + 1 < indexed.size(); i += 2) {
    check(db->CreateIndex(indexed[i], indexed[i + 1]));
  }
  int64_t t2 = NowNs();
  times->generate_s = static_cast<double>(t1 - t0) / 1e9;
  times->index_ms = static_cast<double>(t2 - t1) / 1e6;
  return db;
}

Client::Client(Database* db, size_t threads)
    : db_(db), exec_(db), rewriter_(db, &aqua::obs::StatsWarehouse::Global()) {
  exec_.set_threads(threads);
  rewriter_.AddDefaultRules();
}

ReadOutcome Client::Read(const ReadRequest& r, SpanLog* log,
                         uint64_t request_id) {
  ReadOutcome out;
  std::vector<PlanRef> plans;
  std::vector<Result<Datum>> results;
  auto fail = [&](const std::string& what, const aqua::Status& s) {
    out.error = what + ": " + s.ToString();
    return out;
  };
  int64_t t0 = NowNs();
  {
    Span request(log, request_id, "request");
    {
      Span span(log, request_id, "parse", &request);
      for (const std::string& text : r.patterns) {
        Result<PlanRef> plan = BuildReadPlan(r, text);
        if (!plan.ok()) return fail("parse", plan.status());
        plans.push_back(std::move(*plan));
      }
    }
    {
      Span span(log, request_id, "lint", &request);
      for (const PlanRef& plan : plans) {
        if (aqua::lint::HasErrors(aqua::lint::LintPlan(*db_, plan))) {
          return fail("lint", aqua::Status::InvalidArgument("plan refused"));
        }
      }
    }
    {
      Span span(log, request_id, "optimize", &request);
      for (PlanRef& plan : plans) {
        Result<PlanRef> opt = rewriter_.Optimize(plan);
        if (!opt.ok()) return fail("optimize", opt.status());
        plan = std::move(*opt);
      }
    }
    {
      Span span(log, request_id, "execute", &request);
      if (r.tmpl == Template::kMotifBatch) {
        // ExecuteBatch does not report per-group CPU; the group runs on
        // this thread (list_batch clients use one executor thread).
        uint64_t cpu0 = ThreadCpuNs();
        results = exec_.ExecuteBatch(plans);
        out.cpu_ns = ThreadCpuNs() - cpu0;
      } else {
        results.push_back(exec_.Execute(plans[0]));
        out.cpu_ns = exec_.stats().cpu_ns;
        out.mem_peak_bytes = exec_.stats().mem_peak_bytes;
      }
    }
  }
  out.latency_ns = NowNs() - t0;

  out.plans = plans.size();
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) return fail("execute", results[i].status());
    out.answers.push_back(Fingerprint(*results[i]));
    if (HasIndexedOp(plans[i])) {
      out.indexed_plans += 1;
      out.indexed_results += out.answers.back().count;
    }
  }
  if (out.indexed_plans > 0 && r.tmpl != Template::kMotifBatch) {
    out.index_candidates = exec_.stats().index_candidates;
  }
  out.ok = true;
  return out;
}

WriteOutcome Client::Write(const WriteRequest& w, SpanLog* log,
                           uint64_t request_id) {
  WriteOutcome out;
  auto fail = [&](const std::string& what, const aqua::Status& s) {
    out.error = what + ": " + s.ToString();
    return out;
  };
  int64_t t0 = NowNs();
  Result<Datum> result = Datum();
  {
    Span write(log, request_id, "write");
    PlanRef plan;
    {
      Span span(log, request_id, "parse", &write);
      Result<aqua::PredicateRef> pred =
          aqua::ParsePredicate("citizen == " + Quote(w.citizen));
      if (!pred.ok()) return fail("parse", pred.status());
      // An in-place set_attr on a non-indexed attribute that no guard
      // reads: lint certifies it for the parallel snapshot-delta path.
      plan = Q::TreeApplyExpr(
          Q::TreeSelect(Q::ScanTree("family"), *pred),
          aqua::FnExpr::SetAttr({{"age", Value::Int(w.age)}}));
    }
    {
      Span span(log, request_id, "lint", &write);
      if (aqua::lint::HasErrors(aqua::lint::LintPlan(*db_, plan))) {
        return fail("lint", aqua::Status::InvalidArgument("plan refused"));
      }
    }
    {
      Span span(log, request_id, "optimize", &write);
      Result<PlanRef> opt = rewriter_.Optimize(plan);
      if (!opt.ok()) return fail("optimize", opt.status());
      plan = std::move(*opt);
    }
    {
      Span span(log, request_id, "execute", &write);
      result = exec_.Execute(plan);
    }
  }
  out.latency_ns = NowNs() - t0;
  if (!result.ok()) return fail("execute", result.status());
  for (const Datum& t : result->children()) {
    if (t.is_tree()) out.nodes += t.tree().size();
  }
  out.ok = true;
  return out;
}

}  // namespace reqbench
