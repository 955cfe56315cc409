// bench_multi_query — the batched-pattern headline number: one merged
// product-automaton scan (shared predicate alphabet, columnar kernels, see
// src/pattern/multi.h) answering N pattern queries against N independent
// scans of the same collection.
//
// The tree sweep reuses the fig4 forest workload (48 equal family subtrees
// under a sentinel root); each query is a rare conjunction
// `{name == "P<k>" && citizen == <rare country>}`, so the columnar
// necessary-predicate gate rules most (family, pattern) pairs out without
// running the matcher. The list sweep probes a 100k-note song with
// two-note motif patterns, and — the dense rows — with motifs shaped like
// the request benchmark's, every one of which matches. Sequential = one
// `Execute` per plan; batched = one `ExecuteBatch` over the identical
// plans — tests/exec/batched_match proves the outputs byte-identical, this
// file measures the price.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "query/builder.h"
#include "query/executor.h"

namespace aqua {
namespace {

using bench::Check;
using bench::OrDie;

const char* kRareCountry[] = {"France", "Japan", "India", "Kenya"};
const char* kPitches[] = {"A", "B", "C", "D", "E", "F", "G"};

// The fig4 forest: 48 equal-size random families under a sentinel root the
// select drops, yielding a balanced 48-item fan-out.
void RegisterFig4Forest(Database* db, size_t people) {
  constexpr size_t kFamilies = 48;
  Check(RegisterPersonType(db->store()));
  std::vector<Tree> families;
  for (size_t i = 0; i < kFamilies; ++i) {
    FamilyTreeSpec spec;
    spec.num_people = people / kFamilies;
    spec.brazil_fraction = 0.15;
    spec.seed = 1000 + i;
    families.push_back(OrDie(MakeFamilyTree(db->store(), spec)));
  }
  Oid sentinel = OrDie(
      db->store().Create("Person", {{"name", Value::String("forest")},
                                    {"citizen", Value::String("none")},
                                    {"eyes", Value::String("blue")},
                                    {"education", Value::String("HS")},
                                    {"age", Value::Int(0)}}));
  Check(db->RegisterTree(
      "family", Tree::Node(NodePayload::Cell(sentinel), families)));
}

// N sub_selects over one shared forest child. Pattern j looks for one rare
// (name, citizen) conjunction; the names exist in every family, the rare
// citizenship in few, so each pattern matches a handful of people forest-
// wide.
std::vector<PlanRef> TreePatternPlans(size_t n) {
  PlanRef child = Q::TreeSelect(
      Q::ScanTree("family"),
      Predicate::Not(Predicate::AttrEquals("citizen",
                                           Value::String("none"))));
  std::vector<PlanRef> plans;
  for (size_t j = 0; j < n; ++j) {
    auto pred = Predicate::And(
        Predicate::AttrEquals("name",
                              Value::String("P" + std::to_string(3 + j))),
        Predicate::AttrEquals("citizen",
                              Value::String(kRareCountry[j % 4])));
    plans.push_back(Q::TreeSubSelect(child, TreePattern::Leaf(pred)));
  }
  return plans;
}

size_t RunBatched(Executor& exec, const std::vector<PlanRef>& plans,
                  benchmark::State& state) {
  std::vector<Result<Datum>> out = exec.ExecuteBatch(plans);
  size_t total = 0;
  for (const auto& r : out) {
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return total;
    }
    total += r->size();
  }
  return total;
}

size_t RunSequential(Executor& exec, const std::vector<PlanRef>& plans,
                     benchmark::State& state) {
  size_t total = 0;
  for (const auto& p : plans) {
    Result<Datum> r = exec.Execute(p);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return total;
    }
    total += r->size();
  }
  return total;
}

constexpr size_t kForestPeople = 16384;

void BM_MultiQuery_TreeBatched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  Database db;
  RegisterFig4Forest(&db, kForestPeople);
  std::vector<PlanRef> plans = TreePatternPlans(n);
  Executor exec(&db);
  exec.set_threads(threads);
  size_t matches = 0;
  for (auto _ : state) {
    matches = RunBatched(exec, plans, state);
    benchmark::DoNotOptimize(matches);
  }
  state.counters["patterns"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_MultiQuery_TreeBatched)
    ->Args({2, 1})->Args({8, 1})->Args({16, 1})
    ->Args({2, 4})->Args({8, 4})->Args({16, 4})
    ->UseRealTime();

void BM_MultiQuery_TreeSequential(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  Database db;
  RegisterFig4Forest(&db, kForestPeople);
  std::vector<PlanRef> plans = TreePatternPlans(n);
  Executor exec(&db);
  exec.set_threads(threads);
  size_t matches = 0;
  for (auto _ : state) {
    matches = RunSequential(exec, plans, state);
    benchmark::DoNotOptimize(matches);
  }
  state.counters["patterns"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_MultiQuery_TreeSequential)
    ->Args({2, 1})->Args({8, 1})->Args({16, 1})
    ->Args({2, 4})->Args({8, 4})->Args({16, 4})
    ->UseRealTime();

// N two-note motif queries over one long song. Each motif is a rare
// (pitch, duration) pair sequence, so the merged existence scan answers
// most patterns negatively from one columnar pass instead of N independent
// per-note store walks.
std::vector<PlanRef> SongPatternPlans(size_t n) {
  PlanRef child = Q::ScanList("song");
  std::vector<PlanRef> plans;
  for (size_t j = 0; j < n; ++j) {
    auto first = Predicate::And(
        Predicate::AttrEquals("pitch", Value::String(kPitches[j % 7])),
        Predicate::AttrEquals("duration", Value::Int(7)));
    auto second = Predicate::And(
        Predicate::AttrEquals("pitch",
                              Value::String(kPitches[(j + 3) % 7])),
        Predicate::AttrEquals("duration", Value::Int(8)));
    AnchoredListPattern lp;
    lp.body = ListPattern::Concat(
        {ListPattern::Pred(first), ListPattern::Pred(second)});
    plans.push_back(Q::ListSubSelect(child, lp));
  }
  return plans;
}

// N motifs shaped like the request benchmark's motif batches: a pitch
// head, then pitch / duration / any atoms. Over a long random song every
// motif matches many times, so every pattern's matcher runs — the dense
// case, where the matchers read the merged scan's signature column.
std::vector<PlanRef> DenseSongPatternPlans(size_t n) {
  const char* kShapes[] = {"AP", "DAP", "PD", "APD", "DP", "PAD", "AD", "DPP"};
  PlanRef child = Q::ScanList("song");
  std::vector<PlanRef> plans;
  for (size_t j = 0; j < n; ++j) {
    std::vector<ListPatternRef> atoms;
    const std::string kinds = std::string("P") + kShapes[j % 8];
    for (size_t k = 0; k < kinds.size(); ++k) {
      switch (kinds[k]) {
        case 'P':
          atoms.push_back(ListPattern::Pred(Predicate::AttrEquals(
              "pitch", Value::String(kPitches[(3 * j + k) % 7]))));
          break;
        case 'D':
          atoms.push_back(ListPattern::Pred(Predicate::AttrEquals(
              "duration", Value::Int(static_cast<int64_t>(1 + (j + k) % 8)))));
          break;
        default:
          atoms.push_back(ListPattern::Any());
          break;
      }
    }
    AnchoredListPattern lp;
    lp.body = ListPattern::Concat(std::move(atoms));
    plans.push_back(Q::ListSubSelect(child, lp));
  }
  return plans;
}

constexpr size_t kSongNotes = 100000;

// One list sweep: N plans from `make` over a 100k-note song, answered by
// one `ExecuteBatch` or by N `Execute`s.
void ListSweep(benchmark::State& state,
               std::vector<PlanRef> (*make)(size_t), bool batched) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  Database db;
  SongSpec spec;
  spec.num_notes = kSongNotes;
  Check(db.RegisterList("song", OrDie(MakeSong(db.store(), spec))));
  std::vector<PlanRef> plans = make(n);
  Executor exec(&db);
  exec.set_threads(threads);
  size_t matches = 0;
  for (auto _ : state) {
    matches = batched ? RunBatched(exec, plans, state)
                      : RunSequential(exec, plans, state);
    benchmark::DoNotOptimize(matches);
  }
  state.counters["patterns"] = static_cast<double>(n);
  state.counters["matches"] = static_cast<double>(matches);
}

void BM_MultiQuery_ListBatched(benchmark::State& state) {
  ListSweep(state, SongPatternPlans, /*batched=*/true);
}
BENCHMARK(BM_MultiQuery_ListBatched)
    ->Args({2, 1})->Args({8, 1})->Args({16, 1})
    ->UseRealTime();

void BM_MultiQuery_ListSequential(benchmark::State& state) {
  ListSweep(state, SongPatternPlans, /*batched=*/false);
}
BENCHMARK(BM_MultiQuery_ListSequential)
    ->Args({2, 1})->Args({8, 1})->Args({16, 1})
    ->UseRealTime();

void BM_MultiQuery_ListBatchedDense(benchmark::State& state) {
  ListSweep(state, DenseSongPatternPlans, /*batched=*/true);
}
BENCHMARK(BM_MultiQuery_ListBatchedDense)->Args({8, 1})->UseRealTime();

void BM_MultiQuery_ListSequentialDense(benchmark::State& state) {
  ListSweep(state, DenseSongPatternPlans, /*batched=*/false);
}
BENCHMARK(BM_MultiQuery_ListSequentialDense)->Args({8, 1})->UseRealTime();

}  // namespace
}  // namespace aqua

AQUA_BENCH_MAIN()
