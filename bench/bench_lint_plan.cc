// Plan lint cost against database size.
//
// Times `lint::LintPlan` on the logical plan of the paper's §4 query,
// split(Brazil(!?* USA !?*), λ(x,y,z)⟨x,y,z⟩) over a family forest (a
// sentinel root over 48 generated genealogies, selected away before the
// split). The plan reads only stored attributes, so the §3.1
// stored-attribute check (AQL011) must settle from the schema alone and the
// lint cost must not grow with the forest: CI asserts the ~200k-person time
// stays within 3x of the ~2k-person time.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "lint/lint.h"

namespace aqua {
namespace {

using bench::Check;
using bench::OrDie;

constexpr size_t kFamilies = 48;

/// One forest per size, built on first use and shared by every run of that
/// size (the 200k-person forest takes seconds to generate).
const Database& Forest(size_t people) {
  static auto* forests = new std::map<size_t, std::unique_ptr<Database>>();
  std::unique_ptr<Database>& db = (*forests)[people];
  if (db != nullptr) return *db;
  db = std::make_unique<Database>();
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
  return *db;
}

PlanRef BrazilUsaSplitPlan() {
  PredicateEnv env;
  env.Bind("Brazil",
           Predicate::AttrEquals("citizen", Value::String("Brazil")));
  env.Bind("USA", Predicate::AttrEquals("citizen", Value::String("USA")));
  PatternParserOptions popts;
  popts.env = &env;
  SplitFn tuple3 = [](const Tree& x, const Tree& y,
                      const std::vector<Tree>& z) -> Result<Datum> {
    std::vector<Datum> zs;
    for (const Tree& t : z) zs.push_back(Datum::Of(t));
    return Datum::Tuple(
        {Datum::Of(x), Datum::Of(y), Datum::Tuple(std::move(zs))});
  };
  return Q::TreeSplit(
      Q::TreeSelect(Q::ScanTree("family"),
                    Predicate::Not(Predicate::AttrEquals(
                        "citizen", Value::String("none")))),
      OrDie(ParseTreePattern("Brazil(!?* USA !?*)", popts)), tuple3);
}

void BM_LintPlan_BrazilUsa(benchmark::State& state) {
  const Database& db = Forest(static_cast<size_t>(state.range(0)));
  PlanRef plan = BrazilUsaSplitPlan();
  // The JSON report carries each run's `lint.collection_walks` delta; CI
  // expects zero.
  for (auto _ : state) {
    std::vector<lint::Diagnostic> diags = lint::LintPlan(db, plan);
    benchmark::DoNotOptimize(diags);
  }
  state.counters["nodes"] =
      static_cast<double>(OrDie(db.GetTree("family"))->size());
}
BENCHMARK(BM_LintPlan_BrazilUsa)->Arg(2016)->Arg(201600);

}  // namespace
}  // namespace aqua

AQUA_BENCH_MAIN()
