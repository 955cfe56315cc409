// E6 — §2: equality as an operator parameter.
//
// Measures the base set algebra under identity equality (pointer-style,
// O(1) per comparison) vs shallow value equality (attribute-wise), the
// knob AQUA exposes instead of hard-coding one notion of equality.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace aqua {
namespace {

using bench::Check;
using bench::OrDie;

struct Workload {
  ObjectStore store;
  OidSet s1;
  OidSet s2;
};

std::unique_ptr<Workload> MakeWorkload(size_t n) {
  auto w = std::make_unique<Workload>();
  Check(RegisterItemType(w->store));
  // Half the values overlap between the two sets (so value equality finds
  // duplicates identity equality does not).
  for (size_t i = 0; i < n; ++i) {
    w->s1.push_back(bench::OrDie(w->store.Create(
        "Item", {{"name", Value::String("n" + std::to_string(i))},
                 {"val", Value::Int(static_cast<int64_t>(i))}})));
    w->s2.push_back(bench::OrDie(w->store.Create(
        "Item", {{"name", Value::String("n" + std::to_string(i + n / 2))},
                 {"val", Value::Int(static_cast<int64_t>(i + n / 2))}})));
  }
  return w;
}

void BM_SetUnion_Identity(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)));
  EqFn eq = IdentityEq();
  size_t n = 0;
  for (auto _ : state) {
    n = SetUnion(w->s1, w->s2, eq).size();
    benchmark::DoNotOptimize(n);
  }
  state.counters["out"] = static_cast<double>(n);
}
BENCHMARK(BM_SetUnion_Identity)->Arg(64)->Arg(256)->Arg(1024);

void BM_SetUnion_ValueEq(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)));
  EqFn eq = ShallowValueEq(&w->store);
  size_t n = 0;
  for (auto _ : state) {
    n = SetUnion(w->s1, w->s2, eq).size();
    benchmark::DoNotOptimize(n);
  }
  state.counters["out"] = static_cast<double>(n);
}
BENCHMARK(BM_SetUnion_ValueEq)->Arg(64)->Arg(256)->Arg(1024);

void BM_SetIntersect_Identity(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)));
  EqFn eq = IdentityEq();
  size_t n = 0;
  for (auto _ : state) {
    n = SetIntersect(w->s1, w->s2, eq).size();
    benchmark::DoNotOptimize(n);
  }
  state.counters["out"] = static_cast<double>(n);
}
BENCHMARK(BM_SetIntersect_Identity)->Arg(64)->Arg(256)->Arg(1024);

void BM_SetIntersect_ValueEq(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)));
  EqFn eq = ShallowValueEq(&w->store);
  size_t n = 0;
  for (auto _ : state) {
    n = SetIntersect(w->s1, w->s2, eq).size();
    benchmark::DoNotOptimize(n);
  }
  state.counters["out"] = static_cast<double>(n);
}
BENCHMARK(BM_SetIntersect_ValueEq)->Arg(64)->Arg(256)->Arg(1024);

void BM_SetSelect(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)));
  PredicateRef pred =
      Predicate::Compare("val", CmpOp::kLt,
                         Value::Int(static_cast<int64_t>(state.range(0) / 4)));
  size_t n = 0;
  for (auto _ : state) {
    n = SetSelect(w->store, w->s1, pred).size();
    benchmark::DoNotOptimize(n);
  }
  state.counters["out"] = static_cast<double>(n);
}
BENCHMARK(BM_SetSelect)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BagOps(benchmark::State& state) {
  auto w = MakeWorkload(static_cast<size_t>(state.range(0)));
  EqFn eq = IdentityEq();
  OidBag doubled = BagUnion(w->s1, w->s1);
  size_t n = 0;
  for (auto _ : state) {
    n = BagIntersect(doubled, w->s1, eq).size() +
        BagDifference(doubled, w->s1, eq).size();
    benchmark::DoNotOptimize(n);
  }
  state.counters["out"] = static_cast<double>(n);
}
BENCHMARK(BM_BagOps)->Arg(64)->Arg(256)->Arg(1024);

/// Deep-equality set dedup (`Datum` sets, §2): builds a set of N distinct
/// 3-node trees (small, so the working set stays cache-resident at both
/// sizes). A linear-scan dedup is quadratic in N; hash-indexed it is
/// linear, which the CI gate on time(4096)/time(512) checks.
void BM_DatumSet_DistinctTrees(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Datum> trees;
  trees.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trees.push_back(Datum::Of(
        Tree::Node(NodePayload::Cell(Oid(1 + i % 64)),
                   {Tree::Leaf(NodePayload::Cell(Oid(1 + i / 64))),
                    Tree::Leaf(NodePayload::Cell(Oid(1)))})));
  }
  size_t size = 0;
  for (auto _ : state) {
    Datum set = Datum::Set({});
    for (const Datum& t : trees) set.SetInsert(t);
    size = set.size();
    benchmark::DoNotOptimize(size);
  }
  Check(size == n ? Status::OK() : Status::Internal("trees not distinct"));
  state.counters["out"] = static_cast<double>(size);
}
BENCHMARK(BM_DatumSet_DistinctTrees)->Arg(512)->Arg(4096);

}  // namespace
}  // namespace aqua

AQUA_BENCH_MAIN()
