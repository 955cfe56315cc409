// Store-mutating applies under snapshot isolation: the certified parallel
// path (DeltaTxn per item + order-stable CommitBatch) must leave both the
// query result and the whole object store byte-identical to serial
// execution at every thread count — including the oids of objects the
// function creates. Each run gets a fresh, deterministically seeded
// database so serial and parallel runs mutate from the same starting state.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/compile.h"
#include "query/builder.h"
#include "query/executor.h"
#include "test_util.h"

namespace aqua {
namespace {

const size_t kThreadCounts[] = {1, 4, 16};

/// Oid-exact printer: byte equality of dumps implies the parallel path
/// allocated exactly the oids serial evaluation would have.
LabelFn OidLabel() {
  return [](Oid oid) { return "#" + std::to_string(oid.value); };
}

/// Every object in creation order, types and attribute values spelled out.
std::string FingerprintStore(const ObjectStore& store) {
  std::string out;
  for (uint64_t o = 1; o <= store.num_objects(); ++o) {
    auto obj = store.Get(Oid(o));
    if (!obj.ok()) return "error: " + obj.status().ToString();
    out += "#" + std::to_string(o) + " t" + std::to_string((*obj)->type());
    for (const Value& v : (*obj)->attrs()) out += " " + v.ToString();
    out += "\n";
  }
  return out;
}

class SnapshotApplyTest : public ::testing::Test {
 protected:
  /// The paper workloads every run starts from, seeded identically.
  static Status Populate(Database& db) {
    AQUA_RETURN_IF_ERROR(RegisterItemType(db.store()));
    AQUA_RETURN_IF_ERROR(RegisterPersonType(db.store()));

    FamilyTreeSpec family;
    family.num_people = 150;
    family.seed = 7;
    AQUA_ASSIGN_OR_RETURN(Tree f, MakeFamilyTree(db.store(), family));
    AQUA_RETURN_IF_ERROR(db.RegisterTree("family", std::move(f)));

    RandomTreeSpec rand;
    rand.num_nodes = 500;
    rand.seed = 11;
    AQUA_ASSIGN_OR_RETURN(Tree r, MakeRandomTree(db.store(), rand));
    AQUA_RETURN_IF_ERROR(db.RegisterTree("rand", std::move(r)));

    AQUA_ASSIGN_OR_RETURN(
        List items,
        MakeRandomList(db.store(), 150, {"a", "b", "c", "d"}, 13));
    return db.RegisterList("items", std::move(items));
  }

  struct RunOutcome {
    std::string result;  ///< oid-exact dump of the query output
    std::string store;   ///< full post-run store fingerprint
    uint64_t commits = 0;  ///< exec.apply_snapshot_commits this execute
  };

  Result<RunOutcome> Run(const PlanRef& plan, size_t threads) {
    Database db;
    AQUA_RETURN_IF_ERROR(Populate(db));
    Executor exec(&db);
    exec.set_threads(threads);
    AQUA_ASSIGN_OR_RETURN(Datum out, exec.Execute(plan));
    RunOutcome o;
    o.result = out.ToString(OidLabel());
    o.store = FingerprintStore(db.store());
    o.commits =
        exec.last_counters().CounterValue("exec.apply_snapshot_commits");
    return o;
  }

  /// Serial is ground truth; every thread count must reproduce both the
  /// result bytes and the store bytes.
  void CheckMutatingDeterministic(const PlanRef& plan,
                                  const std::string& what) {
    ASSERT_OK_AND_ASSIGN(RunOutcome want, Run(plan, 1));
    for (size_t threads : kThreadCounts) {
      ASSERT_OK_AND_ASSIGN(RunOutcome got, Run(plan, threads));
      EXPECT_EQ(got.result, want.result)
          << what << ": result diverged at threads=" << threads;
      EXPECT_EQ(got.store, want.store)
          << what << ": store state diverged at threads=" << threads;
#ifndef AQUA_OBS_DISABLED
      // Counter sites compile out with the obs layer; the byte-identity
      // checks above still cover the no-obs build.
      EXPECT_EQ(got.commits, 1u)
          << what << ": expected one batch commit at threads=" << threads;
#endif
    }
  }

  TreePatternRef TP(const std::string& p) {
    auto tp = ParseTreePattern(p);
    EXPECT_TRUE(tp.ok()) << tp.status().ToString();
    return tp.ok() ? *tp : nullptr;
  }
  AnchoredListPattern LP(const std::string& p) {
    auto lp = ParseListPattern(p);
    EXPECT_TRUE(lp.ok()) << lp.status().ToString();
    return lp.ok() ? *lp : AnchoredListPattern{};
  }
  PredicateRef P(const std::string& p) {
    auto pred = ParsePredicate(p);
    EXPECT_TRUE(pred.ok()) << pred.status().ToString();
    return pred.ok() ? *pred : nullptr;
  }
};

TEST_F(SnapshotApplyTest, UpdateOnlyTreeApplyByteIdentical) {
  // `update` creates a fresh copy per cell, so the result trees are full of
  // newly allocated oids — the hardest case for oid-sequence identity.
  auto plan = Q::TreeApplyExpr(
      Q::TreeSubSelect(Q::ScanTree("rand"),
                       TP("{name == \"a\"}(?* {name == \"b\"} ?*)")),
      FnExpr::Update({{"val", Value::Int(0)}}));
  ASSERT_TRUE(exec::ApplySnapshotWriteCertified(plan));
  ASSERT_FALSE(exec::ApplyParallelCertified(plan));
  CheckMutatingDeterministic(plan, "update-only tree apply");
}

TEST_F(SnapshotApplyTest, GuardedUpdateDisjointAttrsByteIdentical) {
  // Guard reads `citizen`, the update writes nothing in place (fresh
  // copies only): disjoint, so the snapshot-write certification holds.
  auto plan = Q::TreeApplyExpr(
      Q::TreeSubSelect(
          Q::ScanTree("family"),
          TP("{citizen == \"Brazil\"}(?* {citizen == \"USA\"} ?*)")),
      FnExpr::Choose(P("citizen == \"USA\""),
                     FnExpr::Update({{"education", Value::String("Abroad")}}),
                     nullptr));
  ASSERT_TRUE(exec::ApplySnapshotWriteCertified(plan));
  CheckMutatingDeterministic(plan, "guarded disjoint update");
}

TEST_F(SnapshotApplyTest, GuardedSetAttrDisjointByteIdentical) {
  // In-place writes to `val` with a guard over `name`: the in-place write
  // set and read set are disjoint, so item-order folding is serial-exact.
  auto plan = Q::TreeApplyExpr(
      Q::TreeSubSelect(Q::ScanTree("rand"), TP("{name == \"a\"}(?*)")),
      FnExpr::Choose(P("name == \"c\""),
                     FnExpr::SetAttr({{"val", Value::Int(-5)}}), nullptr));
  ASSERT_TRUE(exec::ApplySnapshotWriteCertified(plan));
  CheckMutatingDeterministic(plan, "guarded disjoint set_attr");
}

TEST_F(SnapshotApplyTest, SetAttrApplyKeepsAnswersAndCreatesNoObjects) {
  // set_attr maps every cell to itself and creates nothing, so the apply's
  // answer is its input's answer and the store keeps its object count.
  auto pieces =
      Q::TreeSubSelect(Q::ScanTree("rand"), TP("{name == \"a\"}(?*)"));
  auto plan =
      Q::TreeApplyExpr(pieces, FnExpr::SetAttr({{"val", Value::Int(-5)}}));
  ASSERT_TRUE(exec::ApplySnapshotWriteCertified(plan));
  for (size_t threads : kThreadCounts) {
    Database db;
    ASSERT_OK(Populate(db));
    Executor exec(&db);
    exec.set_threads(threads);
    ASSERT_OK_AND_ASSIGN(Datum want, exec.Execute(pieces));
    const uint64_t objects = db.store().num_objects();
    ASSERT_OK_AND_ASSIGN(Datum got, exec.Execute(plan));
    EXPECT_GT(got.size(), 1u);
    EXPECT_EQ(got.ToString(OidLabel()), want.ToString(OidLabel()))
        << "threads=" << threads;
    EXPECT_EQ(db.store().num_objects(), objects) << "threads=" << threads;
  }
}

TEST_F(SnapshotApplyTest, UpdateOnlyListApplyByteIdentical) {
  auto plan = Q::ListApplyExpr(
      Q::ListSubSelect(Q::ScanList("items"), LP("a ?* b")),
      FnExpr::Update({{"val", Value::Int(1)}}));
  ASSERT_TRUE(exec::ApplySnapshotWriteCertified(plan));
  CheckMutatingDeterministic(plan, "update-only list apply");
}

TEST_F(SnapshotApplyTest, SplitByteIdenticalAcrossThreads) {
  // `split` runs serially against the query snapshot, but its output must
  // still be byte-stable across thread settings.
  SplitFn tuple3 = [](const Tree& x, const Tree& y,
                      const std::vector<Tree>& z) -> Result<Datum> {
    std::vector<Datum> zs;
    for (const Tree& t : z) zs.push_back(Datum::Of(t));
    return Datum::Tuple(
        {Datum::Of(x), Datum::Of(y), Datum::Tuple(std::move(zs))});
  };
  auto plan = Q::TreeSplit(Q::ScanTree("rand"),
                           TP("{name == \"a\"}(?* {name == \"b\"} ?*)"),
                           tuple3);
  ASSERT_OK_AND_ASSIGN(RunOutcome want, Run(plan, 1));
  for (size_t threads : kThreadCounts) {
    ASSERT_OK_AND_ASSIGN(RunOutcome got, Run(plan, threads));
    EXPECT_EQ(got.result, want.result)
        << "split diverged at threads=" << threads;
    EXPECT_EQ(got.store, want.store);
  }
}

TEST_F(SnapshotApplyTest, ListSplitByteIdenticalAcrossThreads) {
  ListSplitFn tuple3 = [](const List& x, const List& y,
                          const std::vector<List>& z) -> Result<Datum> {
    std::vector<Datum> zs;
    for (const List& l : z) zs.push_back(Datum::Of(l));
    return Datum::Tuple(
        {Datum::Of(x), Datum::Of(y), Datum::Tuple(std::move(zs))});
  };
  auto plan = Q::ListSplit(Q::ScanList("items"), LP("a ?* b"), tuple3);
  ASSERT_OK_AND_ASSIGN(RunOutcome want, Run(plan, 1));
  for (size_t threads : kThreadCounts) {
    ASSERT_OK_AND_ASSIGN(RunOutcome got, Run(plan, threads));
    EXPECT_EQ(got.result, want.result)
        << "list split diverged at threads=" << threads;
  }
}

TEST_F(SnapshotApplyTest, CertifiedApplyIsAllOrNothing) {
  // A certified apply whose function fails on some items must not commit
  // anything: deltas from the items that succeeded are discarded. (This is
  // a documented divergence from the serial path, which mutates the head
  // as it goes and leaves partial effects behind on error.)
  Database db;
  ASSERT_OK(Populate(db));
  std::string before = FingerprintStore(db.store());
  uint64_t epoch_before = db.store().epoch();

  // Writing a string into the int attr `val` fails eager validation at
  // evaluation time, but only on cells the guard accepts.
  auto plan = Q::TreeApplyExpr(
      Q::TreeSubSelect(Q::ScanTree("rand"),
                       TP("{name == \"a\"}(?* {name == \"b\"} ?*)")),
      FnExpr::Choose(P("name == \"b\""),
                     FnExpr::SetAttr({{"val", Value::String("boom")}}),
                     nullptr));
  ASSERT_TRUE(exec::ApplySnapshotWriteCertified(plan));

  for (size_t threads : kThreadCounts) {
    Executor exec(&db);
    exec.set_threads(threads);
    EXPECT_FALSE(exec.Execute(plan).ok());
    EXPECT_EQ(
        exec.last_counters().CounterValue("exec.apply_snapshot_commits"), 0u);
  }
  EXPECT_EQ(FingerprintStore(db.store()), before);
  EXPECT_EQ(db.store().epoch(), epoch_before);
}

TEST_F(SnapshotApplyTest, SuccessfulMutatingApplyBumpsOneEpoch) {
  Database db;
  ASSERT_OK(Populate(db));
  auto plan = Q::TreeApplyExpr(
      Q::TreeSubSelect(Q::ScanTree("rand"), TP("{name == \"a\"}(?*)")),
      FnExpr::Update({{"val", Value::Int(0)}}));

  Executor exec(&db);
  exec.set_threads(4);
  uint64_t epoch_before = db.store().epoch();
  ASSERT_OK(exec.Execute(plan).status());
  // One batch commit, one epoch: every object the apply created is stamped
  // into a single new version.
  EXPECT_EQ(db.store().epoch(), epoch_before + 1);
#ifndef AQUA_OBS_DISABLED
  EXPECT_EQ(
      exec.last_counters().CounterValue("exec.apply_snapshot_commits"), 1u);
#endif
}

// The query-level storm scripts/snapshot_storm.sh drives under TSan:
// certified mutating applies commit new store versions while concurrent
// read-only queries answer from whatever epoch they pinned. Update-only
// writes never touch pre-existing objects, so every reader must see the
// exact same result bytes no matter how many commits land mid-query.
TEST_F(SnapshotApplyTest, ConcurrentQueryStorm) {
  Database db;
  ASSERT_OK(Populate(db));

  auto read_plan = Q::TreeSubSelect(
      Q::ScanTree("rand"), TP("{name == \"a\"}(?* {name == \"b\"} ?*)"));
  auto write_plan = Q::TreeApplyExpr(
      Q::TreeSubSelect(Q::ScanTree("rand"), TP("{name == \"a\"}(?*)")),
      FnExpr::Update({{"val", Value::Int(0)}}));
  ASSERT_TRUE(exec::ApplySnapshotWriteCertified(write_plan));

  std::string want;
  {
    Executor exec(&db);
    ASSERT_OK_AND_ASSIGN(Datum out, exec.Execute(read_plan));
    want = out.ToString(OidLabel());
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 6; ++i) {
      Executor exec(&db);
      exec.set_threads(2);
      if (!exec.Execute(write_plan).ok()) ++failures;
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        Executor exec(&db);
        exec.set_threads(2);
        auto out = exec.Execute(read_plan);
        if (!out.ok() || out->ToString(OidLabel()) != want) ++failures;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace aqua
