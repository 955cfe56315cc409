#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/compile.h"
#include "obs/metrics.h"
#include "query/builder.h"
#include "query/executor.h"
#include "test_util.h"
#include "workload/generators.h"

namespace aqua {
namespace {

// The query-group fast path must be invisible: for every plan in the batch,
// `ExecuteBatch` returns byte-for-byte what a standalone `Execute` of that
// plan returns, at any thread count.
class BatchedMatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(RegisterItemType(db_.store()));
    atom_ = MakeInterningAtomFn(&db_.store(), "Item", "name");
    ASSERT_OK_AND_ASSIGN(
        Tree t, ParseTreeLiteral("r(b(d e) x(b(d f)) b(g))", atom_));
    ASSERT_OK(db_.RegisterTree("t", std::move(t)));
    ASSERT_OK_AND_ASSIGN(List l,
                         ParseListLiteral("[a b c a b d a]", atom_));
    ASSERT_OK(db_.RegisterList("l", std::move(l)));
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

  /// Runs the batch and N standalone executes at `threads` and asserts the
  /// results agree plan by plan (values and error statuses both).
  void CheckBatchEqualsSequential(const std::vector<PlanRef>& plans,
                                  size_t threads) {
    Executor batch_exec(&db_);
    batch_exec.set_threads(threads);
    std::vector<Result<Datum>> batched = batch_exec.ExecuteBatch(plans);
    ASSERT_EQ(batched.size(), plans.size());

    // The reference runs serial (threads=1): fan-out merges are
    // order-stable, so any thread count must reproduce this exactly.
    Executor ref_exec(&db_);
    ref_exec.set_threads(1);
    for (size_t j = 0; j < plans.size(); ++j) {
      Result<Datum> expected = ref_exec.Execute(plans[j]);
      ASSERT_EQ(batched[j].ok(), expected.ok())
          << "plan " << j << " at threads=" << threads << ": batched="
          << (batched[j].ok() ? "ok" : batched[j].status().ToString())
          << " expected="
          << (expected.ok() ? "ok" : expected.status().ToString());
      if (expected.ok()) {
        EXPECT_TRUE(batched[j]->Equals(*expected))
            << "plan " << j << " diverged at threads=" << threads;
      } else {
        EXPECT_EQ(batched[j].status().code(), expected.status().code());
        EXPECT_EQ(batched[j].status().message(),
                  expected.status().message());
      }
    }
  }

  Database db_;
  AtomFn atom_;
};

TEST_F(BatchedMatchTest, TreeGroupMatchesSequentialAtAllThreadCounts) {
  PlanRef scan = Q::ScanTree("t");
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(scan, TP("b(d ?)")), Q::TreeSubSelect(scan, TP("b")),
      Q::TreeSubSelect(scan, TP("x")),
      Q::TreeSubSelect(scan, TP("nomatch")),
      Q::TreeSubSelect(scan, TP("b(d ?)")),  // duplicate pattern
  };
  for (size_t threads : {1u, 4u, 16u}) {
    CheckBatchEqualsSequential(plans, threads);
  }
}

TEST_F(BatchedMatchTest, ListGroupMatchesSequentialAtAllThreadCounts) {
  PlanRef scan = Q::ScanList("l");
  std::vector<PlanRef> plans = {
      Q::ListSubSelect(scan, LP("a b")), Q::ListSubSelect(scan, LP("b c")),
      Q::ListSubSelect(scan, LP("a ?* d")),
      Q::ListSubSelect(scan, LP("zz")),
      Q::ListSubSelect(scan, LP("[[a | b]]+")),
  };
  // A group whose patterns read no attribute has an empty alphabet: the
  // scan then steps cells on all-zero signatures.
  std::vector<PlanRef> no_preds = {
      Q::ListSubSelect(scan, LP("? ?")),
      Q::ListSubSelect(scan, LP("? ? ? ? ? ? ? ?")),
  };
  for (size_t threads : {1u, 4u, 16u}) {
    CheckBatchEqualsSequential(plans, threads);
    CheckBatchEqualsSequential(no_preds, threads);
  }
}

#ifndef AQUA_OBS_DISABLED
TEST_F(BatchedMatchTest, ListGroupCountsSameRejectsAsPerPlanExecution) {
  // The batch probe rejects a (plan, list) pair exactly when the plan's own
  // prefilter would, so the two paths report the same reject count — and
  // both drive the lazy DFA.
  PlanRef windows = Q::ListSubSelect(Q::ScanList("l"), LP("? ? ?"));
  std::vector<PlanRef> plans = {
      Q::ListSubSelect(windows, LP("a b")), Q::ListSubSelect(windows, LP("zz")),
      Q::ListSubSelect(windows, LP("b ?* d")),
      Q::ListSubSelect(windows, LP("c")),
  };
  obs::Registry& reg = obs::Registry::Global();
  auto count = [](const obs::Snapshot& d, const char* name) {
    return d.CounterValue(name);
  };

  Executor single(&db_);
  single.set_threads(1);
  obs::Snapshot before = reg.Snap();
  for (const PlanRef& plan : plans) ASSERT_OK(single.Execute(plan).status());
  obs::Snapshot per_plan = reg.Snap().DeltaSince(before);

  Executor batch(&db_);
  batch.set_threads(1);
  before = reg.Snap();
  for (const Result<Datum>& r : batch.ExecuteBatch(plans)) {
    ASSERT_OK(r.status());
  }
  obs::Snapshot batched = reg.Snap().DeltaSince(before);

  EXPECT_GT(count(per_plan, "pattern.nfa_prefilter_rejects"), 0u);
  EXPECT_EQ(count(batched, "pattern.nfa_prefilter_rejects"),
            count(per_plan, "pattern.nfa_prefilter_rejects"));
  for (const obs::Snapshot* d : {&per_plan, &batched}) {
    EXPECT_GT(count(*d, "pattern.dfa_hits") + count(*d, "pattern.dfa_misses"),
              0u);
  }
}
#endif  // AQUA_OBS_DISABLED

TEST_F(BatchedMatchTest, ExecuteBatchFillsExecStats) {
  // A batch of one list group and one fallback single: stats() covers both,
  // not the Execute that ran before the batch.
  PlanRef scan = Q::ScanList("l");
  std::vector<PlanRef> plans = {
      Q::ListSubSelect(scan, LP("a b")), Q::ListSubSelect(scan, LP("b c")),
      Q::ListSubSelect(scan, LP("a ?* d")),
      Q::TreeSubSelect(Q::ScanTree("t"), TP("b(d ?)")),
  };
  Executor exec(&db_);
  exec.set_threads(1);
  ASSERT_OK(exec.Execute(Q::TreeSubSelect(Q::ScanTree("t"), TP("x"))).status());
  [[maybe_unused]] const ExecStats previous = exec.stats();

  ExecStats standalone;
  Executor ref(&db_);
  ref.set_threads(1);
  for (const PlanRef& plan : plans) {
    ASSERT_OK(ref.Execute(plan).status());
    standalone.lists_processed += ref.stats().lists_processed;
    standalone.trees_processed += ref.stats().trees_processed;
  }

  for (const Result<Datum>& r : exec.ExecuteBatch(plans)) {
    ASSERT_OK(r.status());
  }
  const ExecStats& s = exec.stats();
  EXPECT_EQ(s.lists_processed, standalone.lists_processed);
  EXPECT_EQ(s.trees_processed, standalone.trees_processed);
  EXPECT_EQ(s.lists_processed, 3u);
  EXPECT_GT(s.operators_evaluated, 0u);
#ifndef AQUA_OBS_DISABLED
  EXPECT_GT(s.cpu_ns, 0u);
  EXPECT_GT(s.mem_peak_bytes, 0u);
  EXPECT_NE(s.query_id, 0u);
  EXPECT_NE(s.query_id, previous.query_id);
#endif

  // An empty batch runs nothing and reports nothing.
  EXPECT_TRUE(exec.ExecuteBatch({}).empty());
  EXPECT_EQ(exec.stats().lists_processed, 0u);
  EXPECT_EQ(exec.stats().cpu_ns, 0u);
  EXPECT_EQ(exec.stats().query_id, 0u);
}

#ifndef AQUA_OBS_DISABLED
/// A song of `n` notes whose pitches are all "Z" except for `hits` copies of
/// the run C D E, spread evenly; durations are 1 except after each C.
List HeadHitSong(ObjectStore& store, size_t n, size_t hits) {
  EXPECT_OK(RegisterNoteType(store));
  const size_t gap = n / hits;
  List song;
  for (size_t i = 0; i < n; ++i) {
    const size_t off = i % gap;
    const char* pitch = off == 0 ? "C" : off == 1 ? "D" : off == 2 ? "E" : "Z";
    auto note = store.Create("Note", {{"pitch", Value::String(pitch)},
                                      {"duration", Value::Int(off == 1 ? 2 : 1)}});
    EXPECT_OK(note.status());
    song.Append(NodePayload::Cell(*note));
  }
  return song;
}

TEST(BatchedListWorkTest, MatcherWorkFollowsHeadHitsNotSongLength) {
  // Eight pitch-headed motifs, as the motif batches of the request
  // benchmark: the merged scan evaluates every note once, the matchers read
  // its signature column (no predicate evaluated again) and begin only at
  // head hits, so their steps do not grow with the song.
  const char* kMotifs[] = {
      "{pitch == \"C\"} ? {pitch == \"E\"}",
      "{pitch == \"C\"} {duration == 2} {pitch == \"E\"}",
      "{pitch == \"D\"} {pitch == \"E\"}",
      "{pitch == \"C\"} ? ?",
      "{pitch == \"E\"} {pitch == \"Z\"}",
      "{pitch == \"C\"} {pitch == \"D\"} | {pitch == \"E\"} ?",
      "{pitch == \"D\"} !? {duration == 1}",
      "{pitch == \"A\"} ?",
  };
  constexpr size_t kHits = 16;
  std::vector<uint64_t> steps;
  for (size_t n : {2048u, 4096u}) {
    Database db;
    ASSERT_OK(db.RegisterList("song", HeadHitSong(db.store(), n, kHits)));
    std::vector<PlanRef> plans;
    for (const char* m : kMotifs) {
      auto lp = ParseListPattern(m);
      ASSERT_OK(lp.status());
      plans.push_back(Q::ListSubSelect(Q::ScanList("song"), *lp));
    }
    Executor exec(&db);
    exec.set_threads(1);
    obs::Registry& reg = obs::Registry::Global();
    obs::Snapshot before = reg.Snap();
    for (const Result<Datum>& r : exec.ExecuteBatch(plans)) {
      ASSERT_OK(r.status());
    }
    obs::Snapshot d = reg.Snap().DeltaSince(before);
    EXPECT_EQ(d.CounterValue("pattern.list_pred_evals"), 0u) << n;
    EXPECT_LE(d.CounterValue("exec.batch_scan_rows"), n) << n;
    // Three head hits per run (C, D, E); at most 4 probes per pattern and
    // hit (352 in all today; over 8n without the begin set).
    EXPECT_LE(d.CounterValue("pattern.list_steps"), 8u * 3 * kHits * 4) << n;
    steps.push_back(d.CounterValue("pattern.list_steps"));
  }
  EXPECT_GT(steps[0], 0u);
  EXPECT_EQ(steps[0], steps[1]);
}
#endif  // AQUA_OBS_DISABLED

TEST_F(BatchedMatchTest, ForestInputsFanOutPerItem) {
  // sub_select over a select's forest output: the batch shares the forest
  // scan and probes every subtree item once for all patterns.
  PlanRef forest = Q::TreeSelect(Q::ScanTree("t"), P("name != \"r\""));
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(forest, TP("b(d ?)")),
      Q::TreeSubSelect(forest, TP("d")),
      Q::TreeSubSelect(forest, TP("g")),
  };
  for (size_t threads : {1u, 4u, 16u}) {
    CheckBatchEqualsSequential(plans, threads);
  }
}

TEST_F(BatchedMatchTest, StructurallyEqualChildrenGroupTogether) {
  // Children built separately (distinct PlanRefs, equal structure) must
  // still group — the fingerprint pre-key is verified with PlanEquals.
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(Q::ScanTree("t"), TP("b")),
      Q::TreeSubSelect(Q::ScanTree("t"), TP("x")),
  };
  ASSERT_NE(plans[0]->children[0].get(), plans[1]->children[0].get());
  auto op = exec::CompileBatch(plans);
  EXPECT_NE(op, nullptr);
  EXPECT_EQ(op->num_plans(), 2u);
  CheckBatchEqualsSequential(plans, 4);
}

TEST_F(BatchedMatchTest, MixedGroupsAndSinglesAllAnswerCorrectly) {
  // Two tree plans over "t", two list plans over "l", one unbatchable
  // select, one lone sub_select over a different input: every result is
  // still positional and standalone-identical.
  PlanRef tscan = Q::ScanTree("t");
  PlanRef lscan = Q::ScanList("l");
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(tscan, TP("b")),
      Q::ListSubSelect(lscan, LP("a b")),
      Q::TreeSelect(tscan, P("name == \"b\"")),  // not a sub_select
      Q::TreeSubSelect(tscan, TP("x")),
      Q::ListSubSelect(lscan, LP("c a")),
      Q::TreeSubSelect(Q::TreeSelect(tscan, P("name != \"r\"")), TP("d")),
  };
  for (size_t threads : {1u, 4u}) {
    CheckBatchEqualsSequential(plans, threads);
  }
}

TEST_F(BatchedMatchTest, PerPlanErrorsMatchStandaloneExecution) {
  // A null pattern errors inside the matcher for exactly that plan; the
  // healthy plans in the group still answer.
  PlanRef scan = Q::ScanTree("t");
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(scan, TP("b")),
      Q::TreeSubSelect(scan, nullptr),
      Q::TreeSubSelect(scan, TP("x")),
  };
  CheckBatchEqualsSequential(plans, 4);
}

TEST_F(BatchedMatchTest, SharedInputErrorsAreBatchFatal) {
  PlanRef scan = Q::ScanTree("missing");
  std::vector<PlanRef> plans = {
      Q::TreeSubSelect(scan, TP("b")),
      Q::TreeSubSelect(scan, TP("x")),
  };
  Executor exec(&db_);
  std::vector<Result<Datum>> out = exec.ExecuteBatch(plans);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& r : out) {
    EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
  }
}

TEST_F(BatchedMatchTest, CompileBatchRejectsNonGroups) {
  PlanRef scan = Q::ScanTree("t");
  PlanRef other = Q::ScanList("l");
  // Too few plans.
  EXPECT_EQ(exec::CompileBatch({Q::TreeSubSelect(scan, TP("b"))}), nullptr);
  // Mixed operators.
  EXPECT_EQ(exec::CompileBatch({Q::TreeSubSelect(scan, TP("b")),
                                Q::ListSubSelect(other, LP("a"))}),
            nullptr);
  // Different inputs.
  EXPECT_EQ(
      exec::CompileBatch({Q::TreeSubSelect(Q::ScanTree("t"), TP("b")),
                          Q::TreeSubSelect(Q::ScanTree("t2"), TP("b"))}),
      nullptr);
  // Non-pattern operators.
  EXPECT_EQ(exec::CompileBatch({Q::TreeSelect(scan, P("name == \"b\"")),
                                Q::TreeSelect(scan, P("name == \"x\""))}),
            nullptr);
}

// ---------------------------------------------------------------------------
// Randomized property test over generated workloads.
// ---------------------------------------------------------------------------

class BatchedMatchRandomTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FamilyTreeSpec spec;
    spec.num_people = 300;
    spec.brazil_fraction = 0.15;
    spec.seed = 20260809;
    ASSERT_OK_AND_ASSIGN(Tree family, MakeFamilyTree(db_.store(), spec));
    ASSERT_OK(db_.RegisterTree("family", std::move(family)));

    SongSpec song_spec;
    song_spec.num_notes = 400;
    song_spec.seed = 20260809;
    ASSERT_OK_AND_ASSIGN(List song, MakeSong(db_.store(), song_spec));
    ASSERT_OK(db_.RegisterList("song", std::move(song)));
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

  Database db_;
};

TEST_F(BatchedMatchRandomTest, FamilyPatternBatteryIsByteIdentical) {
  PlanRef scan = Q::ScanTree("family");
  std::vector<PlanRef> plans;
  const char* kPatterns[] = {
      "{citizen == \"Brazil\"}",
      "{citizen == \"USA\"}({citizen == \"Brazil\"} ?*)",
      "{age > 60}",
      "{citizen == \"Brazil\"}(?* {age < 10} ?*)",
      "{eyes == \"brown\"}",
      "{citizen == \"France\"}",
      "{age > 30}({age > 60})",
      "{name == \"P3\"}",
  };
  for (const char* p : kPatterns) {
    plans.push_back(Q::TreeSubSelect(scan, TP(p)));
  }
  Executor ref(&db_);
  ref.set_threads(1);
  std::vector<Result<Datum>> expected;
  for (const auto& p : plans) expected.push_back(ref.Execute(p));

  for (size_t threads : {1u, 4u, 16u}) {
    Executor exec(&db_);
    exec.set_threads(threads);
    std::vector<Result<Datum>> out = exec.ExecuteBatch(plans);
    ASSERT_EQ(out.size(), plans.size());
    for (size_t j = 0; j < plans.size(); ++j) {
      ASSERT_OK(expected[j]);
      ASSERT_OK(out[j]);
      EXPECT_TRUE(out[j]->Equals(*expected[j]))
          << kPatterns[j] << " at threads=" << threads;
    }
  }
}

TEST_F(BatchedMatchRandomTest, SongPatternBatteryIsByteIdentical) {
  PlanRef scan = Q::ScanList("song");
  std::vector<PlanRef> plans;
  const char* kPatterns[] = {
      "{pitch == \"A\"} {pitch == \"B\"}",
      "{pitch == \"C\"}+",
      "{pitch == \"G\"} ?* {pitch == \"A\"}",
      "{duration > 6} {duration > 6}",
      "{pitch == \"E\"} {pitch == \"F\"} {pitch == \"G\"}",
      "{pitch == \"Z\"}",
  };
  for (const char* p : kPatterns) {
    plans.push_back(Q::ListSubSelect(scan, LP(p)));
  }
  Executor ref(&db_);
  ref.set_threads(1);
  std::vector<Result<Datum>> expected;
  for (const auto& p : plans) expected.push_back(ref.Execute(p));

  for (size_t threads : {1u, 4u, 16u}) {
    Executor exec(&db_);
    exec.set_threads(threads);
    std::vector<Result<Datum>> out = exec.ExecuteBatch(plans);
    ASSERT_EQ(out.size(), plans.size());
    for (size_t j = 0; j < plans.size(); ++j) {
      ASSERT_OK(expected[j]);
      ASSERT_OK(out[j]);
      EXPECT_TRUE(out[j]->Equals(*expected[j]))
          << kPatterns[j] << " at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace aqua
