// Tests for the LICM model and operators, built around the paper's own
// running examples (Figures 2-4, Examples 6-8).
#include "licm/ops.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/metrics.h"
#include "licm/aggregate.h"
#include "licm/evaluator.h"
#include "licm/worlds.h"

namespace licm {
namespace {

using rel::CmpOp;
using rel::Value;
using rel::ValueType;

rel::Schema TransItemSchema() {
  return rel::Schema(
      {{"tid", ValueType::kInt}, {"item", ValueType::kString}});
}

Value V(const char* s) { return Value(std::string(s)); }

// Figure 2(c): transaction T1 = {Alcohol, Shampoo}; Alcohol generalizes to
// {Beer, Wine, Liquor} with b1 + b2 + b3 >= 1; Shampoo is certain.
LicmDatabase Figure2c() {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  std::vector<BVar> alcohol;
  for (const char* item : {"beer", "wine", "liquor"}) {
    BVar b = db.pool().New();
    alcohol.push_back(b);
    r.AppendUnchecked({int64_t{1}, std::string(item)}, Ext::Maybe(b));
  }
  r.AppendUnchecked({int64_t{1}, std::string("shampoo")}, Ext::Certain());
  db.constraints().AddCardinality(alcohol, 1, 3);
  LICM_CHECK_OK(db.AddRelation("trans_item", std::move(r)));
  return db;
}

// Figure 4(b): the relation used by Examples 7 and 8.
LicmDatabase Figure4b(std::vector<BVar>* vars_out = nullptr) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  std::vector<BVar> vars;
  auto maybe = [&](int64_t tid, const char* item) {
    BVar b = db.pool().New();
    vars.push_back(b);
    r.AppendUnchecked({tid, std::string(item)}, Ext::Maybe(b));
  };
  maybe(1, "pregnancy_test");  // b1
  maybe(1, "diapers");         // b2
  maybe(1, "shampoo");         // b3
  r.AppendUnchecked({int64_t{2}, std::string("wine")}, Ext::Certain());
  maybe(2, "shampoo");         // b6
  maybe(3, "pregnancy_test");  // b7
  LICM_CHECK_OK(db.AddRelation("trans_item", std::move(r)));
  if (vars_out) *vars_out = vars;
  return db;
}

// ---- Constraint primitives ----

TEST(Constraint, CardinalityClampsVacuousSides) {
  ConstraintSet cs;
  cs.AddCardinality({0, 1, 2}, 0, 3);  // vacuous both sides
  EXPECT_EQ(cs.size(), 0u);
  cs.AddCardinality({0, 1, 2}, 1, 3);  // only lower side
  EXPECT_EQ(cs.size(), 1u);
  cs.AddCardinality({0, 1, 2}, 1, 2);
  EXPECT_EQ(cs.size(), 3u);
}

TEST(Constraint, CorrelationSemantics) {
  // Enumerate assignments and check Example 5's correlations.
  ConstraintSet mutex;
  mutex.AddMutualExclusion(0, 1);
  auto worlds = EnumerateValidAssignments(mutex, 2);
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 2u);  // 01, 10

  ConstraintSet coexist;
  coexist.AddCoexistence(0, 1);
  worlds = EnumerateValidAssignments(coexist, 2);
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 2u);  // 00, 11

  ConstraintSet implies;
  implies.AddImplication(0, 1);
  worlds = EnumerateValidAssignments(implies, 2);
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 3u);  // all but 10
}

TEST(Constraint, AndLinkTruthTable) {
  ConstraintSet cs;
  cs.AddAnd(2, 0, 1);
  auto worlds = EnumerateValidAssignments(cs, 3);
  ASSERT_TRUE(worlds.ok());
  // Deterministic lineage: for each of 4 input combinations, exactly one
  // output value survives -> 4 valid assignments.
  ASSERT_EQ(worlds->size(), 4u);
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[2], a[0] & a[1]);
  }
}

TEST(Constraint, OrLinkTruthTable) {
  ConstraintSet cs;
  cs.AddOr(3, {0, 1, 2});
  auto worlds = EnumerateValidAssignments(cs, 4);
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 8u);
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[3], a[0] | a[1] | a[2]);
  }
}

TEST(Constraint, ToStringReadable) {
  LinearConstraint c{{{0, 1}, {1, 1}, {2, -2}}, ConstraintOp::kGe, 1};
  EXPECT_EQ(c.ToString(), "b0 + b1 - 2 b2 >= 1");
}

// ---- Figure 2(c): generalization block ----

TEST(Figure2, ItemCountBounds) {
  LicmDatabase db = Figure2c();
  auto ans = AnswerAggregate(*rel::CountStar(rel::Scan("trans_item")), db);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans->bounds.min.exact);
  EXPECT_TRUE(ans->bounds.max.exact);
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, 2.0);  // shampoo + 1 alcohol
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, 4.0);  // all three + shampoo
}

TEST(Figure2, WorldEnumerationMatchesSemantics) {
  LicmDatabase db = Figure2c();
  const LicmRelation& r = *db.GetRelation("trans_item").value();
  auto worlds = EnumerateWorlds(r, db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  EXPECT_EQ(worlds->size(), 7u);  // non-empty subsets of {beer,wine,liquor}
  for (const auto& w : *worlds) {
    EXPECT_GE(w.size(), 2u);
    EXPECT_LE(w.size(), 4u);
  }
}

// ---- Example 6 / Figure 3: intersection ----

TEST(Example6, IntersectionLineage) {
  LicmDatabase db;
  LicmRelation r1(TransItemSchema());
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r1.AppendUnchecked({int64_t{1}, std::string("wine")}, Ext::Maybe(b1));
  r1.AppendUnchecked({int64_t{1}, std::string("liquor")}, Ext::Maybe(b2));
  r1.AppendUnchecked({int64_t{2}, std::string("beer")}, Ext::Certain());
  db.constraints().AddCardinality({b1, b2}, 1, 2);

  LicmRelation r2(TransItemSchema());
  BVar b3 = db.pool().New(), b4 = db.pool().New();
  r2.AppendUnchecked({int64_t{1}, std::string("wine")}, Ext::Maybe(b3));
  r2.AppendUnchecked({int64_t{2}, std::string("beer")}, Ext::Maybe(b4));

  OpContext ctx{&db.pool(), &db.constraints()};
  auto out = IntersectOp(r1, r2, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  // (T1, wine) gets a fresh AND variable; (T2, beer) reuses b4 because the
  // left side is certain.
  EXPECT_FALSE(out->ext(0).certain());
  EXPECT_EQ(out->ext(1), Ext::Maybe(b4));

  // Check the AND semantics by enumeration: b5 = b1 AND b3 in all worlds.
  const BVar b5 = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  ASSERT_FALSE(worlds->empty());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[b5], a[b1] & a[b3]);
  }
}

// ---- Example 7: projection ----

TEST(Example7, ProjectionCases) {
  std::vector<BVar> vars;
  LicmDatabase db = Figure4b(&vars);
  OpContext ctx{&db.pool(), &db.constraints()};
  const LicmRelation& r = *db.GetRelation("trans_item").value();
  auto out = ProjectOp(r, {"tid"}, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);

  // T1: new OR variable over {b1, b2, b3}.
  EXPECT_FALSE(out->ext(0).certain());
  EXPECT_GE(out->ext(0).var(), vars.back());
  // T2: certain because of (T2, wine, 1).
  EXPECT_TRUE(out->ext(1).certain());
  // T3: unique source tuple, reuses b7 (the Example 7 optimization).
  EXPECT_EQ(out->ext(2), Ext::Maybe(vars[4]));

  // OR semantics by enumeration.
  const BVar b8 = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[b8], a[vars[0]] | a[vars[1]] | a[vars[2]]);
  }
}

// ---- Example 8: COUNT predicate ----

TEST(Example8, CountPredicateEncoding) {
  std::vector<BVar> vars;
  LicmDatabase db = Figure4b(&vars);
  // Query: transactions with >= 2 health-care items, where health care =
  // {diapers, pregnancy_test, shampoo}.
  auto q = rel::CountStar(rel::CountPredicate(
      rel::Select(rel::Scan("trans_item"),
                  {{"item", CmpOp::kNe, V("wine")}}),
      "tid", CmpOp::kGe, 2));
  auto ans = AnswerAggregate(*q, db);
  ASSERT_TRUE(ans.ok());
  // Only T1 can have >= 2 health-care items (it has three maybe items);
  // T2 and T3 have at most one.
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, 0.0);
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, 1.0);
  EXPECT_TRUE(ans->bounds.min.exact);
  EXPECT_TRUE(ans->bounds.max.exact);
}

TEST(CountPredicate, CertainAndExcludedCases) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  // T1: two certain items -> COUNT >= 2 certainly satisfied.
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Certain());
  r.AppendUnchecked({int64_t{1}, std::string("b")}, Ext::Certain());
  // T2: one certain item -> COUNT >= 2 impossible.
  r.AppendUnchecked({int64_t{2}, std::string("a")}, Ext::Certain());
  // T3: one certain + one maybe -> variable case.
  BVar b = db.pool().New();
  r.AppendUnchecked({int64_t{3}, std::string("a")}, Ext::Certain());
  r.AppendUnchecked({int64_t{3}, std::string("b")}, Ext::Maybe(b));

  OpContext ctx{&db.pool(), &db.constraints()};
  auto out = CountPredicateOp(r, "tid", CmpOp::kGe, 2, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);  // T1 certain, T3 variable; T2 excluded
  EXPECT_TRUE(out->ext(0).certain());
  EXPECT_FALSE(out->ext(1).certain());

  // The derived variable must track b exactly (count = 1 + b >= 2 iff b).
  const BVar derived = out->ext(1).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[derived], a[b]);
  }
}

TEST(CountPredicate, CountLeEncoding) {
  // Group with 2 maybes and 1 certain; COUNT <= 1 holds iff both maybes
  // are absent.
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Certain());
  r.AppendUnchecked({int64_t{1}, std::string("b")}, Ext::Maybe(b1));
  r.AppendUnchecked({int64_t{1}, std::string("c")}, Ext::Maybe(b2));
  OpContext ctx{&db.pool(), &db.constraints()};
  auto out = CountPredicateOp(r, "tid", CmpOp::kLe, 1, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  ASSERT_FALSE(out->ext(0).certain());
  const BVar derived = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[derived], static_cast<uint8_t>(a[b1] + a[b2] == 0));
  }
}

TEST(CountPredicate, CountEqViaAnd) {
  // COUNT = 1 over two maybe tuples: holds iff exactly one is present.
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b1));
  r.AppendUnchecked({int64_t{1}, std::string("b")}, Ext::Maybe(b2));
  OpContext ctx{&db.pool(), &db.constraints()};
  auto out = CountPredicateOp(r, "tid", CmpOp::kEq, 1, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  const BVar derived = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[derived], static_cast<uint8_t>(a[b1] + a[b2] == 1));
  }
}

TEST(CountPredicate, NeUnimplemented) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Certain());
  OpContext ctx{&db.pool(), &db.constraints()};
  auto out = CountPredicateOp(r, "tid", CmpOp::kNe, 1, ctx);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

// ---- MergeDuplicates ----

TEST(MergeDuplicates, NoDuplicatesIsIdentity) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b));
  r.AppendUnchecked({int64_t{2}, std::string("a")}, Ext::Certain());
  OpContext ctx{&db.pool(), &db.constraints()};
  auto out = MergeDuplicates(r, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(db.pool().size(), 1u);  // no new variables
}

TEST(MergeDuplicates, OrMergesDuplicateTuples) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b1));
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b2));
  OpContext ctx{&db.pool(), &db.constraints()};
  auto out = MergeDuplicates(r, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  const BVar merged = out->ext(0).var();
  auto worlds = EnumerateValidAssignments(db.constraints(), db.pool().size());
  ASSERT_TRUE(worlds.ok());
  for (const auto& a : *worlds) {
    EXPECT_EQ(a[merged], a[b1] | a[b2]);
  }
}

// ---- Completeness (Theorem 1) ----

TEST(Completeness, RoundTripsWorldSets) {
  // Build three explicit worlds over a tiny schema and check the encoder
  // reproduces exactly that world set.
  rel::Schema s({{"x", ValueType::kInt}});
  auto world = [&](std::vector<int64_t> xs) {
    rel::Relation w(s);
    for (int64_t x : xs) w.AppendUnchecked({x});
    return w;
  };
  std::vector<rel::Relation> worlds = {world({1, 2}), world({2, 3}),
                                       world({1, 2, 3})};
  auto db = EncodeWorlds(worlds, "r");
  ASSERT_TRUE(db.ok());
  const LicmRelation& r = *db->GetRelation("r").value();
  auto round = EnumerateWorlds(r, db->constraints(), db->pool().size());
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->size(), worlds.size());
  for (const auto& w : worlds) {
    bool found = false;
    for (const auto& got : *round) found |= got.SetEquals(w);
    EXPECT_TRUE(found);
  }
}

TEST(Completeness, SingleWorldFixesEverything) {
  rel::Schema s({{"x", ValueType::kInt}});
  rel::Relation w(s);
  w.AppendUnchecked({int64_t{7}});
  auto db = EncodeWorlds({w}, "r");
  ASSERT_TRUE(db.ok());
  auto worlds = EnumerateWorlds(*db->GetRelation("r").value(),
                                db->constraints(), db->pool().size());
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 1u);
  EXPECT_TRUE((*worlds)[0].SetEquals(w));
}

TEST(Completeness, RejectsOversizedUniverse) {
  rel::Schema s({{"x", ValueType::kInt}});
  rel::Relation w(s);
  for (int64_t i = 0; i < 21; ++i) w.AppendUnchecked({i});
  EXPECT_FALSE(EncodeWorlds({w}, "r").ok());
}

// ---- Pruning ----

TEST(Prune, DropsUnreachableGroups) {
  ConstraintSet cs;
  cs.AddCardinality({0, 1, 2}, 1, 2);  // group A
  cs.AddCardinality({3, 4, 5}, 1, 2);  // group B (unreachable)
  cs.AddAnd(6, 0, 1);                  // derived from group A
  PruneResult pr = Prune(cs, {6}, 7);
  EXPECT_EQ(pr.stats.vars_after, 4u);  // 6, 0, 1, 2 (via cardinality rows)
  EXPECT_EQ(pr.stats.constraints_after, 5u);
  EXPECT_EQ(pr.is_live[3], 0);
}

TEST(Prune, ReachesAcrossInterleavedConstraints) {
  // Permutation-style coupling: row constraints first, column constraints
  // after; the paper's single reverse pass would under-approximate here.
  ConstraintSet cs;
  // rows: {0,1}, {2,3}; cols: {0,2}, {1,3}
  cs.AddCardinality({0, 1}, 1, 1);
  cs.AddCardinality({2, 3}, 1, 1);
  cs.AddCardinality({0, 2}, 1, 1);
  cs.AddCardinality({1, 3}, 1, 1);
  PruneResult pr = Prune(cs, {0}, 4);
  EXPECT_EQ(pr.stats.vars_after, 4u);
  EXPECT_EQ(pr.stats.constraints_after, cs.size());
}

TEST(Prune, LiveAscendingMaskMatchesKeptInConstraintOrder) {
  ConstraintSet cs;
  cs.AddMutualExclusion(8, 3);  // 0: reachable from 8
  cs.AddMutualExclusion(0, 1);  // 1: unreachable
  cs.AddImplication(3, 6);      // 2: reachable via 3
  cs.AddCoexistence(9, 2);      // 3: unreachable
  cs.AddImplication(6, 4);      // 4: reachable via 6
  PruneResult pr = Prune(cs, {8, 6}, 10);
  EXPECT_EQ(pr.live, (std::vector<BVar>{3, 4, 6, 8}));
  ASSERT_EQ(pr.is_live.size(), 10u);
  for (BVar v = 0; v < 10; ++v) {
    const bool listed =
        std::find(pr.live.begin(), pr.live.end(), v) != pr.live.end();
    EXPECT_EQ(pr.is_live[v] != 0, listed) << "var " << v;
  }
  EXPECT_EQ(pr.kept, (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(pr.stats.vars_after, 4u);
  EXPECT_EQ(pr.stats.constraints_after, 3u);
}

TEST(Prune, BoundsIdenticalWithAndWithoutPruning) {
  LicmDatabase db = Figure2c();
  // Add an unrelated constrained block that pruning should drop.
  std::vector<BVar> junk;
  for (int i = 0; i < 5; ++i) junk.push_back(db.pool().New());
  db.constraints().AddCardinality(junk, 2, 3);

  auto q = rel::CountStar(rel::Scan("trans_item"));
  AnswerOptions with, without;
  with.bounds.prune = true;
  without.bounds.prune = false;
  auto a1 = AnswerAggregate(*q, db, with);
  auto a2 = AnswerAggregate(*q, db, without);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_DOUBLE_EQ(a1->bounds.min.value, a2->bounds.min.value);
  EXPECT_DOUBLE_EQ(a1->bounds.max.value, a2->bounds.max.value);
  EXPECT_LT(a1->bounds.prune_stats.vars_after,
            a2->bounds.prune_stats.vars_after);
}

// ---- Aggregate infrastructure ----

TEST(Aggregate, InfeasibleConstraintsReported) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  BVar b = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b));
  db.constraints().AddFix(b, 1);
  db.constraints().AddFix(b, 0);
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto ans = AnswerAggregate(*rel::CountStar(rel::Scan("r")), db);
  ASSERT_FALSE(ans.ok());
  EXPECT_EQ(ans.status().code(), StatusCode::kInfeasible);
}

// COUNT over one maybe tuple b0, plus a remainder over b1, b2 that
// pruning drops: b1 + b2 >= 1 and b1 = 0 (and b2 = 0 when `infeasible`).
// The greedy witness raises b1 first and so violates b1 = 0.
LicmDatabase GreedyDefeatingRemainder(bool infeasible) {
  LicmDatabase db;
  LicmRelation r(TransItemSchema());
  const BVar b0 = db.pool().New();
  const BVar b1 = db.pool().New();
  const BVar b2 = db.pool().New();
  r.AppendUnchecked({int64_t{1}, std::string("a")}, Ext::Maybe(b0));
  db.constraints().AddCardinality({b1, b2}, 1, 2);
  db.constraints().AddFix(b1, 0);
  if (infeasible) db.constraints().AddFix(b2, 0);
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  return db;
}

int64_t SolvesSoFar() {
  return metrics::MetricsRegistry::Default()
      .GetCounter("licm_solver_solves_total")
      ->Value();
}

TEST(Aggregate, RemainderWitnessFailureFallsThroughToSolver) {
  const auto query = rel::CountStar(rel::Scan("r"));
  AnswerOptions unpruned;
  unpruned.bounds.prune = false;

  const LicmDatabase feasible = GreedyDefeatingRemainder(false);
  const int64_t before = SolvesSoFar();
  auto ans = AnswerAggregate(*query, feasible);
  const int64_t solves = SolvesSoFar() - before;
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans->bounds.prune_stats.constraints_after, 0u);
  EXPECT_EQ(ans->bounds.min.value, 0.0);
  EXPECT_EQ(ans->bounds.max.value, 1.0);
  EXPECT_TRUE(ans->bounds.min.exact);
  EXPECT_TRUE(ans->bounds.max.exact);
  auto full = AnswerAggregate(*query, feasible, unpruned);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->bounds.min.value, ans->bounds.min.value);
  EXPECT_EQ(full->bounds.max.value, ans->bounds.max.value);
#if !defined(LICM_METRICS_DISABLED)
  // One solve for the bounds and one for the remainder: the witness
  // failed, so the remainder was settled by the solver.
  EXPECT_EQ(solves, 2);
#else
  (void)solves;
#endif

  const LicmDatabase infeasible = GreedyDefeatingRemainder(true);
  auto no_world = AnswerAggregate(*query, infeasible);
  ASSERT_FALSE(no_world.ok());
  EXPECT_EQ(no_world.status().code(), StatusCode::kInfeasible);
  auto no_world_full = AnswerAggregate(*query, infeasible, unpruned);
  ASSERT_FALSE(no_world_full.ok());
  EXPECT_EQ(no_world_full.status().code(), StatusCode::kInfeasible);
}

TEST(Aggregate, EmptyRelationGivesZeroBounds) {
  LicmDatabase db;
  LICM_CHECK_OK(db.AddRelation("r", LicmRelation(TransItemSchema())));
  auto ans = AnswerAggregate(*rel::CountStar(rel::Scan("r")), db);
  ASSERT_TRUE(ans.ok());
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, 0.0);
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, 0.0);
}

TEST(Aggregate, SumBoundsWeightedByPrice) {
  // Two maybe items with prices 5 and 3, mutually exclusive: SUM(price) is
  // 3 or 5 in every world.
  LicmDatabase db;
  LicmRelation r(rel::Schema(
      {{"item", ValueType::kString}, {"price", ValueType::kInt}}));
  BVar b1 = db.pool().New(), b2 = db.pool().New();
  r.AppendUnchecked({std::string("a"), int64_t{5}}, Ext::Maybe(b1));
  r.AppendUnchecked({std::string("b"), int64_t{3}}, Ext::Maybe(b2));
  db.constraints().AddMutualExclusion(b1, b2);
  LICM_CHECK_OK(db.AddRelation("r", std::move(r)));
  auto ans = AnswerAggregate(*rel::Sum(rel::Scan("r"), "price"), db);
  ASSERT_TRUE(ans.ok());
  EXPECT_DOUBLE_EQ(ans->bounds.min.value, 3.0);
  EXPECT_DOUBLE_EQ(ans->bounds.max.value, 5.0);
}

TEST(Aggregate, ExtremeWorldIsValid) {
  LicmDatabase db = Figure2c();
  auto ans = AnswerAggregate(*rel::CountStar(rel::Scan("trans_item")), db);
  ASSERT_TRUE(ans.ok());
  ASSERT_TRUE(ans->bounds.max.has_world);
  // Expand the (partial) world map into a full assignment; all pool
  // variables are live here.
  std::vector<uint8_t> a(db.pool().size(), 0);
  for (const auto& [v, val] : ans->bounds.max.world) a[v] = val;
  EXPECT_TRUE(db.constraints().Satisfied(a));
  const LicmRelation& r = *db.GetRelation("trans_item").value();
  EXPECT_EQ(r.Instantiate(a).size(), 4u);
}

}  // namespace
}  // namespace licm
