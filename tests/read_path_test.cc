// AnswerAggregate reads the caller's database in place (licm/evaluator.h):
// the snapshot's pool and constraints stay untouched under both engines,
// derived ids match evaluating on a full copy, and concurrent readers of
// one shared snapshot agree with a sequential run (the TSan job runs this
// binary).
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "licm/evaluator.h"
#include "licm/ops.h"
#include "testing/generator.h"

namespace licm {
namespace {

AnswerOptions Sequential(rel::EvalEngine engine) {
  AnswerOptions opt;
  opt.engine = engine;
  opt.bounds.mip.num_threads = 1;
  return opt;
}

TEST(ReadPath, SnapshotUntouchedUnderBothEngines) {
  int derived_cases = 0;
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    const testing::FuzzCase c = testing::GenerateCase(seed);
    const LicmDatabase& db = c.db;
    const uint32_t pool_before = db.pool().size();
    const std::vector<LinearConstraint> cons_before =
        db.constraints().constraints();

    // Reference sizes: evaluate on a full copy, as the answer path does
    // before its pruning and solving.
    LicmDatabase copy = c.db;
    auto rel = EvaluateLicm(*c.query->left, &copy);
    if (!rel.ok()) continue;
    ASSERT_TRUE(
        MergeDuplicates(*rel, OpContext{&copy.pool(), &copy.constraints()})
            .ok());
    derived_cases += copy.pool().size() > pool_before;

    for (rel::EvalEngine engine :
         {rel::EvalEngine::kColumnar, rel::EvalEngine::kRow}) {
      auto ans = AnswerAggregate(*c.query, db, Sequential(engine));
      EXPECT_EQ(db.pool().size(), pool_before) << "seed " << seed;
      EXPECT_EQ(db.constraints().constraints(), cons_before)
          << "seed " << seed;
      if (!ans.ok()) continue;
      EXPECT_EQ(ans->vars_at_query, copy.pool().size()) << "seed " << seed;
      EXPECT_EQ(ans->constraints_at_query, copy.constraints().size())
          << "seed " << seed;
    }
  }
  // The sweep must include queries whose operators derive variables.
  EXPECT_GT(derived_cases, 10);
}

struct Outcome {
  bool ok = false;
  double min = 0.0, max = 0.0;
  bool min_exact = false, max_exact = false;
  size_t vars_at_query = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome Answer(const testing::FuzzCase& c, const LicmDatabase& db) {
  Outcome o;
  auto ans = AnswerAggregate(*c.query, db,
                             Sequential(rel::EvalEngine::kColumnar));
  if (!ans.ok()) return o;
  o.ok = true;
  o.min = ans->bounds.min.value;
  o.max = ans->bounds.max.value;
  o.min_exact = ans->bounds.min.exact;
  o.max_exact = ans->bounds.max.exact;
  o.vars_at_query = ans->vars_at_query;
  return o;
}

TEST(ReadPath, ConcurrentReadersShareOneSnapshot) {
  // Several queries over one shared database: every thread answers each
  // of them against the same const snapshot.
  const testing::FuzzCase base = testing::GenerateCase(7);
  std::vector<testing::FuzzCase> queries;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    queries.push_back(testing::GenerateCase(seed));
  }
  const LicmDatabase& snapshot = base.db;
  std::vector<Outcome> expected;
  for (const testing::FuzzCase& q : queries) {
    expected.push_back(Answer(q, snapshot));
  }

  int answered = 0;
  for (const Outcome& o : expected) answered += o.ok;
  ASSERT_GT(answered, 12);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  // (query index, outcome) per thread, in the order the thread ran them.
  std::vector<std::vector<std::pair<size_t, Outcome>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          // Stagger the order so threads overlap on different queries.
          const size_t k = (i + static_cast<size_t>(t) * 5) % queries.size();
          got[t].emplace_back(k, Answer(queries[k], snapshot));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(snapshot.pool().size(), base.num_base_vars);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * queries.size()) << "thread " << t;
    for (const auto& [k, o] : got[t]) {
      EXPECT_EQ(o, expected[k]) << "thread " << t << " query " << k;
    }
  }
}

}  // namespace
}  // namespace licm
