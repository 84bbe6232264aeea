// Validates the benchmark harness's paper-query builders: on *certain*
// data (the identity world of a bipartite encoding), the flat-view and
// bipartite-view formulations of each query must return the same answer,
// and both must match a straightforward reference computation. One more
// test checks that the solver's node LP pays on a harness instance.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "harness.h"
#include "relational/engine.h"

namespace licm::bench {
namespace {

data::TransactionDataset Dataset() {
  data::GeneratorConfig c;
  c.num_transactions = 400;
  c.num_items = 60;
  c.seed = 23;
  return data::GenerateTransactions(c);
}

// Reference implementations straight off the paper's query definitions.
int64_t RefQ1(const data::TransactionDataset& d, const QueryParams& p) {
  int64_t count = 0;
  for (const auto& t : d.transactions) {
    if (t.location >= p.q1_pa_max_loc) continue;
    for (auto i : t.items) {
      if (d.price[i] < p.q1_pb_max_price) {
        ++count;
        break;
      }
    }
  }
  return count;
}

int64_t RefQ2(const data::TransactionDataset& d, const QueryParams& p) {
  int64_t count = 0;
  for (const auto& t : d.transactions) {
    if (t.location >= p.q2_pa_max_loc) continue;
    int64_t pb = 0, pc = 0;
    for (auto i : t.items) {
      if (d.price[i] < p.q2_pb_max_price) ++pb;
      if (d.price[i] >= p.q2_pc_min_price) ++pc;
    }
    if (pb >= p.q2_x && pc >= p.q2_y) ++count;
  }
  return count;
}

int64_t RefQ3(const data::TransactionDataset& d, const QueryParams& p) {
  std::unordered_map<data::ItemId, int64_t> support;
  for (const auto& t : d.transactions) {
    if (t.location >= p.q3_pb_max_loc) continue;
    for (auto i : t.items) ++support[i];
  }
  std::unordered_set<data::ItemId> popular;
  for (const auto& [i, s] : support) {
    if (s >= p.q3_x) popular.insert(i);
  }
  int64_t count = 0;
  for (const auto& t : d.transactions) {
    if (t.location >= p.q3_pa_max_loc) continue;
    for (auto i : t.items) {
      if (popular.contains(i)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

class PaperQueries : public ::testing::TestWithParam<int> {};

TEST_P(PaperQueries, FlatMatchesReference) {
  const int q = GetParam();
  auto d = Dataset();
  QueryParams p;
  p.q3_x = 3;  // keep Q3 non-degenerate at this scale
  rel::Database db;
  LICM_CHECK_OK(db.Add("trans_item", d.ToTransItem()));
  auto v = rel::EvaluateAggregate(*BuildFlatQuery(q, p), db);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const int64_t expected = q == 1 ? RefQ1(d, p) : q == 2 ? RefQ2(d, p)
                                                         : RefQ3(d, p);
  EXPECT_DOUBLE_EQ(*v, static_cast<double>(expected));
}

TEST_P(PaperQueries, BipartiteViewMatchesFlatOnIdentityWorld) {
  const int q = GetParam();
  auto d = Dataset();
  QueryParams p;
  p.q3_x = 3;
  auto groups = anonymize::SafeGrouping(d, {2, 2, 3});
  ASSERT_TRUE(groups.ok());
  auto enc = anonymize::EncodeBipartite(*groups, d);
  ASSERT_TRUE(enc.ok());
  rel::Database identity = enc->db.Instantiate(enc->original_world);
  auto bip = rel::EvaluateAggregate(*BuildBipartiteQuery(q, p), identity);
  ASSERT_TRUE(bip.ok()) << bip.status().ToString();

  rel::Database flat;
  LICM_CHECK_OK(flat.Add("trans_item", d.ToTransItem()));
  auto ref = rel::EvaluateAggregate(*BuildFlatQuery(q, p), flat);
  ASSERT_TRUE(ref.ok());
  EXPECT_DOUBLE_EQ(*bip, *ref);
}

INSTANTIATE_TEST_SUITE_P(Q, PaperQueries, ::testing::Values(1, 2, 3));

TEST(Harness, RunCellProducesConsistentBounds) {
  BenchConfig config;
  config.num_transactions = 300;
  config.bipartite_transactions = 20;
  config.num_items = 40;
  config.solver_time_limit = 20.0;
  config.bipartite_time_limit = 10.0;
  QueryParams params;
  for (Scheme s : {Scheme::kKm, Scheme::kKAnon, Scheme::kBipartite}) {
    auto cell = RunCell(s, 1, 2, config, params);
    ASSERT_TRUE(cell.ok()) << SchemeName(s) << ": "
                           << cell.status().ToString();
    EXPECT_LE(cell->l_min, cell->m_min + 1e-9) << SchemeName(s);
    EXPECT_GE(cell->l_max, cell->m_max - 1e-9) << SchemeName(s);
    EXPECT_GE(cell->vars_query, cell->vars_pruned) << SchemeName(s);
    EXPECT_GE(cell->cons_query, cell->cons_pruned) << SchemeName(s);
  }
}

// The node LP (warm dual simplex with reduced-cost fixing) must earn its
// keep: on the benchmark's bipartite Query-1 point (24 transactions, k=4,
// Pa loc < 75) it proves the same bounds in strictly fewer nodes than
// propagation and probing alone.
TEST(Harness, NodeLpSavesNodesOnBipartiteQuery1) {
  data::GeneratorConfig gen;
  gen.num_transactions = 24;
  gen.num_items = 60;
  gen.seed = 42;
  auto d = data::GenerateTransactions(gen);
  auto groups = anonymize::SafeGrouping(d, {4, 2, gen.seed});
  ASSERT_TRUE(groups.ok());
  auto enc = anonymize::EncodeBipartite(*groups, d);
  ASSERT_TRUE(enc.ok());
  QueryParams p;
  p.q1_pa_max_loc = 75;
  auto q = BuildBipartiteQuery(1, p);
  AnswerOptions lp_on;
  lp_on.bounds.mip.num_threads = 1;
  AnswerOptions lp_off = lp_on;
  lp_off.bounds.mip.use_lp_bound = false;
  auto on = AnswerAggregate(*q, enc->db, lp_on);
  auto off = AnswerAggregate(*q, enc->db, lp_off);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on->bounds.min.exact && on->bounds.max.exact);
  ASSERT_TRUE(off->bounds.min.exact && off->bounds.max.exact);
  EXPECT_EQ(on->bounds.min.value, off->bounds.min.value);
  EXPECT_EQ(on->bounds.max.value, off->bounds.max.value);
  EXPECT_GT(on->bounds.stats.lp_solves, 0);
  EXPECT_EQ(off->bounds.stats.lp_solves, 0);
  EXPECT_LT(on->bounds.stats.nodes, off->bounds.stats.nodes);
}

}  // namespace
}  // namespace licm::bench
