// Ablation bench for the solver design choices DESIGN.md calls out:
// pruning, presolve, decomposition, the node LP (warm dual simplex with
// reduced-cost fixing), probing, and the solve cache. Runs one paper query
// with each feature toggled off and reports solve time, node counts, and
// the node-LP counters. Every variant must reproduce the all-features
// bounds exactly; a mismatch fails the run.
//
// Usage: bench_solver_ablation [query] [txns] [k] [fanout] [out.json]
//                              [scheme] [items] [q1_pa_max_loc]
//
// scheme is kanon (default), km or bipartite. Generalization schemes use
// a uniform item hierarchy of the given fanout; bipartite uses the safe
// grouping of group size k (fanout is ignored). The bip-search point of
// the benchmark, bipartite:4:24:60:42 with Query 1 at Pa loc < 75, is
//   bench_solver_ablation 1 24 4 0 out.json bipartite 60 75
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace licm::bench;
  using licm::AnswerOptions;

  BenchTraceInit();
  int qnum = 3;
  uint32_t txns = 600, k = 25, fanout = 16, items = 400;
  std::string out_path = "BENCH_solver_ablation.json";
  std::string scheme = "kanon";
  QueryParams params;
  if (argc > 1) qnum = std::atoi(argv[1]);
  if (argc > 2) txns = std::atoi(argv[2]);
  if (argc > 3) k = std::atoi(argv[3]);
  if (argc > 4) fanout = std::atoi(argv[4]);
  if (argc > 5) out_path = argv[5];
  if (argc > 6) scheme = argv[6];
  if (argc > 7) items = std::atoi(argv[7]);
  if (argc > 8) params.q1_pa_max_loc = std::atoi(argv[8]);
  const bool bipartite = scheme == "bipartite";
  if (qnum < 1 || qnum > 3 || txns == 0 || k < 2 || items == 0 ||
      (!bipartite && fanout < 2) ||
      (scheme != "kanon" && scheme != "km" && !bipartite)) {
    std::printf(
        "usage: bench_solver_ablation [query 1-3] [txns] [k] [fanout] "
        "[out.json] [kanon|km|bipartite] [items] [q1_pa_max_loc]\n");
    return 2;
  }

  licm::data::GeneratorConfig gen;
  gen.num_transactions = txns;
  gen.num_items = items;
  auto dataset = licm::data::GenerateTransactions(gen);
  licm::Result<licm::anonymize::EncodedDb> enc =
      licm::Status::Internal("unset");
  if (bipartite) {
    auto groups = licm::anonymize::SafeGrouping(dataset, {k, 2, gen.seed});
    if (!groups.ok()) {
      std::printf("grouping failed: %s\n",
                  groups.status().ToString().c_str());
      return 1;
    }
    enc = licm::anonymize::EncodeBipartite(*groups, dataset);
  } else {
    auto hierarchy =
        licm::anonymize::Hierarchy::BuildUniform(dataset.num_items, fanout);
    auto anon = scheme == "km"
                    ? licm::anonymize::KmAnonymize(dataset, hierarchy, {k, 2})
                    : licm::anonymize::KAnonymize(dataset, hierarchy, {k});
    if (!anon.ok()) {
      std::printf("anonymize failed: %s\n", anon.status().ToString().c_str());
      return 1;
    }
    enc = licm::anonymize::EncodeGeneralized(*anon, hierarchy, dataset);
  }
  if (!enc.ok()) {
    std::printf("encode failed: %s\n", enc.status().ToString().c_str());
    return 1;
  }
  // Popularity threshold scaled with the transaction count, as in
  // RunCell, so Query 3 stays non-trivial at bipartite scale.
  if (bipartite && txns < 6000) {
    params.q3_x = std::max<int64_t>(2, params.q3_x * txns / 6000);
  }
  auto query = bipartite ? BuildBipartiteQuery(qnum, params)
                         : BuildFlatQuery(qnum, params);

  struct Variant {
    const char* name;
    bool prune, presolve, decompose, lp, probing, cache;
  };
  constexpr bool T = true, F = false;
  const Variant variants[] = {
      {"all-features", T, T, T, T, T, T},
      // The node LP off: CI asserts it costs nodes on the bip-search
      // point (all-features nodes < no-lp-bound nodes).
      {"no-lp-bound", T, T, T, F, T, T},
      {"no-prune", F, T, T, T, T, T},
      {"no-presolve", T, F, T, T, T, T},
      {"no-decompose", T, T, F, T, T, T},
      {"no-probing", T, T, T, T, F, T},
      {"no-cache", T, T, T, T, T, F},
  };

  std::printf("# Solver/pipeline ablation on Query %d, %s k=%u, %u txns, "
              "%u items\n",
              qnum, scheme.c_str(), k, txns, items);
  // solve_ms is wall time of the outermost solve; cpu_ms sums the branch &
  // bound work across strands (equal when sequential). lp_solves / pivots
  // / rc_fixed count the node LP's work (zero when it is off or every
  // component exceeds its size gate).
  std::printf("%-13s %7s %7s %10s %10s %10s %8s %9s %8s %8s\n", "variant",
              "min", "max", "query_ms", "solve_ms", "cpu_ms", "nodes",
              "lp_solves", "pivots", "rc_fixed");
  std::vector<JsonRecord> records;
  double ref_min = 0.0, ref_max = 0.0;
  bool have_ref = false, parity_ok = true;
  auto options_for = [](const Variant& v) {
    AnswerOptions opts;
    opts.bounds.prune = v.prune;
    opts.bounds.mip.use_presolve = v.presolve;
    opts.bounds.mip.use_decomposition = v.decompose;
    opts.bounds.mip.use_lp_bound = v.lp;
    opts.bounds.mip.use_probing = v.probing;
    opts.bounds.mip.use_objective_probing = v.probing;
    opts.bounds.mip.use_cache = v.cache;
    opts.bounds.mip.time_limit_seconds = 600.0;
    // Sequential search: keeps solve_ms comparable across variants (no
    // pool contention) and the node counts deterministic.
    opts.bounds.mip.num_threads = 1;
    return opts;
  };
  // One discarded all-features pass first, so the first row does not pay
  // the process's cold caches and first-touch allocations (its query_ms
  // otherwise reads well above every later row's). An error here is
  // reported by the first row.
  (void)licm::AnswerAggregate(*query, enc->db, options_for(variants[0]));
  for (const Variant& v : variants) {
    auto ans = licm::AnswerAggregate(*query, enc->db, options_for(v));
    if (!ans.ok()) {
      std::printf("%-13s ERROR: %s\n", v.name,
                  ans.status().ToString().c_str());
      return 1;
    }
    const licm::solver::MipStats& st = ans->bounds.stats;
    std::printf("%-13s %7.1f %7.1f %10.1f %10.1f %10.1f %8lld %9lld %8lld "
                "%8lld\n",
                v.name, ans->bounds.min.value, ans->bounds.max.value,
                ans->query_ms, ans->solve_ms, st.cpu_seconds * 1e3,
                static_cast<long long>(st.nodes),
                static_cast<long long>(st.lp_solves),
                static_cast<long long>(st.lp_pivots),
                static_cast<long long>(st.rc_fixed_vars));
    std::fflush(stdout);
    if (!have_ref) {
      ref_min = ans->bounds.min.value;
      ref_max = ans->bounds.max.value;
      have_ref = true;
    } else if (ans->bounds.min.value != ref_min ||
               ans->bounds.max.value != ref_max) {
      std::printf("BOUNDS MISMATCH: %s produced [%g, %g], all-features "
                  "produced [%g, %g]\n",
                  v.name, ans->bounds.min.value, ans->bounds.max.value,
                  ref_min, ref_max);
      parity_ok = false;
    }
    JsonRecord rec;
    rec.AddString("bench", "solver_ablation")
        .AddString("variant", v.name)
        .AddString("scheme", scheme)
        .AddInt("query", qnum)
        .AddInt("txns", txns)
        .AddInt("k", k)
        .AddInt("items", items)
        .AddInt("q1_pa_max_loc", params.q1_pa_max_loc)
        .AddRunMetrics(ans->bounds.min.value, ans->bounds.max.value,
                       ans->bounds.min.exact, ans->bounds.max.exact,
                       ans->query_ms, ans->solve_ms, st)
        .AddInt("lp_solves", st.lp_solves)
        .AddInt("lp_pivots", st.lp_pivots)
        .AddInt("rc_fixed_vars", st.rc_fixed_vars);
    records.push_back(std::move(rec));
  }
  if (!parity_ok) return 1;
  auto write = WriteBenchJson(out_path, records);
  if (!write.ok()) {
    std::printf("json write failed: %s\n", write.ToString().c_str());
    return 1;
  }
  auto finish = BenchTraceFinish();
  if (!finish.ok()) {
    std::printf("trace export failed: %s\n", finish.ToString().c_str());
    return 1;
  }
  return 0;
}
