#include "licm/prune.h"

#include <algorithm>

#include "common/telemetry.h"

namespace licm {

PruneResult Prune(const ConstraintSet& constraints,
                  const std::vector<BVar>& seeds, uint32_t num_vars) {
  LICM_TRACE_SPAN("licm", "prune");
  PruneResult out;
  const auto& cs = constraints.constraints();
  out.stats.vars_before = num_vars;
  out.stats.constraints_before = cs.size();

  // var -> constraints mentioning it, as CSR: con_of[begin[v]..begin[v+1])
  // lists v's constraints in constraint order.
  std::vector<uint32_t> begin(static_cast<size_t>(num_vars) + 1, 0);
  for (const LinearConstraint& c : cs) {
    for (const auto& t : c.terms) {
      LICM_CHECK(t.var < num_vars);
      ++begin[t.var + 1];
    }
  }
  for (uint32_t v = 0; v < num_vars; ++v) begin[v + 1] += begin[v];
  std::vector<uint32_t> con_of(begin[num_vars]);
  {
    std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
    for (uint32_t c = 0; c < cs.size(); ++c) {
      for (const auto& t : cs[c].terms) con_of[fill[t.var]++] = c;
    }
  }

  // Breadth-first over the incidence graph; `live` doubles as the queue.
  out.is_live.assign(num_vars, 0);
  std::vector<uint8_t> con_live(cs.size(), 0);
  auto visit = [&](BVar v) {
    if (out.is_live[v] == 0) {
      out.is_live[v] = 1;
      out.live.push_back(v);
    }
  };
  for (BVar s : seeds) {
    LICM_CHECK(s < num_vars);
    visit(s);
  }
  for (size_t head = 0; head < out.live.size(); ++head) {
    const BVar v = out.live[head];
    for (uint32_t k = begin[v]; k < begin[v + 1]; ++k) {
      const uint32_t c = con_of[k];
      if (con_live[c] != 0) continue;
      con_live[c] = 1;
      for (const auto& t : cs[c].terms) visit(t.var);
    }
  }
  std::sort(out.live.begin(), out.live.end());

  for (uint32_t c = 0; c < cs.size(); ++c) {
    if (con_live[c] != 0) out.kept.push_back(c);
  }
  out.stats.vars_after = out.live.size();
  out.stats.constraints_after = out.kept.size();
  return out;
}

}  // namespace licm
