#include "solver/canonical.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>

namespace licm::solver {

namespace {

// splitmix64-style mixer; used to combine signature components.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Combine(uint64_t h, uint64_t v) { return Mix(h ^ Mix(v)); }

// Bit pattern of a double with -0.0 normalized to +0.0 so equal values hash
// equally.
uint64_t DoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  return std::bit_cast<uint64_t>(d);
}

uint64_t HashBytes(const std::string& s) {
  // FNV-1a, then mixed; collisions only cost hash-bucket sharing — key
  // comparison is always on the full bytes.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix(h);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendDouble(std::string* out, double d) { AppendU64(out, DoubleBits(d)); }

// Dense re-ranking of arbitrary 64-bit colors, order defined by the color
// values themselves (so the result is independent of input variable order
// whenever the colors are). Returns the number of distinct colors;
// `sorted` is reusable scratch.
size_t Densify(std::vector<uint64_t>* colors, std::vector<uint64_t>* sorted) {
  sorted->assign(colors->begin(), colors->end());
  std::sort(sorted->begin(), sorted->end());
  sorted->erase(std::unique(sorted->begin(), sorted->end()), sorted->end());
  for (uint64_t& c : *colors) {
    c = static_cast<uint64_t>(
        std::lower_bound(sorted->begin(), sorted->end(), c) -
        sorted->begin());
  }
  return sorted->size();
}

// Color refinement state, allocated once per Canonicalize and reused by
// every sweep. Each nonzero owns one bucket slot; a variable's slots are
// contiguous (CSR), so a sweep writes row signatures straight into place.
class Refiner {
 public:
  explicit Refiner(const LinearProgram& lp)
      : lp_(lp), slot_begin_(lp.num_vars() + 1, 0) {
    for (const Row& row : lp.rows()) {
      for (const Term& t : row.terms) ++slot_begin_[t.var + 1];
    }
    for (size_t v = 0; v < lp.num_vars(); ++v) {
      slot_begin_[v + 1] += slot_begin_[v];
    }
    buckets_.resize(slot_begin_.back());
    term_slot_.reserve(buckets_.size());
    std::vector<uint32_t> fill(slot_begin_.begin(), slot_begin_.end() - 1);
    for (const Row& row : lp.rows()) {
      for (const Term& t : row.terms) term_slot_.push_back(fill[t.var]++);
    }
  }

  // Densifies `colors`, then refines them until the partition stops
  // splitting (or is discrete).
  void ToFixpoint(std::vector<uint64_t>* colors) {
    size_t distinct = Densify(colors, &sorted_);
    for (size_t round = 0; round < lp_.num_vars(); ++round) {
      const size_t d = RefineOnce(colors);
      if (d == distinct || d == lp_.num_vars()) return;
      distinct = d;
    }
  }

 private:
  // One refinement sweep: row signatures from variable colors, then
  // variable colors from incident row signatures. One pass over the
  // nonzeros in each direction (plus a per-variable sort of its incident
  // signatures), so a sweep is O(nnz log deg) even on long cardinality
  // rows. Returns the number of distinct colors after the sweep.
  size_t RefineOnce(std::vector<uint64_t>* colors) {
    size_t k = 0;
    for (const Row& row : lp_.rows()) {
      uint64_t h =
          Combine(static_cast<uint64_t>(row.op), DoubleBits(row.rhs));
      row_sigs_.clear();
      for (const Term& t : row.terms) {
        row_sigs_.push_back(Combine((*colors)[t.var], DoubleBits(t.coef)));
      }
      std::sort(row_sigs_.begin(), row_sigs_.end());
      for (uint64_t sig : row_sigs_) h = Combine(h, sig);
      for (const Term& t : row.terms) {
        buckets_[term_slot_[k++]] = Combine(h, DoubleBits(t.coef));
      }
    }
    for (VarId v = 0; v < colors->size(); ++v) {
      const auto first = buckets_.begin() + slot_begin_[v];
      const auto last = buckets_.begin() + slot_begin_[v + 1];
      std::sort(first, last);
      uint64_t h = (*colors)[v];
      for (auto it = first; it != last; ++it) h = Combine(h, *it);
      (*colors)[v] = h;
    }
    return Densify(colors, &sorted_);
  }

  const LinearProgram& lp_;
  std::vector<uint32_t> slot_begin_;  // per variable, num_vars + 1
  std::vector<uint32_t> term_slot_;   // per nonzero in row-major order
  std::vector<uint64_t> buckets_;     // per slot: incident row signature
  std::vector<uint64_t> row_sigs_;
  std::vector<uint64_t> sorted_;
};

}  // namespace

CanonicalForm Canonicalize(const LinearProgram& lp) {
  const size_t n = lp.num_vars();
  CanonicalForm form;

  // Initial colors: everything that distinguishes a variable on its own.
  std::vector<uint64_t> colors(n);
  for (VarId v = 0; v < n; ++v) {
    const auto& def = lp.vars()[v];
    uint64_t h = DoubleBits(def.lower);
    h = Combine(h, DoubleBits(def.upper));
    h = Combine(h, def.is_integer ? 1 : 0);
    h = Combine(h, DoubleBits(lp.objective_coef(v)));
    colors[v] = h;
  }
  Refiner(lp).ToFixpoint(&colors);

  // Canonical position = final color rank, ties broken by input id. Tied
  // variables are automorphic on the structures LICM emits, and the byte
  // serialization below is invariant under automorphic relabelings, so the
  // tie-break never costs a hit there. (Full individualization-refinement
  // would cost O(orbits) extra fixpoint passes — more than solving the
  // typical component — for hit-rate gains only on 1-WL-hard structure
  // that LICM never produces.)
  form.canon_to_input.resize(n);
  for (VarId v = 0; v < n; ++v) form.canon_to_input[v] = v;
  std::sort(form.canon_to_input.begin(), form.canon_to_input.end(),
            [&colors](VarId a, VarId b) {
              return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
            });
  std::vector<VarId> input_to_canon(n);
  for (size_t pos = 0; pos < n; ++pos) {
    input_to_canon[form.canon_to_input[pos]] = static_cast<VarId>(pos);
  }

  // Serialize the relabeled rows into one buffer, then emit them sorted
  // by their bytes so the form is independent of row insertion order.
  std::string rows;
  std::vector<size_t> row_begin;
  row_begin.reserve(lp.num_rows() + 1);
  std::vector<std::pair<VarId, double>> terms;
  for (const Row& row : lp.rows()) {
    row_begin.push_back(rows.size());
    terms.clear();
    for (const Term& t : row.terms) {
      terms.emplace_back(input_to_canon[t.var], t.coef);
    }
    std::sort(terms.begin(), terms.end());
    rows.push_back(static_cast<char>(row.op));
    AppendDouble(&rows, row.rhs);
    AppendU64(&rows, terms.size());
    for (const auto& [var, coef] : terms) {
      AppendU64(&rows, var);
      AppendDouble(&rows, coef);
    }
  }
  row_begin.push_back(rows.size());
  auto row_bytes = [&rows, &row_begin](size_t r) {
    return std::string_view(rows).substr(row_begin[r],
                                         row_begin[r + 1] - row_begin[r]);
  };
  std::vector<size_t> order(lp.num_rows());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&row_bytes](size_t a, size_t b) {
    return row_bytes(a) < row_bytes(b);
  });

  std::string& key = form.key;
  key.reserve(24 + n * 33 + rows.size());
  AppendU64(&key, n);
  AppendU64(&key, lp.num_rows());
  AppendDouble(&key, lp.objective_constant());
  for (size_t pos = 0; pos < n; ++pos) {
    const VarId v = form.canon_to_input[pos];
    const auto& def = lp.vars()[v];
    AppendDouble(&key, def.lower);
    AppendDouble(&key, def.upper);
    key.push_back(def.is_integer ? 1 : 0);
    AppendDouble(&key, lp.objective_coef(v));
  }
  for (size_t r : order) key += row_bytes(r);

  form.hash = HashBytes(key);
  return form;
}

std::vector<double> CanonicalToInput(const CanonicalForm& form,
                                     const std::vector<double>& canonical_x) {
  std::vector<double> x(canonical_x.size());
  for (size_t pos = 0; pos < canonical_x.size(); ++pos) {
    x[form.canon_to_input[pos]] = canonical_x[pos];
  }
  return x;
}

std::vector<double> InputToCanonical(const CanonicalForm& form,
                                     const std::vector<double>& input_x) {
  std::vector<double> x(input_x.size());
  for (size_t pos = 0; pos < input_x.size(); ++pos) {
    x[pos] = input_x[form.canon_to_input[pos]];
  }
  return x;
}

}  // namespace licm::solver
