// Benchmark load generator: builds the workloads from the repository's public
// functions, runs the measured loops, and emits raw per-operation records
// as JSON lines on stdout. run.py turns the records into metrics and
// checks every answer; nothing here decides pass/fail on bounds.
//
//   perfbench_loadgen ref    --workload W
//       Reference answers, computed with the row engine (EvalEngine::kRow)
//       in a process of their own so they never touch the measured
//       process's peak RSS. For svc-rw it also picks each instance's
//       toggled constraint and replays every (instance, state, qnum) read
//       cache-warm through MutableInstance::Answer for the layer split
//       the wire does not carry.
//   perfbench_loadgen run    --workload kanon-mix|bip-search --seed N
//                           --seconds S [--trace-file PATH]
//       The offline closed loop: AnswerAggregate at one solver thread
//       with a private cache per call, with constraint-toggle writes
//       (MutableInstance::EditConstraintRhs) taking a tenth of the window.
//   perfbench_loadgen client --port P --server-pid PID --seed N --seconds S
//                           --edit inst:cindex:op0:rhs0:op1:rhs1 ...
//                           [--trace-file PATH]
//       The svc-rw closed loop against a running licm_serve: one thread,
//       three binary-codec connections, one write in twenty.
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "anonymize/generalize.h"
#include "anonymize/grouping.h"
#include "anonymize/hierarchy.h"
#include "anonymize/licm_encode.h"
#include "data/connectivity.h"
#include "data/transactions.h"
#include "harness.h"
#include "licm/evaluator.h"
#include "licm/mutable_instance.h"
#include "net/wire.h"
#include "service_workload.h"

namespace {

using namespace licm;
using Clock = std::chrono::steady_clock;

// Solver time limit of every offline read. A warm-up read that is not
// exact within it makes run.py refuse the workload as mis-sized.
constexpr double kReadTimeLimitS = 10.0;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Moves the calling thread to the next CPU it may run on, round robin.
// On a shared host each CPU's speed drifts with its neighbours' load; a
// single-threaded loop left on one CPU would measure that CPU. Rotating
// every operation spreads each run evenly over all of them.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }
  // The next CPU of the rotation; -1 when there is only one.
  int NextCpu() {
    return cpus_.size() < 2 ? -1 : cpus_[next_++ % cpus_.size()];
  }
  // Moves the calling thread to the next CPU.
  void Next() {
    const int cpu = NextCpu();
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T Check(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

// Host-speed probe: a fixed kernel of the benchmark's own, independent of
// the code under test: a pointer chase over 16 MB, a 4 MB copy and a chain
// of integer multiplies. The host this benchmark was written on changes
// speed by up to 2x over minutes, on every CPU at once; the probe's median
// over a run measures the speed the run had, and run.py scales the
// end-to-end times by it.
//
// The kernel runs in a child process forked before any work, so its
// buffers never count in the measured process's peak RSS. The offline
// loop blocks while it runs, so the two never compete for a CPU; the
// service client runs it beside the load (RunClient).
class HostProbe {
 public:
  HostProbe() {
    int request[2], reply[2];
    if (::pipe(request) != 0 || ::pipe(reply) != 0) Die("pipe");
    pid_ = ::fork();
    if (pid_ < 0) Die("fork");
    if (pid_ == 0) {
      ::close(request[1]);
      ::close(reply[0]);
      Serve(request[0], reply[1]);
      ::_exit(0);
    }
    ::close(request[0]);
    ::close(reply[1]);
    to_ = request[1];
    from_ = reply[0];
  }
  ~HostProbe() {
    ::close(to_);  // the child sees end-of-file and exits
    ::waitpid(pid_, nullptr, 0);
    ::close(from_);
  }
  // Runs the kernel in the child, pinned to `cpu` (-1: anywhere); returns
  // its wall time in ms.
  double RunMs(int cpu) {
    Start(cpu);
    return Finish();
  }
  // The same in two halves, for a caller that polls reply_fd() meanwhile.
  void Start(int cpu) {
    if (::write(to_, &cpu, sizeof(cpu)) != sizeof(cpu)) {
      Die("host probe failed");
    }
  }
  double Finish() {
    double ms = 0;
    if (::read(from_, &ms, sizeof(ms)) != sizeof(ms)) {
      Die("host probe failed");
    }
    samples_.push_back(ms);
    return ms;
  }
  int reply_fd() const { return from_; }
  double MedianMs() {
    if (samples_.empty()) return 0;
    auto mid = samples_.begin() + samples_.size() / 2;
    std::nth_element(samples_.begin(), mid, samples_.end());
    return *mid;
  }
  size_t count() const { return samples_.size(); }

 private:
  static void Serve(int in, int out) {
    std::vector<uint32_t> chase(4 << 20);
    std::vector<char> src(4 << 20, 1), dst(4 << 20, 0);
    // One random cycle (Sattolo's shuffle, fixed seed), so the chase
    // defeats the prefetcher.
    for (size_t i = 0; i < chase.size(); ++i) {
      chase[i] = static_cast<uint32_t>(i);
    }
    uint64_t x = 88172645463325252ull;
    for (size_t i = chase.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(chase[i], chase[x % i]);
    }
    volatile uint64_t sink = 0;
    auto kernel = [&] {
      uint32_t p = 0;
      for (int i = 0; i < 10000; ++i) p = chase[p];
      std::memcpy(dst.data(), src.data(), src.size());
      uint64_t h = p + static_cast<uint64_t>(dst[p % dst.size()]);
      for (int i = 0; i < 300000; ++i) {
        h = h * 6364136223846793005ull + 1442695040888963407ull;
      }
      sink = sink + h;
    };
    int cpu = 0;
    while (::read(in, &cpu, sizeof(cpu)) == sizeof(cpu)) {
      if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof(set), &set);
      }
      // The first run brings the buffers back into cache, so the timed
      // second one does not depend on what the measured code left there.
      kernel();
      const auto t0 = std::chrono::steady_clock::now();
      kernel();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (::write(out, &ms, sizeof(ms)) != sizeof(ms)) break;
    }
  }

  pid_t pid_ = -1;
  int to_ = -1, from_ = -1;
  std::vector<double> samples_;
};

// One JSON object per line. Numbers keep all their digits.
class Line {
 public:
  explicit Line(const char* type) { os_ << "{\"type\":\"" << type << '"'; }
  Line& Num(const char* k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << ",\"" << k << "\":" << buf;
    return *this;
  }
  Line& Int(const char* k, int64_t v) {
    os_ << ",\"" << k << "\":" << v;
    return *this;
  }
  Line& Str(const char* k, const std::string& v) {
    os_ << ",\"" << k << "\":\"" << v << '"';
    return *this;
  }
  // `json` must already be a JSON value (e.g. a raw service response).
  Line& Raw(const char* k, const std::string& json) {
    os_ << ",\"" << k << "\":" << json;
    return *this;
  }
  void Emit() {
    os_ << "}\n";
    std::fputs(os_.str().c_str(), stdout);
  }

 private:
  std::ostringstream os_;
};

// Spans around the public calls, kept in memory and written as JSON lines
// to --trace-file at exit. Recording is two clock reads and a push.
class Tracer {
 public:
  void Open(const std::string& path) {
    path_ = path;
    enabled_ = !path.empty();
  }
  bool enabled() const { return enabled_; }
  struct Scope {
    Tracer* t;
    const char* name;
    std::string detail;
    Clock::time_point t0 = Clock::now();
    ~Scope() {
      if (t != nullptr && t->enabled_) t->Add(name, detail, t0, Clock::now());
    }
  };
  // `on` = false records nothing (the untraced half of a traced run).
  Scope Span(const char* name, std::string detail = "", bool on = true) {
    return Scope{enabled_ && on ? this : nullptr, name, std::move(detail)};
  }
  void Add(const char* name, const std::string& detail, Clock::time_point t0,
           Clock::time_point t1) {
    spans_.push_back({name, detail, t0, t1});
  }
  // Verbatim records (the server's stats/metrics replies).
  void Note(const std::string& json_line) { notes_.push_back(json_line); }
  void Flush() const {
    if (!enabled_) return;
    std::ofstream out(path_);
    auto base = Clock::now();
    for (const auto& s : spans_) base = std::min(base, s.t0);
    for (const auto& s : spans_) {
      out << "{\"span\":\"" << s.name << "\",\"detail\":\"" << s.detail
          << "\",\"start_us\":"
          << std::chrono::duration<double, std::micro>(s.t0 - base).count()
          << ",\"dur_us\":"
          << std::chrono::duration<double, std::micro>(s.t1 - s.t0).count()
          << "}\n";
    }
    for (const auto& n : notes_) out << n << "\n";
  }

 private:
  struct Rec {
    const char* name;
    std::string detail;
    Clock::time_point t0, t1;
  };
  std::string path_;
  bool enabled_ = false;
  std::vector<Rec> spans_;
  std::vector<std::string> notes_;
};

Tracer g_trace;

// ---------------------------------------------------------------------------
// Workload catalogue.
// ---------------------------------------------------------------------------

struct Shape {
  std::string name;
  int qnum;
  bench::QueryParams params;
};

struct OfflineWorkload {
  std::string name;
  tools::InstanceSpec spec;
  std::vector<Shape> shapes;
  // Largest location any shape selects (every shape's predicates are
  // loc < bound). Constraints whose whole component lies above it are
  // unreachable from every read.
  int64_t loc_bound;
  // Relation whose maybe-tuples carry the transaction location.
  std::string loc_relation;
};

bench::QueryParams Q3Params(int64_t pa, int64_t pb) {
  bench::QueryParams p;
  p.q3_pa_max_loc = pa;
  p.q3_pb_max_loc = pb;
  p.q3_x = 2;
  return p;
}

OfflineWorkload GetOfflineWorkload(const std::string& name) {
  OfflineWorkload w;
  w.name = name;
  if (name == "kanon-mix") {
    // The paper's Fig-5 path: Q1/Q2/Q3 over a k-anonymized generalization
    // instance (45k variables, 49 isomorphic group components).
    w.spec = Check(tools::ParseInstanceSpec("kanon-mix=kanon:10:400:200:42"),
                   "spec");
    bench::QueryParams q3;
    q3.q3_x = 2;  // as tools::BuildServiceQuery scales it at 400 txns
    w.shapes = {{"q1", 1, {}}, {"q2", 2, {}}, {"q3", 3, q3}};
    w.loc_bound = 100;
    w.loc_relation = "trans_item";
  } else if (name == "bip-search") {
    // One permutation-coupled component; search is the whole read.
    w.spec = Check(
        tools::ParseInstanceSpec("bip-search=bipartite:4:24:60:42"), "spec");
    bench::QueryParams q1;
    q1.q1_pa_max_loc = 75;
    w.shapes = {{"q3-50-50", 3, Q3Params(50, 50)},
                {"q3-50-75", 3, Q3Params(50, 75)},
                {"q1-75", 1, q1},
                {"q3-75-50", 3, Q3Params(75, 50)},
                {"q3-100-40", 3, Q3Params(100, 40)}};
    w.loc_bound = 100;
    w.loc_relation = "trans_group";
  } else {
    Die("unknown offline workload '" + name + "'");
  }
  return w;
}

rel::QueryNodePtr BuildShape(const OfflineWorkload& w, const Shape& s) {
  return w.spec.scheme == bench::Scheme::kBipartite
             ? bench::BuildBipartiteQuery(s.qnum, s.params)
             : bench::BuildFlatQuery(s.qnum, s.params);
}

// The set-up path, one span per public call.
anonymize::EncodedDb BuildEncoded(const tools::InstanceSpec& spec,
                                  double* anonymize_ms) {
  data::GeneratorConfig gen;
  gen.num_transactions = spec.transactions;
  gen.num_items = spec.items;
  gen.seed = spec.seed;
  data::TransactionDataset dataset;
  {
    auto span = g_trace.Span("GenerateTransactions");
    dataset = data::GenerateTransactions(gen);
  }
  const auto t0 = Clock::now();
  anonymize::EncodedDb enc;
  if (spec.scheme == bench::Scheme::kBipartite) {
    anonymize::BipartiteGroups groups;
    {
      auto span = g_trace.Span("SafeGrouping");
      groups = Check(anonymize::SafeGrouping(dataset, {spec.k, 2, spec.seed}),
                     "SafeGrouping");
    }
    auto span = g_trace.Span("EncodeBipartite");
    enc = Check(anonymize::EncodeBipartite(groups, dataset), "encode");
  } else {
    const anonymize::Hierarchy h =
        anonymize::Hierarchy::BuildUniform(dataset.num_items, 2);
    anonymize::GeneralizedDataset anon;
    if (spec.scheme == bench::Scheme::kKm) {
      auto span = g_trace.Span("KmAnonymize");
      anon = Check(anonymize::KmAnonymize(dataset, h, {spec.k, 2}),
                   "KmAnonymize");
    } else {
      auto span = g_trace.Span("KAnonymize");
      anon = Check(anonymize::KAnonymize(dataset, h, {spec.k}), "KAnonymize");
    }
    auto span = g_trace.Span("EncodeGeneralized");
    enc = Check(anonymize::EncodeGeneralized(anon, h, dataset), "encode");
  }
  *anonymize_ms = MsSince(t0);
  return enc;
}

// ---------------------------------------------------------------------------
// Constraint toggles. A write flips one constraint between its original
// comparison (state 0) and a second one (state 1); both states are
// feasible.
// ---------------------------------------------------------------------------

struct Toggle {
  size_t index = 0;
  ConstraintOp op[2] = {ConstraintOp::kGe, ConstraintOp::kGe};
  int64_t rhs[2] = {0, 0};
};

LicmDatabase InState(LicmDatabase db, const Toggle& tg, int state) {
  LinearConstraint c = db.constraints().constraints()[tg.index];
  c.op = tg.op[state];
  c.rhs = tg.rhs[state];
  db.constraints().Replace(tg.index, std::move(c));
  return db;
}

// Integer column `column` of each maybe-variable's tuple in `relation`
// (-1 for variables of other relations).
std::vector<int64_t> VarColumn(const LicmDatabase& db,
                               const std::string& relation,
                               const std::string& column) {
  std::vector<int64_t> out(db.pool().size(), -1);
  const LicmRelation* r = Check(db.GetRelation(relation), "relation");
  const size_t col = Check(r->schema().IndexOf(column), "column");
  for (size_t i = 0; i < r->size(); ++i) {
    if (r->ext(i).certain()) continue;
    out[r->ext(i).var()] = std::get<int64_t>(r->tuple(i)[col]);
  }
  return out;
}

// The first constraint (in index order) with >= 2 terms whose whole
// component is made of `loc_relation` variables at locations >= bound.
// No shape's predicates select any of them, so releasing it ("ge 0")
// leaves every read's pruned problem, node count and bounds unchanged.
Toggle OfflineToggle(const LicmDatabase& db, const OfflineWorkload& w) {
  const std::vector<int64_t> loc = VarColumn(db, w.loc_relation, "loc");
  const auto& cons = db.constraints().constraints();
  data::ConnectivityIndex components;
  components.Reset(db.pool().size());
  for (const LinearConstraint& c : cons) {
    for (size_t t = 1; t < c.terms.size(); ++t) {
      components.Union(c.terms[0].var, c.terms[t].var);
    }
  }
  std::vector<char> reachable(db.pool().size(), 0);
  for (uint32_t v = 0; v < loc.size(); ++v) {
    if (loc[v] < w.loc_bound) reachable[components.Find(v)] = 1;
  }
  for (size_t i = 0; i < cons.size(); ++i) {
    if (cons[i].terms.size() < 2) continue;
    if (reachable[components.Find(cons[i].terms[0].var)]) continue;
    Toggle tg;
    tg.index = i;
    tg.op[0] = cons[i].op;
    tg.rhs[0] = cons[i].rhs;
    return tg;
  }
  Die("no unreachable constraint to toggle in " + w.name);
}

const char* OpName(ConstraintOp op) {
  switch (op) {
    case ConstraintOp::kLe: return "le";
    case ConstraintOp::kGe: return "ge";
    case ConstraintOp::kEq: return "eq";
  }
  return "?";
}

AnswerOptions OneThread(rel::EvalEngine engine) {
  AnswerOptions o;
  o.engine = engine;
  o.bounds.mip.num_threads = 1;
  o.bounds.mip.time_limit_seconds = kReadTimeLimitS;
  return o;
}

// Emits the layer split an AggregateAnswer carries.
Line& AnswerFields(Line& l, const AggregateAnswer& a, double wall_ms) {
  const solver::MipStats& s = a.bounds.stats;
  return l.Num("ms", wall_ms)
      .Num("min", a.bounds.min.value)
      .Num("max", a.bounds.max.value)
      .Int("exact", a.bounds.min.exact && a.bounds.max.exact)
      .Num("query_ms", a.query_ms)
      .Num("solve_ms", a.solve_ms)
      .Int("vars_q", static_cast<int64_t>(a.vars_at_query))
      .Int("cons_q", static_cast<int64_t>(a.constraints_at_query))
      .Int("pruned",
           static_cast<int64_t>(a.bounds.prune_stats.vars_before -
                                a.bounds.prune_stats.vars_after))
      .Int("nodes", s.nodes)
      .Int("components", static_cast<int64_t>(s.components))
      .Int("cache_hits", s.cache_hits)
      .Int("cache_misses", s.cache_misses)
      .Int("canonical", s.canonical_forms)
      .Int("lp_solves", s.lp_solves)
      .Int("lp_pivots", s.lp_pivots)
      .Num("cpu_s", s.cpu_seconds)
      .Num("solve_s", s.solve_seconds);
}

// ---------------------------------------------------------------------------
// ref
// ---------------------------------------------------------------------------

void EmitReference(const char* instance, int state, const std::string& cls,
                   const rel::QueryNode& q, const LicmDatabase& db) {
  const auto t0 = Clock::now();
  AggregateAnswer a =
      Check(AnswerAggregate(q, db, OneThread(rel::EvalEngine::kRow)), "ref");
  Line l("ref");
  l.Str("instance", instance).Int("state", state).Str("class", cls);
  AnswerFields(l, a, MsSince(t0)).Emit();
}

// svc-rw instances, as licm_serve --instance specs.
const std::vector<std::string>& ServiceInstances() {
  static const std::vector<std::string> specs = {"a=kanon:10:200:100:42",
                                                 "b=km:6:120:60:42"};
  return specs;
}

// The svc-rw read cycle over (instance index, qnum). Five equally
// weighted classes keep p50, p90 and p99 clear of every class boundary
// of the latency-sorted mix (boundaries at 20/40/60/80%); five is prime,
// so every connection stride visits all of them.
const std::vector<std::pair<int, int>>& ServicePairs() {
  static const std::vector<std::pair<int, int>> pairs = {
      {0, 1}, {0, 2}, {0, 3}, {1, 1}, {1, 2}};
  return pairs;
}

// The svc-rw toggle of one instance: a generalized-item constraint
// (sum of leaf variables >= 1) of a transaction that Queries 1 and 2
// select but Query 3 does not (50 <= loc < 100), with a possible Query-1
// item (price < 10) among its leaves. Query 3's single coupled component
// stays untouched, so no state makes it hard. The state-1 edit changes
// which leaves may be present, so each state has its own reference
// answers and the version check has teeth. Candidates are tried smallest
// first, each with three state-1 edits (no leaf, exactly one leaf, every
// leaf); the first that moves some query's bounds while every query stays
// exact wins. The choice depends on the instance alone, never on timing.
Toggle ServiceToggle(const tools::InstanceSpec& spec, const LicmDatabase& db) {
  const std::vector<int64_t> loc = VarColumn(db, "trans_item", "loc");
  const std::vector<int64_t> price = VarColumn(db, "trans_item", "price");
  const bench::QueryParams params;
  std::vector<rel::QueryNodePtr> queries;
  for (int q = 1; q <= 3; ++q) {
    queries.push_back(Check(tools::BuildServiceQuery(spec, q), "query"));
  }
  const AnswerOptions options = OneThread(rel::EvalEngine::kColumnar);
  std::vector<AggregateAnswer> base;
  for (const auto& q : queries) {
    base.push_back(Check(AnswerAggregate(*q, db, options), "probe"));
  }

  const auto& cons = db.constraints().constraints();
  std::vector<std::pair<size_t, size_t>> candidates;  // (terms, index)
  for (size_t i = 0; i < cons.size(); ++i) {
    const LinearConstraint& c = cons[i];
    if (c.terms.size() < 2 || c.op != ConstraintOp::kGe || c.rhs != 1) {
      continue;
    }
    bool selected = true, has_pb = false;
    for (const auto& t : c.terms) {
      selected &= loc[t.var] >= params.q3_pa_max_loc &&
                  loc[t.var] >= params.q3_pb_max_loc &&
                  loc[t.var] < params.q1_pa_max_loc;
      has_pb |= price[t.var] >= 0 && price[t.var] < params.q1_pb_max_price;
    }
    if (selected && has_pb) candidates.push_back({c.terms.size(), i});
  }
  std::sort(candidates.begin(), candidates.end());
  constexpr size_t kMaxProbes = 8;
  if (candidates.size() > kMaxProbes) candidates.resize(kMaxProbes);
  // State-1 edits per candidate, mildest change to the world set last.
  const std::pair<ConstraintOp, int64_t> kEdits[] = {
      {ConstraintOp::kLe, 0}, {ConstraintOp::kEq, 1}, {ConstraintOp::kGe, -1}};
  for (const auto& [terms, i] : candidates) {
    for (const auto& [op, rhs] : kEdits) {
      Toggle tg;
      tg.index = i;
      tg.op[0] = cons[i].op;
      tg.rhs[0] = cons[i].rhs;
      tg.op[1] = op;
      tg.rhs[1] = rhs < 0 ? static_cast<int64_t>(terms) : rhs;
      const LicmDatabase edited = InState(db, tg, 1);
      bool moved = false, exact = true;
      for (size_t q = 0; q < queries.size() && exact; ++q) {
        const AggregateAnswer a =
            Check(AnswerAggregate(*queries[q], edited, options), "probe");
        exact = a.bounds.min.exact && a.bounds.max.exact;
        moved |= a.bounds.min.value != base[q].bounds.min.value ||
                 a.bounds.max.value != base[q].bounds.max.value;
      }
      if (moved && exact) return tg;
    }
  }
  Die("no bound-changing constraint to toggle in " + spec.name);
}

int RunRef(const std::string& workload) {
  if (workload != "svc-rw") {
    const OfflineWorkload w = GetOfflineWorkload(workload);
    double anonymize_ms = 0;
    const anonymize::EncodedDb enc = BuildEncoded(w.spec, &anonymize_ms);
    const Toggle tg = OfflineToggle(enc.db, w);
    const LicmDatabase states[2] = {enc.db, InState(enc.db, tg, 1)};
    for (int s = 0; s < 2; ++s) {
      for (const Shape& shape : w.shapes) {
        EmitReference(w.name.c_str(), s, shape.name, *BuildShape(w, shape),
                      states[s]);
      }
    }
    return 0;
  }
  for (const std::string& text : ServiceInstances()) {
    const tools::InstanceSpec spec =
        Check(tools::ParseInstanceSpec(text), "spec");
    double anonymize_ms = 0;
    const anonymize::EncodedDb enc = BuildEncoded(spec, &anonymize_ms);
    Line("setup")
        .Str("instance", spec.name)
        .Num("anonymize_ms", anonymize_ms)
        .Int("vars", static_cast<int64_t>(enc.db.pool().size()))
        .Int("constraints", static_cast<int64_t>(enc.db.constraints().size()))
        .Emit();
    const Toggle tg = ServiceToggle(spec, enc.db);
    Line("edit")
        .Str("instance", spec.name)
        .Str("spec", text)
        .Int("cindex", static_cast<int64_t>(tg.index))
        .Str("cop0", OpName(tg.op[0]))
        .Int("rhs0", tg.rhs[0])
        .Str("cop1", OpName(tg.op[1]))
        .Int("rhs1", tg.rhs[1])
        .Emit();
    const LicmDatabase states[2] = {enc.db, InState(enc.db, tg, 1)};
    for (int s = 0; s < 2; ++s) {
      for (int q = 1; q <= 3; ++q) {
        const auto query = Check(tools::BuildServiceQuery(spec, q), "query");
        EmitReference(spec.name.c_str(), s, "q" + std::to_string(q), *query,
                      states[s]);
      }
    }
    // Cache-warm replay of every read the server will serve, through the
    // instance's shared cache as the service does. The last of three
    // passes is the warm one.
    MutableInstance inst(enc.db);
    for (int pass = 0; pass < 3; ++pass) {
      for (int s = 0; s < 2; ++s) {
        for (int q = 1; q <= 3; ++q) {
          const auto query = Check(tools::BuildServiceQuery(spec, q), "query");
          const auto t0 = Clock::now();
          AggregateAnswer a = Check(
              inst.Answer(*query, OneThread(rel::EvalEngine::kColumnar)),
              "replay");
          const double ms = MsSince(t0);
          if (pass == 2) {
            Line l("replay");
            l.Str("instance", spec.name).Int("state", s).Int("qnum", q);
            AnswerFields(l, a, ms).Emit();
          }
        }
        Check(inst.EditConstraintRhs(tg.index, tg.op[1 - s], tg.rhs[1 - s]),
              "replay toggle");
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// run (offline closed loop)
// ---------------------------------------------------------------------------

// Rotation of the round-robin class order, from the seed.
std::vector<size_t> ClassOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = (i + seed) % n;
  return order;
}

int RunOffline(const std::string& workload, uint64_t seed, double seconds) {
  const OfflineWorkload w = GetOfflineWorkload(workload);
  HostProbe probe;  // forked while the process is still small

  // Set-up, repeated for at least a second (and 15 times); the last build
  // is kept. Each rep is the whole path from generator to a servable
  // versioned instance.
  constexpr int kMinSetupReps = 15, kMaxSetupReps = 2000;
  constexpr double kMinSetupMs = 1000;
  anonymize::EncodedDb enc;
  std::unique_ptr<MutableInstance> inst;
  CpuRotation cpus;
  const auto setup_start = Clock::now();
  for (int rep = 0;
       rep < kMaxSetupReps &&
       (rep < kMinSetupReps || MsSince(setup_start) < kMinSetupMs);
       ++rep) {
    cpus.Next();
    const auto t0 = Clock::now();
    double anonymize_ms = 0;
    enc = BuildEncoded(w.spec, &anonymize_ms);
    {
      auto span = g_trace.Span("MutableInstance");
      inst = std::make_unique<MutableInstance>(enc.db);
    }
    Line("setup")
        .Num("s", MsSince(t0) / 1e3)
        .Num("anonymize_ms", anonymize_ms)
        .Int("vars", static_cast<int64_t>(enc.db.pool().size()))
        .Int("constraints",
             static_cast<int64_t>(enc.db.constraints().size()))
        .Emit();
  }
  const Toggle tg = OfflineToggle(enc.db, w);

  std::vector<rel::QueryNodePtr> queries;
  for (const Shape& s : w.shapes) queries.push_back(BuildShape(w, s));
  const AnswerOptions opts = OneThread(rel::EvalEngine::kColumnar);

  int state = 0;
  auto write = [&](bool warm, bool traced) {
    cpus.Next();
    const int next = 1 - state;
    const auto t0 = Clock::now();
    Result<MutationResult> r = [&] {
      auto span = g_trace.Span("EditConstraintRhs", "", traced);
      return inst->EditConstraintRhs(tg.index, tg.op[next], tg.rhs[next]);
    }();
    const double ms = MsSince(t0);
    Line l("write");
    l.Int("warm", warm).Int("state", next).Num("ms", ms);
    if (r.ok()) {
      state = next;
      l.Int("ok", 1)
          .Int("version", static_cast<int64_t>(r->version))
          .Num("commit_ms", r->commit_ms)
          .Int("dirty_components",
               static_cast<int64_t>(r->dirty_components));
    } else {
      l.Int("ok", 0).Str("error", "write failed");
    }
    l.Emit();
  };
  auto read = [&](size_t c, bool warm, bool traced) {
    cpus.Next();
    const auto snap = inst->snapshot();
    const auto t0 = Clock::now();
    Result<AggregateAnswer> a = [&] {
      auto span = g_trace.Span("AnswerAggregate", w.shapes[c].name, traced);
      return AnswerAggregate(*queries[c], snap->db, opts);
    }();
    const double ms = MsSince(t0);
    Line l("read");
    l.Int("warm", warm)
        .Int("traced", traced)
        .Str("class", w.shapes[c].name)
        .Int("state", state);
    if (a.ok()) {
      AnswerFields(l.Int("ok", 1), *a, ms).Emit();
    } else {
      l.Int("ok", 0).Num("ms", ms).Emit();
    }
  };

  // Warm-up pass, discarded: every class in both states.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t c = 0; c < w.shapes.size(); ++c) read(c, true, false);
    write(true, false);
  }

  // Measured window: classes interleaved round-robin (rotated by the
  // seed). Writes are spread through the window so that they sample the
  // same host conditions as the reads, and take a tenth of its time: after
  // each round, writes run until their total time catches up with a tenth
  // of the elapsed window. Each round also runs one host probe, on the
  // next CPU. The read figures subtract the writes' and
  // probes' wall and CPU time, so that they measure reads alone. Under
  // tracing, rounds alternate traced / untraced so the span cost can be
  // read off the two halves.
  const std::vector<size_t> order = ClassOrder(w.shapes.size(), seed);
  double write_ms = 0, aside_ms = 0, aside_cpu_s = 0;
  auto aside = [&](auto&& fn) {
    const double c0 = ProcessCpuSeconds();
    const auto a0 = Clock::now();
    fn();
    const double ms = MsSince(a0);
    aside_ms += ms;
    aside_cpu_s += ProcessCpuSeconds() - c0;
    return ms;
  };
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  const double budget_ms = seconds * 1e3;
  int64_t rounds = 0;
  while (MsSince(t0) < budget_ms) {
    const bool traced = g_trace.enabled() && rounds % 2 == 0;
    for (size_t c : order) read(c, false, traced);
    ++rounds;
    aside([&] { probe.RunMs(cpus.NextCpu()); });
    while (write_ms < MsSince(t0) / 10) {
      write_ms += aside([&] { write(false, traced); });
    }
  }
  const double window_s = (MsSince(t0) - aside_ms) / 1e3;
  const double window_cpu_s = ProcessCpuSeconds() - cpu0 - aside_cpu_s;
  // "seconds" and "cpu_s" are the window's, less the writes' and probes'.
  Line("window")
      .Num("seconds", window_s)
      .Num("cpu_s", window_cpu_s)
      .Num("probe_ms", probe.MedianMs())
      .Int("probes", static_cast<int64_t>(probe.count()))
      .Num("peak_rss_kb", static_cast<double>(bench::PeakRssKb()))
      .Int("rounds", rounds)
      .Int("toggle_cindex", static_cast<int64_t>(tg.index))
      .Emit();
  return 0;
}

// ---------------------------------------------------------------------------
// client (svc-rw closed loop over the binary codec)
// ---------------------------------------------------------------------------

struct ServerProc {
  int pid;
  // utime + stime of the server, seconds.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t close = text.rfind(')');
    if (close == std::string::npos) Die("cannot read server /proc stat");
    std::istringstream fields(text.substr(close + 2));
    std::string f;
    double ticks = 0;
    // Fields after the command name start at 3 (state); utime/stime are
    // 14 and 15.
    for (int i = 3; i <= 15 && (fields >> f); ++i) {
      if (i >= 14) ticks += std::stod(f);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  double PeakRssKb() const {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
    }
    Die("cannot read server VmHWM");
  }
};

struct Conn {
  int fd = -1;
  std::string inbuf;
  // The outstanding op, if any.
  bool busy = false;
  Clock::time_point sent;
  std::string kind;  // "r" | "w"
  int instance = 0, qnum = 0, want_state = 0;
  bool traced = false, warm = false;
  int64_t reads = 0;
  // This connection reads pair (offset + stride * reads) of the cycle.
  // Distinct strides coprime with the cycle length keep two connections
  // from locking onto the same pair after one coalesced read.
  size_t offset = 0, stride = 1;
};

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect to port " + std::to_string(port) + " failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) Die("send failed");
    off += static_cast<size_t>(n);
  }
}

// Reads until one response frame is complete; returns its JSON payload.
std::optional<std::string> TryTakeResponse(Conn& c) {
  size_t consumed = 0;
  net::Frame frame;
  Result<bool> got = net::TryDecodeFrame(c.inbuf, &consumed, &frame);
  if (!got.ok()) Die("corrupt response frame: " + got.status().ToString());
  if (!*got) return std::nullopt;
  c.inbuf.erase(0, consumed);
  return frame.payload;
}

std::string BlockingCall(Conn& c, const service::WireRequest& req) {
  SendAll(c.fd, net::EncodeRequestFrame(req));
  char buf[65536];
  while (true) {
    if (auto resp = TryTakeResponse(c)) return *resp;
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n <= 0) Die("server closed the connection");
    c.inbuf.append(buf, static_cast<size_t>(n));
  }
}

// One instance's toggle: constraint `cindex` reads `cop[s] rhs[s]` in
// state s.
struct EditSpec {
  std::string instance;
  int64_t cindex;
  std::string cop[2];
  int64_t rhs[2];
};

int RunClient(int port, int server_pid, uint64_t seed, double seconds,
              const std::vector<EditSpec>& edits) {
  constexpr int kConnections = 3;
  constexpr int kWriteEvery = 20;
  // The host probe runs beside the load, unpinned, so it sees the host
  // under the same load as the service: one run, then kProbeGap idle.
  constexpr auto kProbeGap = std::chrono::milliseconds(50);
  const ServerProc server{server_pid};
  HostProbe probe;
  const int instances = static_cast<int>(edits.size());
  const size_t pairs = ServicePairs().size();

  std::vector<Conn> conns(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    conns[i].fd = Connect(port);
    // Per-connection starting offsets into the (instance, qnum) cycle.
    conns[i].offset = static_cast<size_t>((seed + 2 * i) % pairs);
    conns[i].stride = static_cast<size_t>(i + 1);
  }
  Conn& ctl = conns[0];
  int64_t next_id = 1;
  size_t last_request_bytes = 0;
  auto verb = [&](const char* op) {
    service::WireRequest req;
    req.op = op;
    req.id = next_id++;
    last_request_bytes = net::EncodeRequestFrame(req).size();
    return BlockingCall(ctl, req);
  };
  std::vector<int> state(instances, 0);
  auto edit_request = [&](int inst, int to_state) {
    service::WireRequest req;
    req.op = "mutate";
    req.action = "edit";
    req.instance = edits[inst].instance;
    req.cindex = edits[inst].cindex;
    req.cop = edits[inst].cop[to_state];
    req.rhs = edits[inst].rhs[to_state];
    return req;
  };
  auto query_request = [&](int inst, int qnum) {
    service::WireRequest req;
    req.op = "query";
    req.instance = edits[inst].instance;
    req.qnum = qnum;
    return req;
  };
  auto emit = [&](const Conn& c, const std::string& resp, double ms) {
    Line l("op");
    l.Str("kind", c.kind)
        .Int("warm", c.warm)
        .Int("traced", c.traced)
        .Str("instance", edits[c.instance].instance)
        .Int("qnum", c.qnum)
        .Int("want_state", c.want_state)
        .Num("ms", ms)
        .Raw("resp", resp)
        .Emit();
  };

  // Warm-up, discarded: every (instance, qnum) read in both states.
  for (int inst = 0; inst < instances; ++inst) {
    for (int s = 0; s < 2; ++s) {
      for (int q = 1; q <= 3; ++q) {
        service::WireRequest req = query_request(inst, q);
        req.id = next_id++;
        ctl.kind = "r";
        ctl.warm = true;
        ctl.instance = inst;
        ctl.qnum = q;
        ctl.want_state = s;
        const auto t0 = Clock::now();
        const std::string resp = BlockingCall(ctl, req);
        emit(ctl, resp, MsSince(t0));
      }
      service::WireRequest req = edit_request(inst, 1 - s);
      req.id = next_id++;
      ctl.kind = "w";
      ctl.want_state = 1 - s;
      ctl.qnum = 0;
      const auto t0 = Clock::now();
      const std::string resp = BlockingCall(ctl, req);
      emit(ctl, resp, MsSince(t0));
    }
  }
  ctl.warm = false;

  const std::string stats0 = verb("stats");
  const std::string metrics0 = verb("metrics");
  const double cpu0 = server.CpuSeconds();
  const auto t0 = Clock::now();
  const double budget_ms = seconds * 1e3;
  int64_t ops = 0, writes = 0;
  bool write_in_flight = false;

  auto send_next = [&](Conn& c) {
    service::WireRequest req;
    c.traced = g_trace.enabled() && ops % 2 == 0;
    if (ops % kWriteEvery == kWriteEvery - 1 && !write_in_flight) {
      // One write in flight at a time, so each instance's commits land in
      // send order and its version parity names its state.
      const int inst = static_cast<int>(writes++ % instances);
      state[inst] = 1 - state[inst];
      req = edit_request(inst, state[inst]);
      c.kind = "w";
      c.instance = inst;
      c.qnum = 0;
      c.want_state = state[inst];
      write_in_flight = true;
    } else {
      const auto [inst, qnum] =
          ServicePairs()[(c.offset + c.stride * c.reads++) % pairs];
      c.kind = "r";
      c.instance = inst;
      c.qnum = qnum;
      c.want_state = -1;
      req = query_request(c.instance, c.qnum);
    }
    ++ops;
    req.id = next_id++;
    c.busy = true;
    c.sent = Clock::now();
    SendAll(c.fd, net::EncodeRequestFrame(req));
  };

  for (Conn& c : conns) send_next(c);
  bool probing = false;
  auto next_probe = Clock::now();
  std::vector<pollfd> pfds(kConnections + 1);
  char buf[65536];
  while (true) {
    int busy = 0;
    for (int i = 0; i < kConnections; ++i) {
      pfds[i] = {conns[i].fd, static_cast<short>(conns[i].busy ? POLLIN : 0),
                 0};
      busy += conns[i].busy;
    }
    if (busy == 0) break;
    if (!probing && Clock::now() >= next_probe) {
      probe.Start(-1);
      probing = true;
    }
    pfds[kConnections] = {probe.reply_fd(),
                          static_cast<short>(probing ? POLLIN : 0), 0};
    const int64_t until_probe_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(next_probe -
                                                              Clock::now())
            .count() + 1;
    const int timeout_ms =
        probing ? 10000 : static_cast<int>(std::max<int64_t>(1, until_probe_ms));
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 || (ready == 0 && probing)) Die("poll timed out");
    if (probing && (pfds[kConnections].revents & POLLIN)) {
      probe.Finish();
      probing = false;
      next_probe = Clock::now() + kProbeGap;
    }
    for (int i = 0; i < kConnections; ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns[i];
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n <= 0) Die("server closed the connection");
      c.inbuf.append(buf, static_cast<size_t>(n));
      if (auto resp = TryTakeResponse(c)) {
        const auto done = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(done - c.sent).count();
        if (c.traced) {
          g_trace.Add(c.kind == "w" ? "mutate" : "round_trip",
                      edits[c.instance].instance + ":q" +
                          std::to_string(c.qnum),
                      c.sent, done);
        }
        emit(c, *resp, ms);
        if (c.kind == "w") write_in_flight = false;
        c.busy = false;
        if (MsSince(t0) < budget_ms) send_next(c);
      }
    }
  }
  const double window_s = MsSince(t0) / 1e3;
  const double cpu_s = server.CpuSeconds() - cpu0;
  if (probing) probe.Finish();
  const std::string metrics1 = verb("metrics");
  // The registry's byte counters between the two metrics snapshots also
  // saw the first snapshot's reply and the second one's request.
  const size_t verb_bytes =
      net::EncodeResponseFrame(metrics0).size() + last_request_bytes;
  const std::string stats1 = verb("stats");
  g_trace.Note(stats0);
  g_trace.Note(metrics0);
  g_trace.Note(stats1);
  g_trace.Note(metrics1);
  Line("window")
      .Num("seconds", window_s)
      .Num("cpu_s", cpu_s)
      .Num("peak_rss_kb", server.PeakRssKb())
      .Num("probe_ms", probe.MedianMs())
      .Int("probes", static_cast<int64_t>(probe.count()))
      .Int("verb_bytes", static_cast<int64_t>(verb_bytes))
      .Raw("stats0", stats0)
      .Raw("stats1", stats1)
      .Raw("metrics0", metrics0)
      .Raw("metrics1", metrics1)
      .Emit();
  for (Conn& c : conns) ::close(c.fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_loadgen ref|run|client [flags]");
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  std::vector<EditSpec> edits;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--edit") {
      char inst[64] = {0}, cop0[8] = {0}, cop1[8] = {0};
      long long cindex = 0, rhs0 = 0, rhs1 = 0;
      if (std::sscanf(argv[i + 1], "%63[^:]:%lld:%7[^:]:%lld:%7[^:]:%lld",
                      inst, &cindex, cop0, &rhs0, cop1, &rhs1) != 6) {
        Die(std::string("bad --edit ") + argv[i + 1]);
      }
      edits.push_back({inst, cindex, {cop0, cop1}, {rhs0, rhs1}});
    } else {
      flags[key] = argv[i + 1];
    }
  }
  auto flag = [&](const char* k) -> std::string {
    auto it = flags.find(k);
    if (it == flags.end()) Die(std::string("missing ") + k);
    return it->second;
  };
  auto num = [&](const char* k) {
    return std::strtod(flag(k).c_str(), nullptr);
  };
  if (flags.count("--trace-file")) g_trace.Open(flags["--trace-file"]);

  int rc = 1;
  if (mode == "ref") {
    rc = RunRef(flag("--workload"));
  } else if (mode == "run") {
    rc = RunOffline(flag("--workload"), static_cast<uint64_t>(num("--seed")),
                    num("--seconds"));
  } else if (mode == "client") {
    if (edits.empty()) Die("client needs --edit");
    rc = RunClient(static_cast<int>(num("--port")),
                   static_cast<int>(num("--server-pid")),
                   static_cast<uint64_t>(num("--seed")), num("--seconds"),
                   edits);
  } else {
    Die("unknown mode " + mode);
  }
  std::fflush(stdout);
  g_trace.Flush();
  return rc;
}
