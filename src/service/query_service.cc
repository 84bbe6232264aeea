#include "service/query_service.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "relational/engine.h"
#include "sampler/monte_carlo.h"

namespace licm::service {

namespace {

// Cached series pointers for the request lifecycle (registration is
// mutex-guarded; updates after that are lock-free relaxed adds).
struct ServiceMetrics {
  metrics::Counter* admitted;
  metrics::Counter* rejected_overload;
  metrics::Counter* failed;
  metrics::Counter* completed;
  metrics::Counter* degraded;
  metrics::Counter* deadline_expired;
  metrics::Counter* slow_queries;
  metrics::Counter* mutations;
  metrics::Gauge* queue_depth;
  metrics::Gauge* inflight;
  metrics::Gauge* instances;
  metrics::Histogram* queue_ms;
  metrics::Histogram* solve_ms;
  metrics::Histogram* sample_ms;
  metrics::Histogram* total_ms;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics m;
    return m;
  }

 private:
  ServiceMetrics() {
    auto& reg = metrics::MetricsRegistry::Default();
    admitted = reg.GetCounter("licm_requests_total");
    rejected_overload = reg.GetCounter("licm_requests_rejected_total",
                                       {{"reason", "overload"}});
    failed = reg.GetCounter("licm_requests_failed_total");
    completed = reg.GetCounter("licm_requests_completed_total");
    degraded = reg.GetCounter("licm_requests_degraded_total");
    deadline_expired = reg.GetCounter("licm_deadline_expired_total");
    slow_queries = reg.GetCounter("licm_slow_queries_total");
    mutations = reg.GetCounter("licm_mutations_total");
    queue_depth = reg.GetGauge("licm_queue_depth");
    inflight = reg.GetGauge("licm_inflight");
    instances = reg.GetGauge("licm_instances");
    queue_ms = reg.GetHistogram("licm_request_queue_ms");
    solve_ms = reg.GetHistogram("licm_request_solve_ms");
    sample_ms = reg.GetHistogram("licm_request_sample_ms");
    total_ms = reg.GetHistogram("licm_request_total_ms");
  }
};

// Short root-aggregate description for slow-query records and the
// per-query metric label ("COUNT(*)", "SUM(price)", ...). The label
// cardinality stays bounded by the schema's aggregate columns, which the
// service owner controls (DESIGN.md §12).
std::string QueryAggLabel(const rel::QueryNode& query) {
  switch (query.kind) {
    case rel::QueryKind::kCountStar:
      return "COUNT(*)";
    case rel::QueryKind::kSum:
      return "SUM(" + query.sum_column + ")";
    case rel::QueryKind::kMin:
      return "MIN(" + query.sum_column + ")";
    case rel::QueryKind::kMax:
      return "MAX(" + query.sum_column + ")";
    default:
      return "?";
  }
}

// Per-instance version gauge (registry lookup with a label match; mutation
// and load granularity, not the query hot path).
void SetVersionGauge(const std::string& instance, uint64_t version) {
  metrics::MetricsRegistry::Default()
      .GetGauge("licm_instance_version", {{"instance", instance}})
      ->Set(static_cast<double>(version));
}

}  // namespace

QueryService::QueryService(ServiceConfig config)
    : config_([&] {
        ServiceConfig c = config;
        if (c.num_workers < 1) c.num_workers = 1;
        if (c.degraded_worlds < 1) c.degraded_worlds = 1;
        return c;
      }()),
      scheduler_(config_.solver_threads) {
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() {
  std::vector<std::shared_ptr<Pending>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Fail queued-but-unstarted requests instead of leaving their callers
    // blocked forever. (Well-behaved owners don't destroy the service
    // with callers still inside Execute; this is the safety net.)
    for (auto& p : queue_) {
      p->outcome = Status::Internal("service stopped");
      if (p->callback) {
        orphaned.push_back(p);  // delivered below, off the lock
      } else {
        p->done = true;
        p->done_cv.notify_all();
      }
    }
    queue_.clear();
  }
  for (auto& p : orphaned) {
    ResponseCallback cb = std::move(p->callback);
    cb(*p->outcome);
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

Status QueryService::AddInstance(
    std::string name, LicmDatabase db,
    std::optional<sampler::WorldStructure> structure) {
  return LoadInstance(std::move(name), std::move(db), std::move(structure),
                      /*replace=*/false);
}

Status QueryService::LoadInstance(
    std::string name, LicmDatabase db,
    std::optional<sampler::WorldStructure> structure, bool replace) {
  if (structure.has_value()) {
    LICM_RETURN_NOT_OK(structure->Validate());
    if (structure->num_vars < db.pool().size()) {
      return Status::InvalidArgument(
          "structure covers fewer variables than the database pool");
    }
  }
  auto structure_ptr =
      std::make_shared<const std::optional<sampler::WorldStructure>>(
          std::move(structure));

  std::shared_ptr<MutableInstance> existing;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = instances_.find(name);
    if (it == instances_.end()) {
      Instance entry;
      entry.inst = std::make_shared<MutableInstance>(std::move(db),
                                                     config_.cache_capacity);
      entry.structure = std::move(structure_ptr);
      SetVersionGauge(name, entry.inst->version());
      instances_.emplace(std::move(name), std::move(entry));
      ServiceMetrics::Get().instances->Set(
          static_cast<double>(instances_.size()));
      return Status::OK();
    }
    if (!replace) {
      return Status::AlreadyExists("instance '" + it->first +
                                   "' already registered (load with "
                                   "replace=true to swap it)");
    }
    existing = it->second.inst;
    it->second.structure = std::move(structure_ptr);
  }
  // Commit the swap through the instance's own MVCC path, off the service
  // lock: in-flight requests keep their admission-time snapshot.
  const licm::MutationResult r = existing->Replace(std::move(db));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++mutations_;
  }
  ServiceMetrics::Get().mutations->Increment();
  SetVersionGauge(name, r.version);
  return Status::OK();
}

Result<uint64_t> QueryService::VersionOf(const std::string& name) const {
  LICM_ASSIGN_OR_RETURN(std::shared_ptr<MutableInstance> inst,
                        GetInstance(name));
  return inst->version();
}

Result<std::shared_ptr<MutableInstance>> QueryService::GetInstance(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = instances_.find(name);
  if (it == instances_.end()) {
    return Status::NotFound("unknown instance '" + name + "'");
  }
  return it->second.inst;
}

Result<licm::MutationResult> QueryService::Mutate(
    const std::string& instance,
    const std::function<Result<licm::MutationResult>(MutableInstance&)>& fn) {
  LICM_ASSIGN_OR_RETURN(std::shared_ptr<MutableInstance> inst,
                        GetInstance(instance));
  telemetry::ScopedSpan span("service", "mutate");
  LICM_ASSIGN_OR_RETURN(licm::MutationResult r, fn(*inst));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++mutations_;
  }
  ServiceMetrics::Get().mutations->Increment();
  SetVersionGauge(instance, r.version);
  telemetry::Instant(
      "service", "mutation_commit",
      {{"version", static_cast<double>(r.version)},
       {"dirty_components", static_cast<double>(r.dirty_components)}});
  return r;
}

Result<licm::MutationResult> QueryService::AppendTuples(
    const std::string& instance, const std::string& relation,
    const std::vector<RowSpec>& rows) {
  return Mutate(instance, [&](MutableInstance& inst) {
    return inst.AppendTuples(relation, rows);
  });
}

Result<licm::MutationResult> QueryService::RetractTuples(
    const std::string& instance, const std::string& relation,
    const std::vector<rel::Tuple>& rows) {
  return Mutate(instance, [&](MutableInstance& inst) {
    return inst.RetractTuples(relation, rows);
  });
}

Result<licm::MutationResult> QueryService::EditConstraintRhs(
    const std::string& instance, size_t index, ConstraintOp op, int64_t rhs) {
  return Mutate(instance, [&](MutableInstance& inst) {
    return inst.EditConstraintRhs(index, op, rhs);
  });
}

Result<licm::MutationResult> QueryService::AddConstraint(
    const std::string& instance, LinearConstraint c) {
  return Mutate(instance, [&](MutableInstance& inst) {
    return inst.AddConstraint(std::move(c));
  });
}

std::vector<std::string> QueryService::InstanceNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(instances_.size());
  for (const auto& [name, inst] : instances_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void QueryService::SetSolveHookForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  solve_hook_ = std::move(hook);
}

Status QueryService::AdmitLocked(const std::shared_ptr<Pending>& pending) {
  const QueryRequest& request = pending->request;
  if (request.query == nullptr || !rel::IsAggregate(*request.query)) {
    return Status::InvalidArgument(
        "request query must have an aggregate root");
  }
  if (stopping_) return Status::Internal("service stopped");
  auto inst_it = instances_.find(request.instance);
  if (inst_it == instances_.end()) {
    return Status::NotFound("unknown instance '" + request.instance + "'");
  }
  const double budget = request.deadline_s < 0.0 ? config_.default_deadline_s
                                                 : request.deadline_s;
  // The budget starts at admission: queue wait spends it, so an admitted
  // request can never occupy a worker longer than its deadline plus the
  // degraded sampling pass.
  pending->deadline = Deadline::After(budget);
  pending->enqueue_ns = telemetry::NowNs();
  // MVCC capture: the snapshot taken here — before admission completes —
  // is what the worker answers against, so mutations committing while the
  // request waits in the queue cannot change its view.
  pending->inst = inst_it->second.inst;
  pending->snap = inst_it->second.inst->snapshot();
  pending->structure = inst_it->second.structure;
  if (queue_.size() >= config_.max_queue) {
    ++rejected_overload_;
    ServiceMetrics::Get().rejected_overload->Increment();
    telemetry::Instant("service", "overloaded",
                       {{"queue_depth", static_cast<double>(queue_.size())}});
    return Status::Overloaded(
        "queue full (" + std::to_string(queue_.size()) + " waiting, " +
        std::to_string(inflight_) + " in flight)");
  }
  ++admitted_;
  queue_.push_back(pending);
  ServiceMetrics::Get().admitted->Increment();
  ServiceMetrics::Get().queue_depth->Set(static_cast<double>(queue_.size()));
  telemetry::Instant("service", "enqueue",
                     {{"queue_depth", static_cast<double>(queue_.size())}});
  work_cv_.notify_one();
  return Status::OK();
}

Result<QueryResponse> QueryService::Execute(const QueryRequest& request) {
  auto pending = std::make_shared<Pending>();
  pending->request = request;

  std::unique_lock<std::mutex> lock(mu_);
  LICM_RETURN_NOT_OK(AdmitLocked(pending));
  pending->done_cv.wait(lock, [&] { return pending->done; });
  return std::move(*pending->outcome);
}

void QueryService::ExecuteAsync(QueryRequest request, ResponseCallback done) {
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->callback = std::move(done);
  Status admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    admitted = AdmitLocked(pending);
  }
  if (!admitted.ok()) {
    // Admission failures complete inline, off the service lock — the
    // callback may re-enter the service (e.g. a coalescer fanning out
    // an overload to its waiters).
    ResponseCallback cb = std::move(pending->callback);
    cb(Result<QueryResponse>(admitted));
  }
}

void QueryService::WorkerLoop() {
  while (true) {
    std::shared_ptr<Pending> pending;
    std::function<void()> hook;
    double queue_ms = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_
      pending = queue_.front();
      queue_.pop_front();
      ++inflight_;
      hook = solve_hook_;
      queue_ms = static_cast<double>(telemetry::NowNs() -
                                     pending->enqueue_ns) /
                 1e6;
      ServiceMetrics::Get().queue_depth->Set(
          static_cast<double>(queue_.size()));
      ServiceMetrics::Get().inflight->Set(static_cast<double>(inflight_));
    }
    telemetry::Instant("service", "admit", {{"queue_ms", queue_ms}});
    if (hook) hook();

    Result<QueryResponse> outcome = Process(*pending, queue_ms);

    telemetry::ScopedSpan respond_span("service", "respond");
    const ServiceMetrics& m = ServiceMetrics::Get();
    m.queue_ms->Observe(queue_ms);
    if (outcome.ok()) {
      m.completed->Increment();
      if (outcome->degraded) m.degraded->Increment();
      if (pending->deadline.Expired()) m.deadline_expired->Increment();
      m.solve_ms->Observe(outcome->solve_ms);
      m.sample_ms->Observe(outcome->sample_ms);
      m.total_ms->Observe(outcome->total_ms);
      // Per-instance latency series: registry lookup (mutex + label
      // match), acceptable at request granularity.
      metrics::MetricsRegistry::Default()
          .GetHistogram("licm_instance_request_total_ms",
                        {{"instance", pending->request.instance}})
          ->Observe(outcome->total_ms);
    } else {
      m.failed->Increment();
    }

    std::unique_lock<std::mutex> lock(mu_);
    --inflight_;
    m.inflight->Set(static_cast<double>(inflight_));
    if (outcome.ok()) {
      ++completed_;
      if (outcome->degraded) ++degraded_;
      solve_stats_.MergeFrom(outcome->stats);
      // SLO check: flush the request's phase breakdown into the bounded
      // slow-query ring (slo_ms < 0 disables, 0 captures everything).
      if (config_.slo_ms >= 0.0 && outcome->total_ms > config_.slo_ms &&
          config_.slowlog_capacity > 0) {
        SlowQueryRecord rec;
        rec.seq = slow_captured_++;
        rec.ts_s = uptime_watch_.ElapsedMs() / 1e3;
        rec.instance = pending->request.instance;
        rec.query = QueryAggLabel(*pending->request.query);
        rec.degraded = outcome->degraded;
        rec.slo_ms = config_.slo_ms;
        rec.queue_ms = outcome->queue_ms;
        rec.solve_ms = outcome->solve_ms;
        rec.sample_ms = outcome->sample_ms;
        rec.total_ms = outcome->total_ms;
        rec.min = outcome->min;
        rec.max = outcome->max;
        rec.stats = outcome->stats;
        slowlog_.push_back(std::move(rec));
        while (slowlog_.size() > config_.slowlog_capacity) {
          slowlog_.pop_front();
        }
        m.slow_queries->Increment();
        telemetry::Instant("service", "slow_query",
                           {{"total_ms", outcome->total_ms}});
      }
    } else {
      ++failed_;
    }
    pending->outcome = std::move(outcome);
    if (pending->callback) {
      // Async completion: deliver off the service lock (the callback may
      // re-enter the service — e.g. a coalescer follower resubmitting).
      lock.unlock();
      ResponseCallback cb = std::move(pending->callback);
      cb(*pending->outcome);
    } else {
      pending->done = true;
      pending->done_cv.notify_all();
    }
  }
}

Result<QueryResponse> QueryService::Process(const Pending& pending,
                                            double queue_ms) {
  const QueryRequest& request = pending.request;
  // The snapshot and structure were captured at admission (MVCC): no
  // instance lookup here — a concurrent mutation commit or replace-load
  // publishes a *new* snapshot and never touches this one.
  const MutableInstance::Snapshot& snap = *pending.snap;

  QueryResponse response;
  response.queue_ms = queue_ms;
  response.version = snap.version;
  StopWatch total_watch;

  AnswerOptions options;
  options.bounds.mip.deadline = &pending.deadline;
  options.bounds.mip.cache = pending.inst->cache();
  options.bounds.mip.incumbent_pool = pending.inst->incumbents();
  options.bounds.mip.scheduler = &scheduler_;

  telemetry::ScopedSpan solve_span("service", "solve");
  StopWatch solve_watch;
  // AnswerAggregate only reads the snapshot: the base relations are scanned
  // in place and each request appends its derived variables and
  // constraints to a private copy of the pool and constraint set, so
  // concurrent requests on one snapshot never write shared state.
  auto answer = AnswerAggregate(*request.query, snap.db, options);
  response.solve_ms = solve_watch.ElapsedMs();
  solve_span.End();
  if (!answer.ok()) return answer.status();

  response.min = answer->bounds.min.value;
  response.max = answer->bounds.max.value;
  response.min_exact = answer->bounds.min.exact;
  response.max_exact = answer->bounds.max.exact;
  response.proved_min = answer->bounds.min.proved;
  response.proved_max = answer->bounds.max.proved;
  response.stats = answer->bounds.stats;

  if (!response.min_exact || !response.max_exact) {
    response.degraded = true;
    Degrade(request, snap.db, *pending.structure, &response);
  }
  response.total_ms = queue_ms + total_watch.ElapsedMs();
  return response;
}

void QueryService::Degrade(
    const QueryRequest& request, const LicmDatabase& db,
    const std::optional<sampler::WorldStructure>& structure,
    QueryResponse* response) {
  telemetry::ScopedSpan span("service", "degrade");
  const int worlds =
      request.mc_worlds > 0 ? request.mc_worlds : config_.degraded_worlds;
  const uint64_t seed =
      request.mc_seed != 0 ? request.mc_seed : config_.degraded_seed;
  StopWatch watch;

  double sample_min = 0.0, sample_max = 0.0;
  bool have_samples = false;
  int sampled = 0;
  // A structure compiled for an earlier version can no longer cover the
  // pool once appends allocate fresh variables — fall back to rejection
  // sampling rather than sample from a stale shape.
  const bool structure_usable =
      structure.has_value() && structure->num_vars >= db.pool().size();
  if (structure_usable) {
    sampler::MonteCarloOptions mco;
    mco.num_worlds = worlds;
    mco.seed = seed;
    auto mc = sampler::MonteCarloBounds(db, *structure, *request.query, mco);
    if (mc.ok()) {
      sample_min = mc->min;
      sample_max = mc->max;
      have_samples = true;
      sampled = static_cast<int>(mc->samples.size());
    }
  } else {
    // No sampling structure (e.g. an instance registered straight from
    // constraints): generic rejection sampling. Failure to find worlds
    // just means the response interval stays the proved one.
    Rng rng(seed);
    for (int i = 0; i < worlds; ++i) {
      auto assignment = sampler::SampleValidAssignment(
          db.constraints(), static_cast<uint32_t>(db.pool().size()), &rng);
      if (!assignment.ok()) break;
      rel::Database world = db.Instantiate(*assignment);
      auto value = rel::EvaluateAggregate(*request.query, world);
      if (!value.ok()) break;  // e.g. MIN over a world with an empty answer
      if (!have_samples || *value < sample_min) sample_min = *value;
      if (!have_samples || *value > sample_max) sample_max = *value;
      have_samples = true;
      ++sampled;
    }
  }
  response->sample_ms = watch.ElapsedMs();

  // Serve the containment hull: the proved outer interval (which always
  // contains the exact bounds, even when the search stopped at the root)
  // widened by anything a sampled world achieved outside it.
  response->min = response->proved_min;
  response->max = response->proved_max;
  if (have_samples) {
    response->has_samples = true;
    response->sample_min = sample_min;
    response->sample_max = sample_max;
    response->sample_worlds = sampled;
    response->min = std::min(response->min, sample_min);
    response->max = std::max(response->max, sample_max);
  }
}

ServiceStats QueryService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s;
  s.admitted = admitted_;
  s.rejected_overload = rejected_overload_;
  s.failed = failed_;
  s.completed = completed_;
  s.degraded = degraded_;
  s.queue_depth = queue_.size();
  s.inflight = inflight_;
  s.instances = instances_.size();
  s.slow_queries = slow_captured_;
  s.uptime_s = uptime_watch_.ElapsedMs() / 1e3;
  s.snapshot_seq = ++snapshot_seq_;
  s.solve = solve_stats_;
  s.mutations = mutations_;
  // Per-instance caches: report the sum so the wire stats keep their old
  // shape, plus the per-instance version vector (sorted for determinism).
  for (const auto& [name, instance] : instances_) {
    const solver::ComponentCacheStats c = instance.inst->cache()->Snapshot();
    s.cache.hits += c.hits;
    s.cache.misses += c.misses;
    s.cache.inserts += c.inserts;
    s.cache.evictions += c.evictions;
    s.cache.cross_epoch_hits += c.cross_epoch_hits;
    s.versions.emplace_back(name, instance.inst->version());
  }
  std::sort(s.versions.begin(), s.versions.end());
  return s;
}

std::vector<SlowQueryRecord> QueryService::SlowLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowQueryRecord>(slowlog_.rbegin(), slowlog_.rend());
}

}  // namespace licm::service
