#include "core/engine.hpp"

#include <algorithm>
#include <functional>
#include <string>

#include "obs/observer.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace datastage {

namespace {

/// Process-wide EngineOptions::engine_jobs default (see engine.hpp). Plain
/// global, same idiom as harness/parallel.hpp's default_jobs: written once
/// during tool flag parsing, read at EngineOptions construction.
std::size_t g_default_engine_jobs = 1;

/// Batches smaller than this run inline on the caller's thread: dispatching
/// a couple of Dijkstra rebuilds to the pool costs more than it saves, and
/// the inline path reuses the identical compute/merge code so results do not
/// depend on which side of the threshold a batch lands.
constexpr std::size_t kParallelRefreshMinJobs = 4;

}  // namespace

void set_default_engine_jobs(std::size_t jobs) { g_default_engine_jobs = jobs; }

std::size_t default_engine_jobs() { return g_default_engine_jobs; }

const char* replay_miss_name(ReplayMiss reason) {
  switch (reason) {
    case ReplayMiss::kLinksGrew:
      return "links_grew";
    case ReplayMiss::kDiverged:
      return "diverged";
    case ReplayMiss::kItemChanged:
      return "item_changed";
    case ReplayMiss::kStorageRejected:
      return "storage_rejected";
    case ReplayMiss::kHoldMisfit:
      return "hold_misfit";
    case ReplayMiss::kVerifyFailed:
      return "verify_failed";
  }
  return "unknown";
}

std::size_t ReplayCounts::total_misses() const {
  std::size_t total = 0;
  for (const std::size_t n : misses) total += n;
  return total;
}

void ReplayCounts::add(const ReplayCounts& other) {
  replays += other.replays;
  for (std::size_t r = 0; r < kReplayMissKinds; ++r) misses[r] += other.misses[r];
}

/// Counter handles resolved once at engine construction. Grouped here (not
/// in the header) so engine.hpp only needs forward declarations of obs.
struct StagingEngine::Instr {
  obs::Counter iterations;
  obs::Counter rounds;              ///< candidate scoring rounds (refreshes)
  obs::Counter tree_recomputes;     ///< Dijkstra reruns (cache miss/dirty)
  obs::Counter tree_repairs;        ///< own-commit trees re-rooted instead
  obs::Counter tree_replays;        ///< previous run's trees verified instead
  obs::Counter shadow_refreshes;    ///< shadow plan rebuilds (watch())
  obs::Counter replay_misses;       ///< logging-run Dijkstra runs, any reason
  /// The same misses by reason, indexed by ReplayMiss.
  std::array<obs::Counter, kReplayMissKinds> replay_miss_reasons;
  obs::Counter cache_hits;          ///< clean cached trees reused in a round
  obs::Counter candidates;          ///< candidates generated and scored
  obs::Counter best_rescans;        ///< per-plan best recomputations
  obs::Counter steps_committed;     ///< tree edges committed to the network
  obs::Counter requests_satisfied;  ///< requests resolved by a committed edge
  obs::Counter invalidations_link;
  obs::Counter invalidations_storage;
  obs::Counter invalidations_self;  ///< scheduled item's own plan dirtied
  obs::Counter invalidations_checked;     ///< index entries examined
  obs::Counter invalidations_scan_equiv;  ///< entries a full scan would examine
  obs::Counter dijkstra_pops;
  obs::Counter dijkstra_relaxations;     ///< out-links examined in unsettled groups
  obs::Counter dijkstra_link_searches;   ///< relaxations past the cheap bounds
  obs::Counter dijkstra_storage_checks;  ///< link fits checked with can_hold
  obs::Counter dijkstra_capacity_rejections;
  obs::Counter dijkstra_kept_entries;  ///< entries of the trees Dijkstra built
  obs::Counter guard_trips;
  /// Wall nanoseconds in refresh_plans (collect + compute + merge).
  /// Incremented only when a phase timer is attached — wall time is not
  /// byte-comparable, and the deterministic documents (harness per-case
  /// registries) have none.
  obs::Counter refresh_ns;
  /// Deadline margin (seconds) of each satisfied request, recorded at finish.
  obs::Histogram* satisfied_slack_seconds;
  /// Per-round refresh latency (microseconds); phase-timer-gated like
  /// refresh_ns.
  obs::Histogram* refresh_batch_usec;

  explicit Instr(obs::MetricsRegistry& m)
      : iterations(m.counter("engine.iterations")),
        rounds(m.counter("engine.scoring_rounds")),
        tree_recomputes(m.counter("engine.tree_recomputes")),
        tree_repairs(m.counter("engine.tree_repairs")),
        tree_replays(m.counter("engine.tree_replays")),
        shadow_refreshes(m.counter("engine.shadow_refreshes")),
        replay_misses(m.counter("engine.replay_misses")),
        cache_hits(m.counter("engine.cache_hits")),
        candidates(m.counter("engine.candidates_scored")),
        best_rescans(m.counter("engine.best_rescans")),
        steps_committed(m.counter("engine.steps_committed")),
        requests_satisfied(m.counter("engine.requests_satisfied")),
        invalidations_link(m.counter("engine.invalidations_link")),
        invalidations_storage(m.counter("engine.invalidations_storage")),
        invalidations_self(m.counter("engine.invalidations_self")),
        invalidations_checked(m.counter("engine.invalidations_checked")),
        invalidations_scan_equiv(m.counter("engine.invalidations_scan_equiv")),
        dijkstra_pops(m.counter("dijkstra.heap_pops")),
        dijkstra_relaxations(m.counter("dijkstra.relaxations")),
        dijkstra_link_searches(m.counter("dijkstra.link_searches")),
        dijkstra_storage_checks(m.counter("dijkstra.storage_checks")),
        dijkstra_capacity_rejections(m.counter("dijkstra.capacity_rejections")),
        dijkstra_kept_entries(m.counter("dijkstra.kept_entries")),
        guard_trips(m.counter("engine.guard_trips")),
        refresh_ns(m.counter("engine.refresh_ns")),
        satisfied_slack_seconds(&m.histogram("engine.satisfied_slack_seconds",
                                             {0.1, 1.0, 10.0, 60.0, 600.0, 3600.0})),
        refresh_batch_usec(&m.histogram(
            "engine.refresh_batch_usec",
            {50.0, 200.0, 1000.0, 5000.0, 20000.0, 100000.0})) {
    for (std::size_t r = 0; r < kReplayMissKinds; ++r) {
      replay_miss_reasons[r] = m.counter(std::string("engine.replay_misses_") +
                                         replay_miss_name(static_cast<ReplayMiss>(r)));
    }
  }
};

/// Per-request lifecycle state behind the span-model trace events. Kept out
/// of the header (like Instr) and allocated only when a trace is attached.
struct StagingEngine::Lifecycle {
  enum class Status : std::uint8_t {
    kUnknown,             ///< plan not classified yet
    kFeasible,            ///< a route arriving before the deadline exists
    kDeadlineInfeasible,  ///< reachable, but every route arrives too late
    kNoRoute,             ///< no capacity-feasible route at all
    kSatisfied,           ///< a committed transfer resolved the request
  };

  struct RequestState {
    Status status = Status::kUnknown;
    bool ever_feasible = false;
    /// Item whose commit caused the final feasible -> infeasible transition.
    std::int32_t lost_to = -1;
  };

  explicit Lifecycle(const Scenario& scenario) {
    // Static reachability from each item's sources over the physical
    // topology. The engine's route trees are deadline-pruned, so a
    // destination they never reach may still be connected — this separates
    // "the graph cannot carry the item there" (no_feasible_route) from "it
    // can, but not in time" (deadline_infeasible).
    std::vector<std::vector<std::int32_t>> out(scenario.machine_count());
    for (const PhysicalLink& link : scenario.phys_links) {
      out[link.from.index()].push_back(link.to.value());
    }
    requests.resize(scenario.item_count());
    reachable.resize(scenario.item_count());
    std::vector<std::int32_t> stack;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].resize(scenario.items[i].requests.size());
      std::vector<char>& seen = reachable[i];
      seen.assign(scenario.machine_count(), 0);
      stack.clear();
      for (const SourceLocation& source : scenario.items[i].sources) {
        if (seen[source.machine.index()] == 0) {
          seen[source.machine.index()] = 1;
          stack.push_back(source.machine.value());
        }
      }
      while (!stack.empty()) {
        const std::int32_t m = stack.back();
        stack.pop_back();
        for (const std::int32_t next : out[static_cast<std::size_t>(m)]) {
          if (seen[static_cast<std::size_t>(next)] == 0) {
            seen[static_cast<std::size_t>(next)] = 1;
            stack.push_back(next);
          }
        }
      }
    }
  }

  std::vector<std::vector<RequestState>> requests;  ///< [item][k]
  std::vector<std::vector<char>> reachable;         ///< [item][machine]
};

namespace {

/// Deterministic total order on candidates: cost first, then stable
/// structural tie-breakers so equal-cost runs are reproducible.
bool candidate_less(const Candidate& a, const Candidate& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.item != b.item) return a.item < b.item;
  if (a.hop.to != b.hop.to) return a.hop.to < b.hop.to;
  const std::int32_t ka = a.dests.empty() ? -1 : a.dests.front().k;
  const std::int32_t kb = b.dests.empty() ? -1 : b.dests.front().k;
  return ka < kb;
}

}  // namespace

// The same total order as candidate_less over snapshots. (item, hop_to, k)
// never tie across distinct plans, so the order is total even when stale
// snapshots coexist with fresh ones.
bool StagingEngine::best_entry_after(const StagingEngine::BestEntry& a,
                                     const StagingEngine::BestEntry& b) {
  if (a.cost != b.cost) return a.cost > b.cost;
  if (a.item != b.item) return a.item > b.item;
  if (a.hop_to != b.hop_to) return a.hop_to > b.hop_to;
  return a.k > b.k;
}

StagingEngine::StagingEngine(const Scenario& scenario, EngineOptions options)
    : scenario_(&scenario),
      options_(std::move(options)),
      owned_topology_(std::make_unique<Topology>(scenario)),
      topology_(owned_topology_.get()),
      state_(scenario),
      tracker_(scenario),
      index_(0, 0, 0) {
  configure();
  start_run();
}

StagingEngine::StagingEngine(const Scenario& scenario, const Topology& topology,
                             std::span<const StorageTimeline> storage,
                             EngineOptions options)
    : scenario_(&scenario),
      options_(std::move(options)),
      topology_(&topology),
      state_(scenario, storage),
      tracker_(scenario),
      index_(0, 0, 0) {
  configure();
  start_run();
}

void StagingEngine::reset(const Scenario& scenario, const Topology& topology,
                          std::span<const StorageTimeline> storage) {
  scenario_ = &scenario;
  owned_topology_.reset();
  topology_ = &topology;
  state_.reset(scenario, storage);
  tracker_.reset(scenario);
  attach_observer();
  // Paranoid runs stay the literal oracle: they neither log nor replay.
  logging_ = !options_.paranoid;
  start_run();
}

void StagingEngine::configure() {
  engine_jobs_resolved_ = options_.engine_jobs == 0 ? ThreadPool::hardware_jobs()
                                                    : options_.engine_jobs;
  refresh_ws_.resize(1);  // ensure_pool adds one workspace per worker
  attach_observer();
  if (options_.observer != nullptr && options_.observer->metrics != nullptr) {
    instr_ = std::make_unique<Instr>(*options_.observer->metrics);
    state_.attach_metrics(*options_.observer->metrics);
  }
}

void StagingEngine::attach_observer() {
  const obs::RunObserver* observer = options_.observer;
  trace_ = observer != nullptr ? observer->trace : nullptr;
  phases_ = observer != nullptr ? observer->phases : nullptr;
}

void StagingEngine::start_run() {
  const Scenario& scenario = *scenario_;
  const std::size_t n = scenario.item_count();
  schedule_.clear();
  index_.reset(scenario.virt_links.size(), scenario.machine_count(), n);
  // Mark buffers keep their stamps: every stamp is below the next epoch.
  node_mark_.resize(scenario.machine_count(), 0);
  for (RefreshWorkspace& ws : refresh_ws_) ws.node_mark.resize(scenario.machine_count(), 0);
  // A previous run's plans hand their candidate buffers back to the pool and
  // start over dirty, as default-constructed plans do; their trees are
  // recomputed in place on the first refresh.
  for (ItemPlan& plan : plans_) {
    for (Candidate& c : plan.candidates) refresh_ws_.front().dest_pool.release(std::move(c.dests));
  }
  plans_.resize(n);
  for (ItemPlan& plan : plans_) {
    plan.dirty = true;
    plan.exhausted = false;
    plan.best = kNoBest;
    plan.candidates.clear();
    plan.used_links.clear();
    plan.used_storage.clear();
    plan.last_invalidated_by = -1;
    plan.repair_roots.clear();
  }
  // Nothing is watched until watch(): the shadow stays retired.
  for (Candidate& c : shadow_.candidates) refresh_ws_.front().dest_pool.release(std::move(c.dests));
  shadow_.candidates.clear();
  shadow_.repair_roots.clear();
  shadow_.exhausted = true;
  shadow_.dirty = false;
  shadow_.best = kNoBest;
  watched_ = RequestRef{};
  watch_held_ = false;
  shadow_refreshes_ = 0;
  active_plans_ = n;
  // Every plan starts dirty: seed the queue so the first refresh builds all.
  dirty_queue_.resize(n);
  for (std::size_t i = 0; i < n; ++i) dirty_queue_[i] = i;
  best_heap_.clear();
  refresh_jobs_.clear();
  candidate_total_ = 0;
  last_round_cache_hits_ = 0;
  dijkstra_runs_ = 0;
  tree_repairs_ = 0;
  iterations_ = 0;
  guard_tripped_ = false;
  max_iterations_ = iteration_guard(scenario.request_count());
  lifecycle_ = trace_ != nullptr ? std::make_unique<Lifecycle>(scenario) : nullptr;
  replay_ = ReplayCounts{};
  if (logging_) start_log();
}

std::size_t StagingEngine::iteration_guard(std::size_t requests) const {
  return options_.max_iterations != 0 ? options_.max_iterations : 1000 + 200 * requests;
}

void StagingEngine::watch(RequestRef request) {
  DS_ASSERT_MSG(iterations_ == 0 && index_.live_entries() == 0,
                "watch() precedes the run's first refresh");
  if (options_.paranoid) return;  // the oracle runs as it always does
  const DataItem& item = scenario_->item(request.item);
  DS_ASSERT_MSG(request.k >= 0 && static_cast<std::size_t>(request.k) < item.requests.size(),
                "watched request out of range");
  const Request& left_out = item.requests[static_cast<std::size_t>(request.k)];
  // Without the request the item's gc time is the one a scenario without it
  // has, and the request's destination is a relay unless another request
  // names it (Scenario::gc_time, NetworkState::hold_end).
  const bool destination_kept =
      std::count_if(item.requests.begin(), item.requests.end(), [&left_out](const Request& r) {
        return r.destination == left_out.destination;
      }) > 1;
  watched_ = request;
  watch_held_ = true;
  watched_rules_ = HoldRules{scenario_->gc_time(request.item, request.k),
                             destination_kept ? MachineId::invalid() : left_out.destination};
  watch_max_iterations_ = iteration_guard(scenario_->request_count() - 1);
  // One more index slot, for the shadow's subscriptions.
  index_.reset(scenario_->virt_links.size(), scenario_->machine_count(), plans_.size() + 1);
  shadow_.dirty = true;
  shadow_.exhausted = false;
}

void StagingEngine::retire_shadow() {
  if (shadow_.exhausted) return;
  shadow_.exhausted = true;
  shadow_.dirty = false;
  shadow_.best = kNoBest;
  for (Candidate& c : shadow_.candidates) refresh_ws_.front().dest_pool.release(std::move(c.dests));
  shadow_.candidates.clear();
  shadow_.used_links.clear();
  shadow_.used_storage.clear();
  shadow_.repair_roots.clear();
  index_.unsubscribe_all(shadow_slot());
}

void StagingEngine::end_watch() {
  watch_held_ = false;
  retire_shadow();
}

void StagingEngine::check_watched_choice(const Candidate* best) {
  // The other plans are those of a run without the request, so that run
  // chooses the better of `best`'s rivals and the shadow's best.
  const Candidate* alternative = shadow_best();
  bool same = false;
  if (best == nullptr) {
    same = alternative == nullptr;
  } else if (best->item != watched_.item) {
    same = alternative == nullptr || candidate_less(*best, *alternative);
  } else {
    // The item's own candidate beat every rival: so does the shadow's best
    // if it ties with it. The commit is compared when it is applied.
    const bool serves_request =
        std::any_of(best->dests.begin(), best->dests.end(), [this](const DestinationEval& d) {
          return d.k == watched_.k && d.sat;
        });
    same = !serves_request && alternative != nullptr && !candidate_less(*best, *alternative) &&
           !candidate_less(*alternative, *best);
  }
  if (!same) end_watch();
}

void StagingEngine::RunLog::clear() {
  logged = false;
  links_disjoint = false;
  links.clear();
  items.clear();
  sources.clear();
  requests.clear();
  entries.clear();
  trees.clear();
  commits.clear();
  iteration_end.clear();
  plan_first.clear();
  plan_trees.clear();
}

namespace {

bool window_order(const VirtualLink& a, const VirtualLink& b) {
  if (a.phys != b.phys) return a.phys < b.phys;
  return a.window.begin < b.window.begin;
}

/// True when the windows of each physical link in `links` (sorted by
/// window_order) are pairwise disjoint, as validate() demands: otherwise
/// one physical link could carry two transfers at once.
bool windows_disjoint(const std::vector<VirtualLink>& links) {
  for (std::size_t i = 1; i < links.size(); ++i) {
    if (links[i].phys == links[i - 1].phys &&
        links[i].window.begin < links[i - 1].window.end) {
      return false;
    }
  }
  return true;
}

/// True when every link of `now` lies inside a window of `before` with the
/// same physical link and rate: availability only shrank. Both are sorted
/// by window_order with disjoint windows per physical link, so one merge
/// pass finds each link's only candidate.
bool links_inside(const std::vector<VirtualLink>& now,
                  const std::vector<VirtualLink>& before) {
  std::size_t j = 0;
  for (const VirtualLink& link : now) {
    while (j < before.size() &&
           (before[j].phys < link.phys ||
            (before[j].phys == link.phys && before[j].window.end <= link.window.begin))) {
      ++j;
    }
    if (j == before.size()) return false;
    const VirtualLink& outer = before[j];
    if (outer.phys != link.phys || outer.bandwidth_bps != link.bandwidth_bps ||
        !outer.window.contains(link.window)) {
      return false;
    }
  }
  return true;
}

bool same_sources(std::span<const SourceLocation> a, std::span<const SourceLocation> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const SourceLocation& x, const SourceLocation& y) {
                      return x.machine == y.machine && x.available_at == y.available_at &&
                             x.hold_until == y.hold_until;
                    });
}

bool same_requests(std::span<const Request> a, std::span<const Request> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Request& x, const Request& y) {
                      return x.destination == y.destination && x.deadline == y.deadline &&
                             x.priority == y.priority;
                    });
}

}  // namespace

void StagingEngine::start_log() {
  const Scenario& scenario = *scenario_;
  const std::size_t n = scenario.item_count();
  std::swap(log_, prev_log_);
  log_.clear();
  log_.logged = true;
  diverged_ = false;

  // This run's world, for the next run to compare with.
  log_.links.assign(scenario.virt_links.begin(), scenario.virt_links.end());
  if (!std::is_sorted(log_.links.begin(), log_.links.end(), window_order)) {
    std::sort(log_.links.begin(), log_.links.end(), window_order);
  }
  item_unchanged_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const DataItem& item = scenario.items[i];
    const std::size_t sources_begin = log_.sources.size();
    const std::size_t requests_begin = log_.requests.size();
    log_.sources.insert(log_.sources.end(), item.sources.begin(), item.sources.end());
    log_.requests.insert(log_.requests.end(), item.requests.begin(), item.requests.end());
    log_.items.push_back(ItemSignature{item.size_bytes,
                                       static_cast<std::uint32_t>(log_.sources.size()),
                                       static_cast<std::uint32_t>(log_.requests.size())});
    if (i >= prev_log_.items.size()) continue;
    const ItemSignature& old = prev_log_.items[i];
    const std::size_t old_sources = i == 0 ? 0 : prev_log_.items[i - 1].sources_end;
    const std::size_t old_requests = i == 0 ? 0 : prev_log_.items[i - 1].requests_end;
    item_unchanged_[i] =
        old.size_bytes == item.size_bytes &&
        same_sources(std::span(log_.sources).subspan(sources_begin),
                     std::span(prev_log_.sources)
                         .subspan(old_sources, old.sources_end - old_sources)) &&
        same_requests(std::span(log_.requests).subspan(requests_begin),
                      std::span(prev_log_.requests)
                          .subspan(old_requests, old.requests_end - old_requests));
  }

  log_.links_disjoint = windows_disjoint(log_.links);
  links_shrank_ = prev_log_.logged && prev_log_.links_disjoint && log_.links_disjoint &&
                  links_inside(log_.links, prev_log_.links);
  if (!links_shrank_) return;
  // Index the previous run's trees by plan (a counting sort) and point each
  // plan's cursor at its first tree. replay_next serves as the fill cursor.
  std::vector<std::uint32_t>& first = prev_log_.plan_first;
  first.assign(n + 1, 0);
  for (const LoggedTree& tree : prev_log_.trees) {
    if (tree.plan < n) ++first[tree.plan + 1];
  }
  for (std::size_t p = 0; p < n; ++p) first[p + 1] += first[p];
  prev_log_.plan_trees.resize(first[n]);
  for (std::size_t p = 0; p < n; ++p) plans_[p].replay_next = first[p];
  for (std::size_t t = 0; t < prev_log_.trees.size(); ++t) {
    const std::uint32_t plan = prev_log_.trees[t].plan;
    if (plan < n) prev_log_.plan_trees[plans_[plan].replay_next++] = static_cast<std::uint32_t>(t);
  }
  for (std::size_t p = 0; p < n; ++p) {
    plans_[p].replay_next = first[p];
    plans_[p].replay_end = first[p + 1];
    plans_[p].replay_tree = kNoTree;
  }
}

StagingEngine::~StagingEngine() = default;

ThreadPool* StagingEngine::ensure_pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(engine_jobs_resolved_);
    const std::size_t old_workers = refresh_ws_.size();
    refresh_ws_.resize(pool_->thread_count());
    for (std::size_t w = old_workers; w < refresh_ws_.size(); ++w) {
      refresh_ws_[w].node_mark.assign(scenario_->machine_count(), 0);
    }
  }
  return pool_.get();
}

void StagingEngine::refresh_plans() {
  if (instr_ != nullptr) instr_->rounds.inc();
  const std::int64_t t0 = phases_ != nullptr ? steady_clock_nanos() : 0;
  if (options_.paranoid) {
    // The paper's literal procedure: rebuild every live plan every round.
    // Each rebuild bumps the plan's generation, so every existing heap entry
    // is about to go stale — drop them wholesale instead of popping one by
    // one later.
    best_heap_.clear();
    dirty_queue_.clear();
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (plans_[i].exhausted) continue;
      plans_[i].dirty = true;
      dirty_queue_.push_back(i);
    }
  }
  collect_refresh_jobs();
  if (engine_jobs_resolved_ > 1 && refresh_jobs_.size() >= kParallelRefreshMinJobs) {
    const std::function<void(std::size_t, std::size_t)> job =
        [this](std::size_t worker, std::size_t j) {
          compute_refresh_job(refresh_jobs_[j], refresh_ws_[worker]);
        };
    ensure_pool()->parallel_for(refresh_jobs_.size(), job);
  } else {
    for (RefreshJob& job : refresh_jobs_) {
      compute_refresh_job(job, refresh_ws_.front());
    }
  }
  // Ascending plan order (collect drains the sorted queue), replaying the
  // exact shared-state sequence a serial refresh would have produced.
  for (RefreshJob& job : refresh_jobs_) merge_refresh_job(job);
  // Every live plan not recomputed this round reused its cached tree; the
  // cache is provably identical to a recompute (see the header note). The
  // shadow's job, when there is one, comes last and is no plan's.
  const bool shadow_job =
      !refresh_jobs_.empty() && refresh_jobs_.back().plan == shadow_slot();
  last_round_cache_hits_ = active_plans_ - (refresh_jobs_.size() - (shadow_job ? 1 : 0));
  if (instr_ != nullptr) instr_->cache_hits.inc(last_round_cache_hits_);
  if (phases_ != nullptr) {
    const std::int64_t ns = steady_clock_nanos() - t0;
    if (instr_ != nullptr) {
      instr_->refresh_ns.inc(static_cast<std::uint64_t>(ns));
      instr_->refresh_batch_usec->observe(static_cast<double>(ns) / 1000.0);
    }
    phases_->add_nanos("engine.refresh", ns);
  }
}

void StagingEngine::collect_refresh_jobs() {
  refresh_jobs_.clear();
  // Sorting keeps the recompute (and hence Dijkstra/trace) order identical
  // to the old full scan; duplicates are skipped via the dirty flag, which
  // each claimed plan drops here so the batch holds it exactly once.
  std::sort(dirty_queue_.begin(), dirty_queue_.end());
  for (const std::size_t i : dirty_queue_) {
    ItemPlan& plan = plans_[i];
    if (!plan.dirty) continue;  // duplicate queue entry or refreshed early
    const ItemId item(static_cast<std::int32_t>(i));
    if (!tracker_.any_pending(item)) {
      retire_plan(i);
      continue;
    }
    plan.dirty = false;
    RefreshJob job;
    job.plan = i;
    job.old_candidates = plan.candidates.size();
    refresh_jobs_.push_back(job);
  }
  dirty_queue_.clear();
  // The shadow's job goes last, keeping the batch in ascending slot order.
  if (!shadow_.dirty) return;
  shadow_.dirty = false;
  shadow_pending_.clear();
  for (const std::int32_t k : tracker_.pending_of(watched_.item)) {
    if (k != watched_.k) shadow_pending_.push_back(k);
  }
  if (shadow_pending_.empty()) {
    retire_shadow();
    return;
  }
  RefreshJob job;
  job.plan = shadow_slot();
  job.old_candidates = shadow_.candidates.size();
  refresh_jobs_.push_back(job);
}

void StagingEngine::retire_plan(std::size_t plan_index) {
  ItemPlan& plan = plans_[plan_index];
  plan.exhausted = true;
  plan.dirty = false;
  ++plan.generation;  // any tournament entry for this plan is now stale
  plan.best = kNoBest;
  candidate_total_ -= plan.candidates.size();
  // Release, don't just clear: a retired plan must neither hold tree,
  // candidate or interval memory for the rest of the run nor keep stale index
  // subscriptions that would attract invalidation dispatches.
  plan.tree = RouteTree(0);
  plan.repair_roots = {};
  plan.candidates = {};
  plan.used_links = {};
  plan.used_storage = {};
  index_.unsubscribe_all(plan_index);
  --active_plans_;
}

void StagingEngine::compute_refresh_job(RefreshJob& job, RefreshWorkspace& ws) {
  // Thread-safe by construction: reads the frozen NetworkState/topology and
  // the (const) tracker, writes only the plan's own storage, this worker's
  // scratch and the job record. Every shared-state effect of the old serial
  // recompute lives in merge_refresh_job.
  const bool shadow = job.plan == shadow_slot();
  const ItemId item = slot_item(job.plan);
  ItemPlan& plan = plan_at(job.plan);
  const std::span<const std::int32_t> pending =
      shadow ? std::span<const std::int32_t>(shadow_pending_) : tracker_.pending_of(item);
  DijkstraOptions dopt;
  dopt.hold_rules = shadow ? &watched_rules_ : nullptr;
  // The engine only reads labels of pending destinations (and their paths):
  // hand Dijkstra the target set so it can stop once all are settled. The
  // prune horizon is their latest deadline.
  ws.targets.clear();
  const DataItem& it = scenario_->item(item);
  SimTime latest_deadline = SimTime::zero();
  for (const std::int32_t k : pending) {
    const Request& request = it.requests[static_cast<std::size_t>(k)];
    ws.targets.push_back(request.destination);
    latest_deadline = max(latest_deadline, request.deadline);
  }
  dopt.prune_after = latest_deadline;
  dopt.targets = ws.targets;
  job.repaired = repair_tree(item, plan, pending, ws);
  plan.repair_roots.clear();
  if (!job.repaired && !shadow && logging_ && prev_log_.logged) {
    job.replayed = replay_tree(item, plan, dopt.prune_after, job);
  }
  if (!job.repaired && !job.replayed) {
    plan.storage_free = compute_route_tree_into(
        state_, *topology_, item, dopt, ws.ws, plan.tree,
        instr_ != nullptr && !shadow ? &job.stats : nullptr);
  }
  job.prune_after = dopt.prune_after;
  build_candidates_local(item, plan, pending, dopt.hold_rules, ws);
}

bool StagingEngine::repair_tree(ItemId item, ItemPlan& plan,
                                std::span<const std::int32_t> pending, RefreshWorkspace& ws) {
  // Guards 1 and 2: paranoid mode stays the literal oracle, and the plan's
  // last commit was its own with no foreign dispatch since (invalidate keeps
  // repair_roots empty otherwise).
  if (options_.paranoid || plan.repair_roots.empty()) return false;
  // Guard 3: the tree descends from a Dijkstra run in which storage rejected
  // nothing, so departures were FIFO and its labels are exact earliest
  // arrivals, which commits since could only raise.
  if (!plan.storage_free) return false;
  // The committed receivers now hold copies available at exactly their old
  // labels; a fresh run settles a prefix of the old settle order with the
  // same labels and parent edges, those receivers as roots.
  plan.tree.reroot_and_restrict(plan.repair_roots, ws.targets, ws.keep);
  // Guard 4: every pending target is reached with a parent by its deadline,
  // so its whole path was subscribed and a fresh run would settle it before
  // the prune horizon.
  const DataItem& it = scenario_->item(item);
  for (const std::int32_t k : pending) {
    const Request& request = it.requests[static_cast<std::size_t>(k)];
    const TreeEdge* entry = plan.tree.entry(request.destination);
    if (entry == nullptr || !entry->from.valid() || entry->arrival > request.deadline) {
      return false;
    }
  }
  return true;
}

bool StagingEngine::replay_tree(ItemId item, ItemPlan& plan, SimTime prune_after,
                                RefreshJob& job) {
  // Run-level guards first, then the item's own.
  if (!links_shrank_) {
    job.miss = ReplayMiss::kLinksGrew;
    return false;
  }
  if (diverged_) {
    job.miss = ReplayMiss::kDiverged;
    return false;
  }
  // The previous run's tree current at this iteration: the last one it
  // refreshed at or before it.
  while (plan.replay_next < plan.replay_end &&
         prev_log_.trees[prev_log_.plan_trees[plan.replay_next]].iteration <= iterations_) {
    plan.replay_tree = prev_log_.plan_trees[plan.replay_next++];
  }
  if (item_unchanged_[item.index()] == 0 || plan.replay_tree == kNoTree) {
    job.miss = ReplayMiss::kItemChanged;
    return false;
  }
  const LoggedTree& logged = prev_log_.trees[plan.replay_tree];
  if (!logged.replayable) {
    job.miss = ReplayMiss::kStorageRejected;
    return false;
  }
  job.miss = ReplayMiss::kVerifyFailed;
  if (logged.prune_after != prune_after) return false;

  // The logged tree is the storage-free earliest-arrival forest of its
  // world, and this run's availability is a subset of that world's: every
  // label can only have risen, storage or not. A kept edge that still
  // departs from its parent's old label, arrives at its old label and is
  // admitted by storage keeps that label exact, and it keeps the parent
  // tie-break when no other edge of its group arrives as early
  // (docs/PERFORMANCE.md item 11).
  const std::span<const LoggedEntry> entries(prev_log_.entries.data() + logged.first,
                                             logged.count);
  const std::int64_t item_bytes = scenario_->item(item).size_bytes;
  const SimTime prune_limit = prune_after >= SimTime::infinity()
                                  ? SimTime::infinity()
                                  : prune_after + SimDuration::from_usec(1);
  plan.tree.reset(scenario_->machine_count());
  plan.storage_free = true;  // the logged run's flag
  for (const LoggedEntry& entry : entries) {
    if (!entry.from.valid()) {
      const std::optional<SimTime> copy = state_.copy_available_at(item, entry.to);
      if (!copy.has_value() || *copy != entry.arrival) return false;
      plan.tree.append(entry.to, entry.arrival, false, TreeEdge{});
      continue;
    }
    // Entries are sorted by machine, and a kept entry's parent is kept.
    const auto parent = std::lower_bound(
        entries.begin(), entries.end(), entry.from,
        [](const LoggedEntry& e, MachineId machine) { return e.to < machine; });
    if (parent == entries.end() || parent->to != entry.from) return false;
    const SimTime ready = parent->arrival;
    if (ready > prune_after) return false;
    const std::span<const ReceiverGroup> groups = topology_->receivers(entry.from);
    const auto group = std::lower_bound(
        groups.begin(), groups.end(), entry.to,
        [](const ReceiverGroup& g, MachineId machine) { return g.to < machine; });
    if (group == groups.end() || group->to != entry.to) return false;
    const SimTime sender_hold_end = state_.hold_end(item, entry.from);
    const SimTime depart_limit = min(sender_hold_end, prune_limit);
    // The edges a Dijkstra scan would accept, arriving at or before the
    // logged arrival: exactly one, the logged edge on its new link id.
    VirtLinkId found = VirtLinkId::invalid();
    for (const OutEdge& out : topology_->edges(*group)) {
      const SimTime earliest = max(ready, out.window.begin);
      if (earliest >= depart_limit || earliest > entry.arrival) break;
      const SimDuration occupancy =
          transfer_duration(item_bytes, out.bandwidth_bps) + out.latency;
      const SimTime earliest_arrival = earliest + occupancy;
      if (earliest_arrival > entry.arrival || earliest_arrival > out.window.end) continue;
      const std::optional<LinkFit> fit =
          state_.links().earliest_fit(out.link, out.window, occupancy, ready);
      if (!fit.has_value() || fit->start >= sender_hold_end ||
          fit->arrival >= prune_limit || fit->arrival > entry.arrival) {
        continue;
      }
      if (found.valid() || fit->start != entry.start || fit->arrival != entry.arrival ||
          scenario_->vlink(out.link).phys != entry.phys) {
        return false;
      }
      found = out.link;
    }
    if (!found.valid()) return false;
    if (!state_.can_hold(item, entry.to, entry.start)) {
      job.miss = ReplayMiss::kHoldMisfit;
      return false;
    }
    plan.tree.append(entry.to, entry.arrival, true,
                     TreeEdge{entry.from, entry.to, found, entry.start, entry.arrival});
  }
  return true;
}

void StagingEngine::log_tree(std::size_t plan_index, SimTime prune_after) {
  const ItemPlan& plan = plans_[plan_index];
  const std::span<const TreeEdge> entries = plan.tree.entries();
  log_.trees.push_back(LoggedTree{static_cast<std::uint32_t>(plan_index),
                                  static_cast<std::uint32_t>(iterations_),
                                  static_cast<std::uint32_t>(log_.entries.size()),
                                  static_cast<std::uint32_t>(entries.size()), prune_after,
                                  plan.storage_free});
  for (const TreeEdge& e : entries) {
    log_.entries.push_back(LoggedEntry{
        e.from, e.to, e.from.valid() ? scenario_->vlink(e.link).phys : PhysLinkId::invalid(),
        e.start, e.arrival});
  }
}

void StagingEngine::merge_refresh_job(RefreshJob& job) {
  const std::size_t plan_index = job.plan;
  const ItemId item(static_cast<std::int32_t>(plan_index));
  ItemPlan& plan = plan_at(plan_index);
  // Replay the subscriptions the compute phase recorded, in recorded order:
  // each emplace below was a subscribe call in the serial code, so posting
  // lists end up byte-identical to a serial refresh.
  const auto resubscribe = [&] {
    index_.unsubscribe_all(plan_index);
    for (const auto& [link, busy] : plan.used_links) {
      index_.subscribe_link(plan_index, link, busy);
    }
    for (const auto& [machine, hold] : plan.used_storage) {
      index_.subscribe_storage(plan_index, machine, hold);
    }
  };
  if (plan_index == shadow_slot()) {
    // The shadow's only shared state is its subscriptions.
    ++shadow_refreshes_;
    if (instr_ != nullptr) instr_->shadow_refreshes.inc();
    resubscribe();
    return;
  }
  if (job.repaired) {
    ++tree_repairs_;
    if (instr_ != nullptr) instr_->tree_repairs.inc();
  } else if (job.replayed) {
    ++replay_.replays;
    if (instr_ != nullptr) instr_->tree_replays.inc();
  } else {
    ++dijkstra_runs_;
    const bool missed = logging_ && prev_log_.logged;
    if (missed) ++replay_.misses[static_cast<std::size_t>(job.miss)];
    if (instr_ != nullptr) {
      instr_->tree_recomputes.inc();
      instr_->dijkstra_pops.inc(job.stats.pops);
      instr_->dijkstra_relaxations.inc(job.stats.relaxations);
      instr_->dijkstra_link_searches.inc(job.stats.link_searches);
      instr_->dijkstra_storage_checks.inc(job.stats.storage_checks);
      instr_->dijkstra_capacity_rejections.inc(job.stats.capacity_rejections);
      instr_->dijkstra_kept_entries.inc(job.stats.kept_entries);
      if (missed) {
        instr_->replay_misses.inc();
        instr_->replay_miss_reasons[static_cast<std::size_t>(job.miss)].inc();
      }
    }
  }
  if (logging_) log_tree(plan_index, job.prune_after);
  if (trace_ != nullptr) {
    trace_->event("recompute")
        .field("iter", iterations_)
        .field("item", item.value())
        .field("pending", tracker_.pending_of(item).size())
        .field("prune_after_usec", job.prune_after.usec())
        .field("repaired", job.repaired)
        .field("replayed", job.replayed);
  }
  candidate_total_ -= job.old_candidates;
  resubscribe();
  candidate_total_ += plan.candidates.size();
  if (plan.best != kNoBest) push_best(plan_index);
  if (instr_ != nullptr) {
    instr_->candidates.inc(plan.candidates.size());
    instr_->best_rescans.inc();
  }
  if (lifecycle_ != nullptr) classify_requests(item, plan);
  plan.dirty = false;
  plan.last_invalidated_by = -1;
}

void StagingEngine::recompute_plan_now(ItemId item) {
  ItemPlan& plan = plans_[item.index()];
  RefreshJob job;
  job.plan = item.index();
  job.old_candidates = plan.candidates.size();
  plan.dirty = false;
  compute_refresh_job(job, refresh_ws_.front());
  merge_refresh_job(job);
}

void StagingEngine::classify_requests(ItemId item, const ItemPlan& plan) {
  using Status = Lifecycle::Status;
  const DataItem& it = scenario_->item(item);
  for (const std::int32_t k : tracker_.pending_of(item)) {
    const Request& request = it.requests[static_cast<std::size_t>(k)];
    const MachineId dest = request.destination;
    Status next;
    if (!plan.tree.reached(dest)) {
      // The route tree is deadline-pruned: an unreached destination is a
      // dead drop only when the static topology cannot carry the item there
      // at all; otherwise every connecting route just arrives too late.
      next = lifecycle_->reachable[item.index()][dest.index()] != 0
                 ? Status::kDeadlineInfeasible
                 : Status::kNoRoute;
    } else if (!plan.tree.has_parent(dest)) {
      // Destination already holds a late copy and no fresh route improves on
      // it — the request is reachable but can no longer meet its deadline.
      next = Status::kDeadlineInfeasible;
    } else {
      next = plan.tree.arrival(dest) <= request.deadline
                 ? Status::kFeasible
                 : Status::kDeadlineInfeasible;
    }
    Lifecycle::RequestState& st =
        lifecycle_->requests[item.index()][static_cast<std::size_t>(k)];
    if (st.status == next) continue;
    const bool was_feasible = st.status == Status::kFeasible;
    if (next == Status::kFeasible) {
      // Feasibility can return: a commit of this item staged a copy closer to
      // the destination, opening a faster route than before.
      if (st.status != Status::kUnknown) {
        trace_->event("request_revived")
            .field("iter", iterations_)
            .field("item", item.value())
            .field("k", k)
            .field("dest", dest.value());
      }
      st.ever_feasible = true;
      st.lost_to = -1;
    } else {
      auto event = trace_->event("request_lost");
      event.field("iter", iterations_)
          .field("item", item.value())
          .field("k", k)
          .field("dest", dest.value())
          .field("reason", next == Status::kNoRoute ? "no_feasible_route"
                                                    : "deadline_infeasible");
      if (was_feasible && plan.last_invalidated_by >= 0) {
        st.lost_to = plan.last_invalidated_by;
        event.field("lost_to", plan.last_invalidated_by);
      }
    }
    st.status = next;
  }
}

void StagingEngine::build_candidates_local(ItemId item, ItemPlan& plan,
                                           std::span<const std::int32_t> pending,
                                           const HoldRules* rules, RefreshWorkspace& ws) {
  ++plan.generation;  // existing tournament entries for this plan go stale
  for (Candidate& c : plan.candidates) ws.dest_pool.release(std::move(c.dests));
  plan.candidates.clear();
  plan.used_links.clear();
  plan.used_storage.clear();
  plan.best = kNoBest;

  const DataItem& it = scenario_->item(item);

  // Evaluate every pending destination against the fresh tree and group the
  // reachable ones by the first hop of their path (the paper's Drq[i,r]).
  // The flat buffer + stable sort reproduce the old std::map grouping —
  // ascending r, insertion order within a group — without its per-round node
  // allocations (every machine has a unique parent edge, so all entries of a
  // group share the same hop).
  using GroupEntry = RefreshWorkspace::GroupEntry;
  std::vector<GroupEntry>& groups = ws.groups;
  groups.clear();

  for (const std::int32_t k : pending) {
    const Request& request = it.requests[static_cast<std::size_t>(k)];
    const TreeEdge* dest_entry = plan.tree.entry(request.destination);
    if (dest_entry == nullptr || dest_entry->arrival.is_infinite()) continue;

    DestinationEval eval;
    eval.k = k;
    eval.weight = options_.weighting.weight(request.priority);
    eval.deadline_seconds = request.deadline.seconds();

    if (!dest_entry->from.valid()) {
      // The destination already holds a (late) copy: a pending request with a
      // root label means the copy arrived past the deadline. No transfer is
      // proposed for it; it contributes nothing.
      DS_ASSERT_MSG(dest_entry->arrival > request.deadline,
                    "rootless pending destination implies a late arrival");
      continue;
    }

    const SimTime at = dest_entry->arrival;
    eval.sat = at <= request.deadline;
    eval.slack_seconds = eval.sat ? (request.deadline - at).as_seconds() : 0.0;

    const TreeEdge& hop = plan.tree.first_hop(*dest_entry);
    groups.push_back(GroupEntry{hop.to.value(), hop, dest_entry, eval});
  }

  std::stable_sort(groups.begin(), groups.end(),
                   [](const GroupEntry& a, const GroupEntry& b) {
                     return a.r < b.r;
                   });

  const bool per_dest = is_per_destination(options_.criterion);
  for (std::size_t lo = 0; lo < groups.size();) {
    std::size_t hi = lo;
    while (hi < groups.size() && groups[hi].r == groups[lo].r) ++hi;
    const TreeEdge& hop = groups[lo].hop;

    bool any_sat = false;
    for (std::size_t g = lo; g < hi; ++g) any_sat |= groups[g].eval.sat;
    if (!any_sat) {  // Sat == 0 everywhere: no resources (§4.8)
      lo = hi;
      continue;
    }

    if (per_dest) {
      for (std::size_t g = lo; g < hi; ++g) {
        const DestinationEval& eval = groups[g].eval;
        if (!eval.sat) continue;
        Candidate c;
        c.item = item;
        c.hop = hop;
        c.dests = ws.dest_pool.acquire();
        c.dests.push_back(eval);
        c.cost = evaluate_cost(options_.criterion, options_.eu, c.dests);
        plan.candidates.push_back(std::move(c));
      }
    } else {
      Candidate c;
      c.item = item;
      c.hop = hop;
      c.dests = ws.dest_pool.acquire();
      c.dests.reserve(hi - lo);
      for (std::size_t g = lo; g < hi; ++g) c.dests.push_back(groups[g].eval);
      c.cost = evaluate_cost(options_.criterion, options_.eu, c.dests);
      plan.candidates.push_back(std::move(c));
    }

    // Record the resources the satisfiable paths of this group rely on.
    // The merge phase replays these records as inverted-index subscriptions
    // (in recorded order) so a later overlapping reservation dispatches an
    // invalidation here; recording and subscribing are kept 1:1.
    ++ws.node_mark_epoch;
    for (std::size_t g = lo; g < hi; ++g) {
      if (!groups[g].eval.sat) continue;
      plan.tree.path_to_into(*groups[g].dest_entry, ws.path_scratch);
      for (const TreeEdge& edge : ws.path_scratch) {
        if (ws.node_mark[edge.to.index()] == ws.node_mark_epoch) continue;
        ws.node_mark[edge.to.index()] = ws.node_mark_epoch;
        const Interval busy{edge.start, edge.arrival};
        plan.used_links.emplace_back(edge.link, busy);
        // What can_hold checked for this node.
        const std::optional<Interval> charge =
            state_.hold_charge(item, edge.to, edge.start, rules);
        if (charge.has_value()) plan.used_storage.emplace_back(edge.to, *charge);
      }
    }
    lo = hi;
  }

  // Rescore the plan's own best under the global candidate order. The merge
  // phase enters it into the tournament; plans that stay clean do no
  // per-round scoring work at all.
  for (std::size_t c = 0; c < plan.candidates.size(); ++c) {
    if (plan.best == kNoBest ||
        candidate_less(plan.candidates[c], plan.candidates[plan.best])) {
      plan.best = c;
    }
  }
}

void StagingEngine::push_best(std::size_t plan_index) {
  const ItemPlan& plan = plans_[plan_index];
  const Candidate& c = plan.candidates[plan.best];
  best_heap_.push_back(BestEntry{c.cost, c.item.value(), c.hop.to.value(),
                                 c.dests.empty() ? -1 : c.dests.front().k,
                                 plan.generation});
  std::push_heap(best_heap_.begin(), best_heap_.end(), best_entry_after);
}

std::optional<Candidate> StagingEngine::best_candidate() {
  if (guard_tripped_) return std::nullopt;
  refresh_plans();
  // Lazy tournament: pop stale snapshots (plan rebuilt or retired since the
  // push) until the top is live. A live top is the plan's current best, and
  // every live plan with candidates has a live entry, so it is the global
  // minimum under candidate_less.
  const Candidate* best = nullptr;
  while (!best_heap_.empty()) {
    const BestEntry& top = best_heap_.front();
    const ItemPlan& plan = plans_[static_cast<std::size_t>(top.item)];
    if (top.generation == plan.generation && !plan.exhausted &&
        plan.best != kNoBest) {
      best = &plan.candidates[plan.best];
      break;
    }
    std::pop_heap(best_heap_.begin(), best_heap_.end(), best_entry_after);
    best_heap_.pop_back();
  }
  if (watch_held_) check_watched_choice(best);
  if (trace_ != nullptr) {
    auto event = trace_->event("round");
    event.field("iter", iterations_)
        .field("candidates", candidate_total_)
        .field("pending_requests", tracker_.pending_count())
        .field("cache_hits", last_round_cache_hits_);
    if (best != nullptr) {
      event.field("best_item", best->item.value())
          .field("best_cost", best->cost)
          .field("best_hop_to", best->hop.to.value());
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::vector<Candidate> StagingEngine::all_candidates() {
  refresh_plans();
  std::vector<Candidate> all;
  all.reserve(candidate_total_);
  for (const ItemPlan& plan : plans_) {
    if (plan.exhausted) continue;
    all.insert(all.end(), plan.candidates.begin(), plan.candidates.end());
  }
  return all;
}

std::size_t StagingEngine::candidate_count() {
  refresh_plans();
  return candidate_total_;
}

AppliedTransfer StagingEngine::commit_edge(ItemId item, const TreeEdge& edge) {
  const std::size_t pending_before =
      (instr_ != nullptr || trace_ != nullptr) ? tracker_.pending_count() : 0;
  // A run without the watched request charges the item's holds by its own
  // rules, and a copy at the request's destination is held differently
  // there (and may resolve the request here).
  const bool watched = watch_held_ && item == watched_.item;
  std::optional<Interval> shadow_charge;
  if (watched) shadow_charge = state_.hold_charge(item, edge.to, edge.start, &watched_rules_);
  const AppliedTransfer applied = state_.apply_transfer(item, edge.link, edge.start);
  DS_ASSERT_MSG(applied.arrival == edge.arrival,
                "committed transfer deviates from the planned tree edge");
  if (watched) {
    const Request& left_out =
        scenario_->item(item).requests[static_cast<std::size_t>(watched_.k)];
    if (shadow_charge != applied.storage_interval || edge.to == left_out.destination) {
      end_watch();
    }
  }
  schedule_.add(
      CommStep{item, edge.from, edge.to, edge.link, edge.start, applied.arrival});
  if (lifecycle_ != nullptr) {
    // Emit request_satisfied before note_arrival mutates the pending set:
    // exactly the requests of this item at the receiving machine whose
    // deadline the arrival meets (note_arrival's own resolution rule).
    const DataItem& it = scenario_->item(item);
    for (const std::int32_t k : tracker_.pending_of(item)) {
      const Request& request = it.requests[static_cast<std::size_t>(k)];
      if (request.destination != edge.to || applied.arrival > request.deadline) {
        continue;
      }
      Lifecycle::RequestState& st =
          lifecycle_->requests[item.index()][static_cast<std::size_t>(k)];
      st.status = Lifecycle::Status::kSatisfied;
      st.ever_feasible = true;
      trace_->event("request_satisfied")
          .field("iter", iterations_)
          .field("item", item.value())
          .field("k", k)
          .field("dest", edge.to.value())
          .field("arrival_usec", applied.arrival.usec())
          .field("slack_usec", (request.deadline - applied.arrival).usec());
    }
  }
  tracker_.note_arrival(item, edge.to, applied.arrival);
  if (logging_) {
    // Replay holds while this run commits what the previous one did, step
    // for step.
    const LoggedCommit commit{item, edge.from, edge.to, scenario_->vlink(edge.link).phys,
                              edge.start};
    const std::size_t k = log_.commits.size();
    log_.commits.push_back(commit);
    if (k >= prev_log_.commits.size() || prev_log_.commits[k] != commit) diverged_ = true;
  }
  if (instr_ != nullptr || trace_ != nullptr) {
    const std::size_t satisfied = pending_before - tracker_.pending_count();
    if (instr_ != nullptr) {
      instr_->steps_committed.inc();
      instr_->requests_satisfied.inc(satisfied);
    }
    if (trace_ != nullptr) {
      trace_->event("commit")
          .field("iter", iterations_)
          .field("item", item.value())
          .field("from", edge.from.value())
          .field("to", edge.to.value())
          .field("link", edge.link.value())
          .field("start_usec", edge.start.usec())
          .field("arrival_usec", applied.arrival.usec())
          .field("satisfied", satisfied);
    }
  }
  return applied;
}

void StagingEngine::commit_edges_of(CommitShape shape, const Candidate& candidate,
                                    const RouteTree& tree, std::vector<TreeEdge>& edges) {
  edges.clear();
  const DataItem& item = scenario_->item(candidate.item);
  switch (shape) {
    case CommitShape::kHop:
      edges.push_back(candidate.hop);
      return;
    case CommitShape::kPathOne: {
      // Complete the candidate's own destination for per-destination
      // criteria; otherwise the most urgent satisfiable one of the group.
      const DestinationEval* chosen = nullptr;
      for (const DestinationEval& eval : candidate.dests) {
        if (!eval.sat) continue;
        if (chosen == nullptr || eval.slack_seconds < chosen->slack_seconds ||
            (eval.slack_seconds == chosen->slack_seconds && eval.k < chosen->k)) {
          chosen = &eval;
        }
      }
      DS_ASSERT_MSG(chosen != nullptr, "candidate without satisfiable destination");
      tree.path_to_into(item.requests[static_cast<std::size_t>(chosen->k)].destination, edges);
      return;
    }
    case CommitShape::kPathAll:
      // Union of the tree paths to every satisfiable destination of the
      // group; each machine has a unique parent edge, so dedupe by edge
      // target.
      ++node_mark_epoch_;
      for (const DestinationEval& eval : candidate.dests) {
        if (!eval.sat) continue;
        tree.path_to_into(item.requests[static_cast<std::size_t>(eval.k)].destination,
                          commit_path_scratch_);
        for (const TreeEdge& edge : commit_path_scratch_) {
          if (node_mark_[edge.to.index()] == node_mark_epoch_) continue;
          node_mark_[edge.to.index()] = node_mark_epoch_;
          edges.push_back(edge);
        }
      }
      DS_ASSERT_MSG(!edges.empty(), "candidate without satisfiable destination");
      // A parent's arrival strictly precedes its children's arrivals, so
      // sorting by arrival yields a valid commit order (senders hold copies
      // in time).
      std::sort(edges.begin(), edges.end(), [](const TreeEdge& a, const TreeEdge& b) {
        if (a.arrival != b.arrival) return a.arrival < b.arrival;
        return a.to < b.to;
      });
      return;
  }
}

void StagingEngine::apply(CommitShape shape, const Candidate& candidate) {
  const ItemPlan& plan = plans_[candidate.item.index()];
  DS_ASSERT_MSG(!plan.dirty, "candidate applied after its plan was invalidated");
  std::vector<TreeEdge>& edges = commit_edges_scratch_;
  commit_edges_of(shape, candidate, plan.tree, edges);
  if (watch_held_ && candidate.item == watched_.item) {
    // The shadow's best ties with the candidate (check_watched_choice); a
    // run without the request commits what it commits.
    const Candidate* alternative = shadow_best();
    if (alternative != nullptr) {
      commit_edges_of(shape, *alternative, shadow_.tree, shadow_edges_scratch_);
    }
    if (alternative == nullptr || shadow_edges_scratch_ != edges) end_watch();
  }
  applied_scratch_.clear();
  for (const TreeEdge& edge : edges) {
    applied_scratch_.push_back(commit_edge(candidate.item, edge));
  }
  invalidate(candidate.item, applied_scratch_);
  count_iteration();
}

void StagingEngine::apply_hop(const Candidate& candidate) {
  apply(CommitShape::kHop, candidate);
}

void StagingEngine::apply_full_path_one(const Candidate& candidate) {
  apply(CommitShape::kPathOne, candidate);
}

void StagingEngine::apply_full_path_all(const Candidate& candidate) {
  apply(CommitShape::kPathAll, candidate);
}

void StagingEngine::note_own_commit(ItemPlan& self,
                                    std::span<const AppliedTransfer> applied) {
  self.dirty = true;
  // The commit took edges of this plan's fresh tree: remember their
  // receivers so the refresh may re-root the tree instead of re-running
  // Dijkstra (repair_tree). An edge the tree does not hold forbids it.
  self.repair_roots.clear();
  for (const AppliedTransfer& t : applied) {
    const TreeEdge* entry = self.tree.entry(t.storage_machine);
    if (entry == nullptr || entry->link != t.link || entry->start != t.start ||
        entry->arrival != t.arrival) {
      self.repair_roots.clear();
      break;
    }
    self.repair_roots.push_back(t.storage_machine);
  }
}

void StagingEngine::invalidate(ItemId scheduled_item,
                               std::span<const AppliedTransfer> applied) {
  // The scheduled item's sources, pending set and resources all changed.
  {
    ItemPlan& self = plans_[scheduled_item.index()];
    if (!self.dirty) {
      note_own_commit(self, applied);
      if (lifecycle_ != nullptr) {
        // Self-attribution is real: committing one destination of an item can
        // consume resources its other pending destinations relied on.
        self.last_invalidated_by = scheduled_item.value();
      }
      dirty_queue_.push_back(scheduled_item.index());
    }
    if (instr_ != nullptr) instr_->invalidations_self.inc();
  }
  // So is the shadow's, when it is the scheduled item's: it takes no
  // dispatch of its own item's commit, as no plan does.
  const std::size_t shadow = shadow_slot();
  const bool shadow_committed = !shadow_.exhausted && scheduled_item == watched_.item;
  if (shadow_committed && !shadow_.dirty) note_own_commit(shadow_, applied);

  // Dispatch each applied transfer through the inverted index: only plans
  // subscribed to the touched link/storage are examined, instead of every
  // plan's whole resource list. Per plan, the first conflicting (transfer,
  // link-before-storage) pair wins — the same cause the old full scan
  // assigned — because a dirtied plan is skipped by later dispatches. The
  // shadow is dirtied like a plan but neither queued nor recorded: its
  // refresh is collected on its flag.
  const bool record = instr_ != nullptr || trace_ != nullptr;
  invalidation_scratch_.clear();
  std::size_t examined = 0;
  // A hit on plan slot p; `fits` says whether a storage hit leaves p's hold
  // fitting (a link hit always dirties).
  const auto hit = [&](std::size_t p, InvalidationCause cause, const auto& fits) {
    if (p == shadow && shadow_committed) return;
    ItemPlan& plan = plan_at(p);
    if (plan.dirty) plan.repair_roots.clear();  // guard 2: a foreign hit
    if (plan.dirty || plan.exhausted || fits()) return;
    plan.dirty = true;
    if (p == shadow) return;
    if (lifecycle_ != nullptr) plan.last_invalidated_by = scheduled_item.value();
    dirty_queue_.push_back(p);
    if (record) invalidation_scratch_.emplace_back(p, cause);
  };
  for (const AppliedTransfer& t : applied) {
    examined += index_.dispatch_link(
        t.link, t.link_busy, scheduled_item.index(), [&](std::size_t p, const Interval&) {
          hit(p, InvalidationCause::kLink, [] { return false; });
        });
    if (t.storage_interval.has_value()) {
      examined += index_.dispatch_storage(
          t.storage_machine, *t.storage_interval, scheduled_item.index(),
          [&](std::size_t p, const Interval& hold) {
            // Storage conflict: new usage overlaps a hold window this plan
            // checked and the hold no longer fits. (If it still fits, the
            // cached tree's capacity decisions are unchanged — alternatives
            // only got worse.)
            hit(p, InvalidationCause::kStorage, [&] {
              const std::int64_t bytes = scenario_->item(slot_item(p)).size_bytes;
              return state_.storage(t.storage_machine).fits(bytes, hold);
            });
          });
    }
  }

  if (!record) return;
  if (instr_ != nullptr) {
    instr_->invalidations_checked.inc(examined);
    // What a full scan of every live plan's resource list would have walked
    // for this commit — the counterfactual the index avoids.
    instr_->invalidations_scan_equiv.inc(index_.live_entries());
  }
  // Emit in ascending plan order, matching the order the old full scan
  // produced (dispatch discovers plans in posting-list order).
  std::sort(invalidation_scratch_.begin(), invalidation_scratch_.end());
  for (const auto& [p, cause] : invalidation_scratch_) {
    if (instr_ != nullptr) {
      (cause == InvalidationCause::kLink ? instr_->invalidations_link
                                         : instr_->invalidations_storage)
          .inc();
    }
    if (trace_ != nullptr) {
      trace_->event("invalidate")
          .field("iter", iterations_)
          .field("item", static_cast<std::int64_t>(p))
          .field("by_item", scheduled_item.value())
          .field("cause", cause == InvalidationCause::kLink ? "link" : "storage");
    }
  }
}

void StagingEngine::count_iteration() {
  if (logging_) {
    // ... and iteration for iteration.
    const auto commits = static_cast<std::uint32_t>(log_.commits.size());
    if (iterations_ >= prev_log_.iteration_end.size() ||
        prev_log_.iteration_end[iterations_] != commits) {
      diverged_ = true;
    }
    log_.iteration_end.push_back(commits);
  }
  ++iterations_;
  if (instr_ != nullptr) instr_->iterations.inc();
  // A run without the watched request has a lower guard (or the same).
  if (watch_held_ && iterations_ >= watch_max_iterations_) end_watch();
  if (iterations_ >= max_iterations_) {
    guard_tripped_ = true;
    if (instr_ != nullptr) instr_->guard_trips.inc();
    if (trace_ != nullptr) {
      trace_->event("guard_trip").field("iter", iterations_);
    }
    log_warn("staging engine iteration guard tripped; stopping the loop");
  }
}

const RouteTree& StagingEngine::plan_tree(ItemId item) {
  ItemPlan& plan = plans_[item.index()];
  if (!plan.exhausted && (plan.dirty || options_.paranoid)) recompute_plan_now(item);
  return plan.tree;
}

void StagingEngine::observe_finish() {
  using Status = Lifecycle::Status;
  std::size_t satisfied = 0;
  std::size_t dropped = 0;
  // Loss-reason tallies (lifecycle tracing only): indexed to match `kinds`.
  std::size_t lost_by_reason[4] = {0, 0, 0, 0};
  const OutcomeMatrix& outcomes = tracker_.outcomes();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    for (std::size_t k = 0; k < outcomes[i].size(); ++k) {
      const RequestOutcome& outcome = outcomes[i][k];
      outcome.satisfied ? ++satisfied : ++dropped;
      if (instr_ != nullptr && outcome.satisfied) {
        const Request& request = scenario_->items[i].requests[k];
        instr_->satisfied_slack_seconds->observe(
            (request.deadline - outcome.arrival).as_seconds());
      }
      if (trace_ != nullptr) {
        const Request& request = scenario_->items[i].requests[k];
        auto event = trace_->event("request");
        event.field("item", static_cast<std::int64_t>(i))
            .field("k", static_cast<std::int64_t>(k))
            .field("dest", request.destination.value())
            .field("deadline_usec", request.deadline.usec())
            .field("priority", static_cast<std::int64_t>(request.priority))
            .field("satisfied", outcome.satisfied);
        if (!outcome.arrival.is_infinite()) {
          event.field("arrival_usec", outcome.arrival.usec());
        }
        if (!outcome.satisfied && lifecycle_ != nullptr) {
          // Final loss reason from the last classification. A request still
          // marked feasible (or never classified) was abandoned mid-loop —
          // the guard tripped or the caller stopped early.
          const Lifecycle::RequestState& st = lifecycle_->requests[i][k];
          const char* reason = nullptr;
          std::size_t reason_index = 0;
          switch (st.status) {
            case Status::kNoRoute:
              reason = "no_feasible_route";
              reason_index = 0;
              break;
            case Status::kDeadlineInfeasible:
              reason = st.ever_feasible ? "lost_tournament" : "deadline_infeasible";
              reason_index = st.ever_feasible ? 2 : 1;
              break;
            case Status::kUnknown:
            case Status::kFeasible:
            case Status::kSatisfied:
              reason = guard_tripped_ ? "guard_tripped" : "not_scheduled";
              reason_index = 3;
              break;
          }
          ++lost_by_reason[reason_index];
          event.field("reason", reason);
          if (st.lost_to >= 0) event.field("lost_to", st.lost_to);
        }
      }
    }
  }
  if (instr_ != nullptr && options_.observer != nullptr &&
      options_.observer->metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.observer->metrics;
    m.counter("engine.requests_satisfied_final").inc(satisfied);
    m.counter("engine.requests_dropped").inc(dropped);
    m.counter("engine.runs").inc();
    if (lifecycle_ != nullptr) {
      m.counter("engine.lost_no_feasible_route").inc(lost_by_reason[0]);
      m.counter("engine.lost_deadline_infeasible").inc(lost_by_reason[1]);
      m.counter("engine.lost_tournament").inc(lost_by_reason[2]);
      m.counter("engine.lost_abandoned").inc(lost_by_reason[3]);
    }
  }
  if (trace_ != nullptr) {
    trace_->event("finish")
        .field("iterations", iterations_)
        .field("dijkstra_runs", dijkstra_runs_)
        .field("steps", schedule_.size())
        .field("satisfied", satisfied)
        .field("dropped", dropped)
        .field("guard_tripped", guard_tripped_);
  }
}

const Schedule& StagingEngine::finish_run() {
  if (instr_ != nullptr || trace_ != nullptr) observe_finish();
  return schedule_;
}

StagingResult StagingEngine::finish() {
  finish_run();
  StagingResult result;
  result.schedule = std::move(schedule_);
  result.outcomes = tracker_.take_outcomes();
  result.dijkstra_runs = dijkstra_runs_;
  result.iterations = iterations_;
  return result;
}

}  // namespace datastage
