// The staging engine: shared machinery behind all three heuristics.
//
// Responsibilities (paper §4.2-§4.8):
//   * maintain the per-item earliest-arrival route trees (Dijkstra),
//   * derive "valid next communication steps" and score them with the
//     configured cost criterion,
//   * commit a chosen step (one hop, a full path, or a full multi-destination
//     subtree) against the NetworkState,
//   * track request satisfaction.
//
// Performance note: the paper re-runs Dijkstra for every item on every
// iteration and explicitly leaves the obvious caching optimization to future
// work (§4.5). We implement it — and make the per-iteration cost proportional
// to what actually changed rather than to the scenario size:
//   * a cached tree is recomputed only when the resources consumed by a
//     committed step overlap the resources the tree's pending-destination
//     paths rely on; the overlap test is driven by an inverted resource
//     index (core/resource_index.hpp) so a commit dispatches only to the
//     plans subscribed to the touched links/storage, not to every plan;
//   * each plan caches its own best candidate, and best_candidate() runs a
//     lazy tournament heap over the per-plan bests — only plans rebuilt this
//     round are rescored;
//   * route trees are recomputed into reused buffers through a shared
//     DijkstraWorkspace, with the search stopping once every pending
//     destination is settled;
//   * the committed item's own plan is repaired instead of recomputed where
//     that is exact: its tree is re-rooted at the commit's receivers, which
//     now hold copies at their old labels (repair_tree);
//   * an engine started by reset() replays its previous run: while the new
//     run commits what the old one did, a dirty plan is rebuilt by verifying
//     the old run's tree edge by edge instead of by Dijkstra (replay_tree).
// Because reservations and allocations only ever shrink the feasible set and
// departures are FIFO while storage admits every hold, unaffected cached
// trees stay equal to a recompute wherever the item never meets a storage
// rejection (tested against `paranoid` mode, which recomputes everything
// every iteration; see docs/PERFORMANCE.md for the equivalence argument).
// Where storage binds, a tight hold can break FIFO, and a cached tree may
// differ from a recompute (ROADMAP item 2). Each plan records whether its
// tree descends from a Dijkstra run in which storage rejected nothing
// (ItemPlan::storage_free); repair and replay act only on such trees.
//
// A run may also watch one pending request (watch()): next to the item's
// plan it keeps a shadow plan, the item as a run without that request plans
// it, and checks every iteration that such a run would commit the same. A
// run that held says the schedule without the request is the one it built,
// so DynamicStager withdraws a fully rejected request without another run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cost.hpp"
#include "core/resource_index.hpp"
#include "core/satisfaction.hpp"
#include "core/schedule.hpp"
#include "model/priority.hpp"
#include "model/scenario.hpp"
#include "net/network_state.hpp"
#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "routing/path.hpp"
#include "util/arena.hpp"

namespace datastage {

class ThreadPool;

namespace obs {
struct RunObserver;
class PhaseTimer;
class RunTrace;
}  // namespace obs

/// Process-wide default for EngineOptions::engine_jobs, the intra-scenario
/// analogue of harness/parallel.hpp's default_jobs (which governs the
/// case-level fan-out). Tools apply --engine-jobs here once so harness code
/// that builds EngineOptions internally (sweeps, bounds, baselines) picks the
/// value up without threading it through every signature. 0 resolves to one
/// worker per hardware thread at engine construction.
void set_default_engine_jobs(std::size_t jobs);
std::size_t default_engine_jobs();

/// Why a reset-started run rebuilt a plan by Dijkstra instead of replaying
/// the previous run's tree (StagingEngine::replay_tree checks the first four
/// in this order, then each kept edge).
enum class ReplayMiss : std::uint8_t {
  kLinksGrew,        ///< a virtual link is not inside an old window of its rate
  kDiverged,         ///< the run's commits left the previous run's
  kItemChanged,      ///< the item differs, or the old run logged no tree for it
  kStorageRejected,  ///< storage rejected the old run (storage_free was down)
  kHoldMisfit,       ///< a kept edge's hold no longer fits
  kVerifyFailed,     ///< an edge no longer re-derives uniquely
};
inline constexpr std::size_t kReplayMissKinds = 6;

/// The reason's name in metrics (`engine.replay_misses_<name>`) and serve
/// `stats`: links_grew, diverged, item_changed, storage_rejected,
/// hold_misfit, verify_failed.
const char* replay_miss_name(ReplayMiss reason);

/// Plan rebuilds served by replay, and Dijkstra runs replay could not serve
/// by reason. Deterministic: a function of the runs' inputs.
struct ReplayCounts {
  std::size_t replays = 0;
  std::array<std::size_t, kReplayMissKinds> misses{};

  std::size_t miss(ReplayMiss reason) const {
    return misses[static_cast<std::size_t>(reason)];
  }
  std::size_t total_misses() const;
  void add(const ReplayCounts& other);
};

struct EngineOptions {
  PriorityWeighting weighting = PriorityWeighting::w_1_10_100();
  CostCriterion criterion = CostCriterion::kC4;
  EUWeights eu = {};
  /// Disable the route cache: recompute every item's tree every iteration
  /// (the paper's literal procedure). Used to validate the cache.
  bool paranoid = false;
  /// Hard stop for the scheduling loop; 0 derives a generous bound from the
  /// request count. The loop provably terminates on well-formed scenarios;
  /// the guard protects experiments from pathological hand-built inputs.
  std::size_t max_iterations = 0;
  /// Optional observability sinks (see obs/observer.hpp). nullptr — the
  /// default — keeps the hot loop free of any metric or trace work; set, it
  /// never changes scheduling decisions, only records them.
  obs::RunObserver* observer = nullptr;
  /// Worker threads for intra-scenario parallelism (the per-round plan
  /// refresh). 1 = serial; 0 = one per hardware thread. Schedules, metrics
  /// and traces are byte-identical at any value — parallel workers only ever
  /// write plan-local state and all shared-state effects are merged in
  /// ascending plan order (see docs/PARALLELISM.md).
  std::size_t engine_jobs = default_engine_jobs();
};

/// A valid next communication step: move `item` over `hop` (the shared first
/// hop of the grouped destinations' shortest paths). For per-destination
/// criteria (C1, priority_only) the group contains exactly one destination.
struct Candidate {
  ItemId item;
  TreeEdge hop;
  std::vector<DestinationEval> dests;  ///< pending dests whose path starts with hop
  double cost = 0.0;
};

class StagingEngine {
 public:
  /// Builds its own topology and sweeps the sources' storage charges.
  StagingEngine(const Scenario& scenario, EngineOptions options);
  /// Schedules `scenario` over a caller-owned `topology` (built from it) and
  /// `storage`, the per-machine timelines of its sources' charges (see the
  /// adopting NetworkState constructor). Both must outlive the engine's use.
  StagingEngine(const Scenario& scenario, const Topology& topology,
                std::span<const StorageTimeline> storage, EngineOptions options);
  ~StagingEngine();  // out-of-line: Instr is defined in engine.cpp

  /// Starts a new run on another problem, as the constructor above would,
  /// but on this engine's buffers: plans, route trees, candidate lists,
  /// index postings, link and storage schedules. The options stay; the
  /// observer's trace and phase timer are read again. DynamicStager replans
  /// this way. A run started here logs its trees and commits, and replays
  /// the previous reset-started run's trees while it retraces that run
  /// (outside paranoid mode; see replay_tree). The schedule is the one a
  /// fresh engine would build.
  void reset(const Scenario& scenario, const Topology& topology,
             std::span<const StorageTimeline> storage);

  /// Watches `request` of the run just started (its item and its index in
  /// this run's scenario; it must be pending), before the run's first
  /// refresh; paranoid runs ignore it. Next to the item's plan the engine
  /// keeps a shadow plan: the item as a run without that request plans it,
  /// with the other pending requests, their prune horizon and that run's
  /// hold rules (HoldRules), its own tree, candidates, index subscriptions
  /// and dirty flag, refreshed and repaired by the same rules as any plan.
  /// It never enters the tournament and is never logged for replay. Each
  /// best_candidate() checks that a run without the request would choose
  /// the same step, and each commit of the item that it would commit the
  /// same transfers with the same storage charges; the first iteration that
  /// fails ends the watch (docs/PERFORMANCE.md item 12). The checks assume
  /// a heuristic loop: each step applied is what best_candidate() returned.
  void watch(RequestRef request);
  /// True while every iteration of a watched run made the commit a run
  /// without the watched request makes: once best_candidate() has returned
  /// nullopt, that run's schedule is this one. False when nothing is
  /// watched.
  bool watch_held() const { return watch_held_; }
  /// Refreshes of this run's shadow plan (0 unless a request is watched).
  std::size_t shadow_refreshes() const { return shadow_refreshes_; }

  CostCriterion criterion() const { return options_.criterion; }

  /// Refreshes dirty plans and returns the lowest-cost candidate (ties broken
  /// deterministically by item, next machine, destination). nullopt when no
  /// satisfiable pending request remains — the heuristic loop is done.
  std::optional<Candidate> best_candidate();

  /// All current candidates (refreshes dirty plans). The returned vector is a
  /// copy owned by the caller — the engine's own candidate storage is reused
  /// across rounds. Used by the random-choice lower bound and by tests;
  /// callers that only need the count should use candidate_count().
  std::vector<Candidate> all_candidates();

  /// Number of current candidates (refreshes dirty plans) without copying
  /// them — the cheap form for benches and traces.
  std::size_t candidate_count();

  /// Commits exactly one hop (partial path heuristic, §4.5).
  void apply_hop(const Candidate& candidate);

  /// Commits the full path to one destination (full path/one destination
  /// heuristic, §4.6): C1 uses the candidate's single destination; aggregate
  /// criteria complete the most urgent satisfiable destination of the group.
  void apply_full_path_one(const Candidate& candidate);

  /// Commits the tree paths to every satisfiable destination of the group
  /// (full path/all destinations heuristic, §4.7).
  void apply_full_path_all(const Candidate& candidate);

  /// True once the iteration guard tripped (pathological input protection).
  bool guard_tripped() const { return guard_tripped_; }

  /// Finalizes and returns the result. The engine must not be used after,
  /// except through reset().
  StagingResult finish();

  /// Finalizes the run as finish() does (final metrics and trace events) but
  /// leaves the schedule in the engine, valid until the next reset().
  const Schedule& finish_run();

  // --- Introspection (tests, traces) ---
  const NetworkState& network() const { return state_; }
  const OutcomeTracker& tracker() const { return tracker_; }
  /// Dijkstra runs only; repaired trees count in tree_repairs().
  std::size_t dijkstra_runs() const { return dijkstra_runs_; }
  /// Plans rebuilt by re-rooting their cached tree after their own commit
  /// instead of a Dijkstra run (0 under paranoid).
  std::size_t tree_repairs() const { return tree_repairs_; }
  /// Plans rebuilt by verifying the previous run's tree this run.
  std::size_t tree_replays() const { return replay_.replays; }
  /// This run's replays and the Dijkstra runs replay could not serve (all
  /// zero for constructor-started runs, a reset-started run without a
  /// previous one, and paranoid runs).
  const ReplayCounts& replay_counts() const { return replay_; }
  std::size_t iterations() const { return iterations_; }
  /// The (fresh) route tree of an item; recomputes if dirty. The tree is
  /// exact on the item's pending destinations and their paths; labels of
  /// other machines may be tentative (target-set early termination). A
  /// retired item (no pending destinations) has an empty tree.
  const RouteTree& plan_tree(ItemId item);

 private:
  static constexpr std::size_t kNoBest = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoTree = UINT32_MAX;

  /// One kept tree entry as logged: the virtual link by its physical link,
  /// since virtual-link ids are renumbered from one run's world to the next.
  /// A root entry has an invalid `from` and `phys`.
  struct LoggedEntry {
    MachineId from;
    MachineId to;
    PhysLinkId phys;
    SimTime start;
    SimTime arrival;
  };
  /// One refreshed tree: entries [first, first + count) of RunLog::entries.
  struct LoggedTree {
    std::uint32_t plan;
    std::uint32_t iteration;  ///< iterations_ at the refresh
    std::uint32_t first;
    std::uint32_t count;
    SimTime prune_after;
    /// The plan's storage_free flag: the tree may be replayed.
    bool replayable;
  };
  /// One committed step, compared field by field with the next run's.
  struct LoggedCommit {
    ItemId item;
    MachineId from;
    MachineId to;
    PhysLinkId phys;
    SimTime start;
    friend bool operator==(const LoggedCommit&, const LoggedCommit&) = default;
  };
  /// A DataItem's scheduling fields, its sources and requests in
  /// RunLog::sources and RunLog::requests up to these ends.
  struct ItemSignature {
    std::int64_t size_bytes;
    std::uint32_t sources_end;
    std::uint32_t requests_end;
  };
  /// What a reset-started run leaves for the next one: the world it
  /// scheduled (virtual links sorted by physical link and window, item
  /// signatures), every refreshed tree and every commit. Flat buffers, cleared
  /// and refilled run over run.
  struct RunLog {
    bool logged = false;  ///< a reset-started run filled this log
    std::vector<VirtualLink> links;
    bool links_disjoint = false;  ///< windows of one physical link disjoint
    std::vector<ItemSignature> items;
    std::vector<SourceLocation> sources;
    std::vector<Request> requests;
    std::vector<LoggedEntry> entries;
    std::vector<LoggedTree> trees;
    std::vector<LoggedCommit> commits;
    /// commits.size() at the end of each iteration.
    std::vector<std::uint32_t> iteration_end;
    /// Reading index, built when the log becomes the previous run's: the
    /// trees of plan p are trees[plan_trees[i]] for i in
    /// [plan_first[p], plan_first[p + 1]), in refresh order.
    std::vector<std::uint32_t> plan_first;
    std::vector<std::uint32_t> plan_trees;

    void clear();
  };

  struct ItemPlan {
    RouteTree tree{0};
    /// The tree descends from a Dijkstra run in which storage rejected
    /// nothing (compute_route_tree_into's result; a repair keeps it, a replay
    /// takes the logged run's). Only such a tree is repaired or replayed.
    bool storage_free = false;
    bool dirty = true;
    bool exhausted = false;  ///< no pending dests; skip entirely
    /// Bumped whenever candidates are rebuilt or the plan retires; tournament
    /// heap entries carrying an older generation are stale.
    std::uint64_t generation = 0;
    /// Index of the plan's best candidate under the global order (kNoBest
    /// when the plan has no candidate).
    std::size_t best = kNoBest;
    std::vector<Candidate> candidates;
    // Resources the pending-destination paths rely on, for invalidation:
    std::vector<std::pair<VirtLinkId, Interval>> used_links;
    std::vector<std::pair<MachineId, Interval>> used_storage;
    /// Item whose commit most recently dirtied this plan (-1: none). Only
    /// maintained when lifecycle tracing is on; feeds `lost_to` attribution.
    std::int32_t last_invalidated_by = -1;
    /// Receivers of the plan's own commit since its last refresh, while the
    /// tree may be repaired instead of recomputed; empty once any other
    /// commit dispatches to the plan (see repair_tree). Only a dirty plan
    /// holds any.
    std::vector<MachineId> repair_roots;
    /// The previous run's trees of this plan, as positions in
    /// prev_log_.plan_trees: [replay_next, replay_end) are still ahead of
    /// this run's iteration; replay_tree is the one current at it (kNoTree:
    /// none yet).
    std::uint32_t replay_next = 0;
    std::uint32_t replay_end = 0;
    std::uint32_t replay_tree = kNoTree;
  };

  /// Tournament-heap entry: a snapshot of one plan's best candidate under the
  /// deterministic candidate order. Snapshots keep the heap comparator stable
  /// while plans change; stale entries (generation mismatch) are popped lazily.
  struct BestEntry {
    double cost;
    std::int32_t item;
    std::int32_t hop_to;
    std::int32_t k;
    std::uint64_t generation;
  };
  /// Min-heap comparator over BestEntry snapshots: candidate_less inverted
  /// for std::push_heap/pop_heap.
  static bool best_entry_after(const BestEntry& a, const BestEntry& b);

  enum class InvalidationCause : std::uint8_t { kLink, kStorage };

  /// One unit of refresh work: the plan to rebuild plus everything the serial
  /// merge needs to replay the exact counter/trace sequence of a serial
  /// recompute (Dijkstra stats, the prune horizon, the pre-rebuild candidate
  /// count for the global total).
  struct RefreshJob {
    std::size_t plan = 0;
    std::size_t old_candidates = 0;
    bool repaired = false;  ///< tree re-rooted, no Dijkstra run (stats empty)
    bool replayed = false;  ///< previous run's tree verified, no Dijkstra run
    /// Why a Dijkstra run of a logging run did not replay (valid when
    /// logging_ and neither repaired nor replayed).
    ReplayMiss miss = ReplayMiss::kLinksGrew;
    SimTime prune_after = SimTime::infinity();
    DijkstraStats stats;  ///< filled only when metrics are attached
  };

  /// Per-worker scratch for the compute phase: a Dijkstra workspace, the
  /// target buffer, the node-mark epoch set, and the buffers the candidate
  /// rebuild reuses round over round (the first-hop groups, a path walk, and
  /// a pool of candidate destination lists). refresh_ws_[0] doubles as the
  /// serial path's scratch, so serial and parallel runs share one code path.
  struct RefreshWorkspace {
    /// One pending destination in the first-hop grouping of a candidate
    /// rebuild (replaces the per-round std::map allocations
    /// build_candidates used to make).
    struct GroupEntry {
      std::int32_t r;  ///< first-hop receiver (the paper's r in Drq[i,r])
      TreeEdge hop;
      const TreeEdge* dest_entry;  ///< the destination's entry in the plan tree
      DestinationEval eval;
    };

    DijkstraWorkspace ws;
    std::vector<GroupEntry> groups;
    std::vector<MachineId> targets;
    std::vector<std::uint64_t> node_mark;
    std::uint64_t node_mark_epoch = 0;
    VectorPool<DestinationEval> dest_pool;
    std::vector<TreeEdge> path_scratch;
    std::vector<std::uint8_t> keep;  ///< RouteTree::reroot_and_restrict scratch
  };

  /// The shadow plan's slot in plan-indexed tables (the index, refresh
  /// jobs): one past the last item's.
  std::size_t shadow_slot() const { return plans_.size(); }
  ItemPlan& plan_at(std::size_t slot) {
    return slot == shadow_slot() ? shadow_ : plans_[slot];
  }
  ItemId slot_item(std::size_t slot) const {
    return slot == shadow_slot() ? watched_.item
                                 : ItemId(static_cast<std::int32_t>(slot));
  }
  /// The shadow plan's best candidate; nullptr when it has none.
  const Candidate* shadow_best() const {
    return shadow_.best == kNoBest ? nullptr : &shadow_.candidates[shadow_.best];
  }
  /// Retires the shadow plan, as retire_plan does a plan, keeping buffers.
  void retire_shadow();
  /// Ends the watch, retiring the shadow.
  void end_watch();
  /// Ends the watch unless a run without the watched request would choose
  /// as best_candidate() did (`best`: its result).
  void check_watched_choice(const Candidate* best);
  /// What a heuristic commits of a candidate: its hop (partial path), the
  /// path to one destination (full path/one), or the union of the paths to
  /// every satisfiable destination (full path/all).
  enum class CommitShape : std::uint8_t { kHop, kPathOne, kPathAll };
  /// The edges `shape` commits of `candidate` over `tree`, in commit order
  /// (uses node_mark_ and commit_path_scratch_).
  void commit_edges_of(CommitShape shape, const Candidate& candidate, const RouteTree& tree,
                       std::vector<TreeEdge>& edges);
  /// The apply_* body: commits, invalidates and counts the iteration; on
  /// the watched item, ends the watch unless the shadow's best commits the
  /// same edges.
  void apply(CommitShape shape, const Candidate& candidate);
  /// Marks `self` dirty after its own commit of `applied`, with the
  /// receivers a repair may re-root at.
  void note_own_commit(ItemPlan& self, std::span<const AppliedTransfer> applied);

  /// Resolves engine_jobs and the observer's sinks (constructors only).
  void configure();
  /// Reads the observer's trace and phase timer, which a caller may attach
  /// between runs (the metric handles are resolved once, in configure()).
  void attach_observer();
  /// Puts every run-scoped member in the state a fresh engine on scenario_
  /// has, keeping buffers.
  void start_run();
  /// The iteration guard of a run over `requests` requests.
  std::size_t iteration_guard(std::size_t requests) const;

  /// Brings every plan up to date: recomputes the dirty set (incremental
  /// mode) or every live plan (paranoid mode marks them all dirty first),
  /// retiring exhausted plans. Three phases — collect (serial: dirty set ->
  /// jobs), compute (on the pool when the batch has at least
  /// kParallelRefreshMinJobs plans, inline otherwise: route trees +
  /// candidate lists into plan-local storage), merge (serial, ascending plan
  /// order: index subscriptions, tournament pushes, counters, trace events)
  /// — so output is byte-identical at any thread count.
  void refresh_plans();
  /// Serial collect: drains dirty_queue_ (sorted, dup-skipped) into
  /// refresh_jobs_, retiring plans with no pending requests.
  void collect_refresh_jobs();
  void compute_refresh_job(RefreshJob& job, RefreshWorkspace& ws);
  /// Rebuilds the plan's tree without Dijkstra after its own commit, when
  /// that is exact: not paranoid, no foreign dispatch since the commit, the
  /// tree is storage_free, and every target (ws.targets: the destinations
  /// of the plan's `pending` requests) stays reached with a parent by its
  /// deadline. False leaves the tree for compute_route_tree_into to
  /// overwrite (docs/PERFORMANCE.md item 8).
  bool repair_tree(ItemId item, ItemPlan& plan, std::span<const std::int32_t> pending,
                   RefreshWorkspace& ws);
  /// Rebuilds the plan's tree by verifying the previous run's tree current
  /// at this iteration, when that is exact: the run has retraced the
  /// previous run's commits, its links only shrank, the item is unchanged,
  /// the logged tree was storage_free, and every kept edge re-derives from
  /// its parent's label with the same start and arrival as the unique
  /// earliest arrival of its sender->receiver group, and fits its
  /// receiver's storage now. False sets job.miss and leaves the tree for
  /// Dijkstra to overwrite (docs/PERFORMANCE.md item 11).
  bool replay_tree(ItemId item, ItemPlan& plan, SimTime prune_after, RefreshJob& job);
  /// Starts the logs of a reset-started run: the current log becomes the
  /// previous run's, the new world is compared with it and recorded.
  void start_log();
  /// Appends the merged plan's fresh tree and its storage_free flag to the
  /// log.
  void log_tree(std::size_t plan_index, SimTime prune_after);
  /// Serial merge of one computed job, replaying the exact shared-state
  /// effect sequence of a serial recompute.
  void merge_refresh_job(RefreshJob& job);
  /// Lazily creates the pool (first batch that wants it).
  ThreadPool* ensure_pool();
  /// Serial recompute of a single plan (plan_tree's paranoid/dirty path):
  /// compute + merge inline through the same job machinery.
  void recompute_plan_now(ItemId item);
  /// Marks a plan exhausted, releasing its candidates, resource records and
  /// index subscriptions (dead plans must not attract invalidation work or
  /// hold memory).
  void retire_plan(std::size_t plan_index);
  /// The thread-safe part of candidate building: rebuilds the plan's
  /// candidates, resource records and cached best from its fresh tree,
  /// touching only plan-local storage and the per-worker scratch. The
  /// matching shared-state work (index subscriptions, tournament push,
  /// totals, counters) happens in merge_refresh_job.
  /// `pending` are the plan's pending requests and `rules` its hold rules
  /// (null but for the shadow plan).
  void build_candidates_local(ItemId item, ItemPlan& plan,
                              std::span<const std::int32_t> pending,
                              const HoldRules* rules, RefreshWorkspace& ws);
  /// Lifecycle tracing: reclassifies every pending request of a freshly
  /// recomputed plan (feasible / deadline infeasible / no route) and emits
  /// request_lost / request_revived transitions. Only called when a trace is
  /// attached — the unobserved and metrics-only paths never run it.
  void classify_requests(ItemId item, const ItemPlan& plan);
  /// Pushes plan's current best into the tournament heap.
  void push_best(std::size_t plan_index);
  /// Emits per-request outcome events and final satisfaction counters.
  void observe_finish();
  /// Commits one tree edge: network transfer + schedule step + satisfaction.
  AppliedTransfer commit_edge(ItemId item, const TreeEdge& edge);
  /// Marks plans dirty whose used resources overlap the applied transfers,
  /// dispatching through the inverted resource index.
  void invalidate(ItemId scheduled_item, std::span<const AppliedTransfer> applied);
  void count_iteration();

  const Scenario* scenario_;
  EngineOptions options_;
  /// The by-scenario constructor's own topology; null when the caller's is
  /// used.
  std::unique_ptr<Topology> owned_topology_;
  const Topology* topology_;
  NetworkState state_;
  OutcomeTracker tracker_;
  Schedule schedule_;
  std::vector<ItemPlan> plans_;
  /// resource -> subscribed plans; drives invalidate().
  ResourceIndex index_;
  /// Plans marked dirty since the last refresh (unique; sorted at refresh).
  std::vector<std::size_t> dirty_queue_;
  /// Lazy min-heap over per-plan best candidates (see BestEntry).
  std::vector<BestEntry> best_heap_;
  /// Per-worker compute scratch; [0] is the serial path's workspace.
  std::vector<RefreshWorkspace> refresh_ws_;
  /// The current refresh batch (reused buffer).
  std::vector<RefreshJob> refresh_jobs_;
  /// Worker pool for the compute phase, created lazily once a batch is worth
  /// parallelizing. It survives reset(), so a long-lived caller that resets
  /// one engine (DynamicStager) spawns its workers once.
  std::unique_ptr<ThreadPool> pool_;
  std::size_t engine_jobs_resolved_ = 1;  ///< engine_jobs with 0 -> hardware
  /// Epoch-stamped per-machine marks: the allocation-free node_seen set used
  /// by full-tree commits (candidate building uses the per-worker copies).
  std::vector<std::uint64_t> node_mark_;
  std::uint64_t node_mark_epoch_ = 0;
  std::vector<std::pair<std::size_t, InvalidationCause>> invalidation_scratch_;
  /// Serial commit-path scratch (apply_full_path_*): reused across commits so
  /// path walks and transfer batches stop allocating per iteration.
  std::vector<TreeEdge> commit_path_scratch_;
  std::vector<TreeEdge> commit_edges_scratch_;
  std::vector<AppliedTransfer> applied_scratch_;
  std::size_t active_plans_ = 0;     ///< plans not yet retired
  std::size_t candidate_total_ = 0;  ///< Σ plan.candidates.size() (live plans)
  std::size_t last_round_cache_hits_ = 0;  ///< clean plans reused last refresh
  std::size_t dijkstra_runs_ = 0;
  std::size_t tree_repairs_ = 0;
  ReplayCounts replay_;

  // --- Replay of the previous run (reset-started runs only) ---
  /// This run logs and may replay: started by reset(), not paranoid.
  bool logging_ = false;
  /// Every virtual link lies inside a window of the previous run's with the
  /// same physical link and rate.
  bool links_shrank_ = false;
  /// The run's commits left the previous run's.
  bool diverged_ = false;
  /// [item] the item equals the previous run's item of that id.
  std::vector<std::uint8_t> item_unchanged_;
  RunLog log_;       ///< this run's
  RunLog prev_log_;  ///< the previous reset-started run's

  // --- The watched request (watch()) ---
  RequestRef watched_;
  bool watch_held_ = false;
  /// The watched item's hold rules in a run without the request.
  HoldRules watched_rules_{};
  /// The iteration guard of a run without the request.
  std::size_t watch_max_iterations_ = 0;
  /// The watched item's plan in a run without the request; retired
  /// (exhausted) when nothing is watched.
  ItemPlan shadow_;
  /// The shadow's pending requests: the item's, the watched one left out.
  std::vector<std::int32_t> shadow_pending_;
  std::vector<TreeEdge> shadow_edges_scratch_;
  std::size_t shadow_refreshes_ = 0;

  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
  bool guard_tripped_ = false;

  /// Pre-resolved metric counter handles; allocated once at construction
  /// when (and only when) an observer with a metrics registry is configured,
  /// so the unobserved hot loop performs no metric work beyond null checks.
  struct Instr;
  std::unique_ptr<Instr> instr_;
  obs::RunTrace* trace_ = nullptr;
  /// Wall-clock refresh timing sink. Deliberately separate from instr_:
  /// timing values differ run to run, so they are recorded only for callers
  /// that attach a phase timer (full observability documents) and never leak
  /// into the deterministic, byte-comparable metrics registries.
  obs::PhaseTimer* phases_ = nullptr;
  /// Per-request lifecycle state (feasibility status, ever-feasible flag,
  /// lost-to attribution) behind the request_lost/request_revived/
  /// request_satisfied trace events and the final loss-reason taxonomy.
  /// Allocated only when a trace is attached: metrics-only runs (the perf
  /// benches) skip the classification pass entirely.
  struct Lifecycle;
  std::unique_ptr<Lifecycle> lifecycle_;
};

}  // namespace datastage
