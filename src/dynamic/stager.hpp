// Dynamic data staging by event-driven replanning.
//
// DynamicStager maintains an evolving view of the world (link availability,
// item copies, outstanding requests) and a communication schedule. Between
// events the current plan stands; at every event the stager
//   1. commits every planned transfer that has already started (in-flight
//      transfers finish; their receivers become future copy holders),
//   2. cancels every transfer that has not started,
//   3. updates the world (new item / new request / link outage / restore),
//   4. re-runs the configured static heuristic on the residual problem.
// A cancel that withdraws nothing only moves the clock (steps 1–2 happen as
// in advance_to, the plan stands), a request that never enters the plan
// (below) changes neither world nor plan, and a withdrawal may keep the plan
// (below).
//
// Semantics choices (documented deviations from the static model):
//   * One relay-hold rule (relay_gc_time, model/scenario.hpp): relay copies
//     are removed at the item's gc time, γ after the latest deadline among
//     the item's requests that count, checked whenever the clock moves. A
//     request counts from the moment it enters the plan, also once
//     resolved, until it is withdrawn. A request never enters the plan when
//     it closes at a relay copy its destination cannot keep for good, or
//     when a relay copy of its item cannot be held to the later gc time its
//     deadline sets: such a request is refused and closes unsatisfied
//     (gc_extensions_refused()). The residual item carries its resolved
//     requests' latest deadline (DataItem::resolved_deadline), and
//     effective_scenario() lists exactly the requests that count, so the
//     engine, its shadow plan and the replay hold every relay copy as long
//     as the stager does. Expired copies cannot be revived by later
//     requests, nor by the copy rebuild after an in-flight failure.
//   * A request whose destination already holds a copy closes on the spot:
//     satisfied when that copy is on time and kept for good, unsatisfied
//     otherwise, rather than kept pending.
//
// Residual world: every replan schedules the residual problem (below) as a
// fresh engine would, and the stager keeps that problem between calls, in
// reused buffers: the residual Scenario, its Topology and its sources' storage
// timelines (ResidualWorld). It is built at most once per state and shared by
// the admission estimate (residual_world()), the replan and the withdrawal:
//   * the topology is rebuilt only when link availability or the instant
//     changed;
//   * a new request patches the world (appends it) unless the request moved
//     its item's gc time or resolved on the spot (garbage collection runs
//     whenever the clock moves, so it has erased any expired copy before the
//     world is read);
//   * a cancel patches the world (removes the request), unless it lowers the
//     gc time of an item that holds relay copies, whose hold windows shrink;
//   * anything else rebuilds the items and timelines.
// A patched world equals the rebuilt one field for field, so decisions do
// not depend on which path served them. Replans run the heuristic loop on
// one StagingEngine that is reset onto the world each time, reusing its
// buffers, and no replan starts from scratch: while it commits what the
// previous replan committed, the engine verifies that replan's logged route
// trees instead of re-running Dijkstra (StagingEngine::reset, replay_tree).
// A replan after a NewRequestEvent watches the request (StagingEngine::watch):
// when its watch held, the run without the request would have built the same
// schedule, so the withdrawal of exactly that request, next and at the same
// instant (a full reject's), keeps the plan instead of running the engine,
// unless it shortened relay holds the plan charged. It still patches the
// world and counts as a replan.
//
// Requests are addressed by RequestRef {item, k}: k indexes the item's tracked
// requests, which like the items are append-only, so a handle names one
// request for the whole run. Per-handle queries answer for that request
// alone; the name-keyed ones answer for an (item, destination) pair, which
// several requests may share over a run (a re-submit after a cancel).
//
// Link availability is one record, each physical link's down time. Both link
// views are the base virtual links minus it, split at announced degradations,
// each piece at its own virtual link's bandwidth (append_surviving_links): the
// residual's from now on, also minus the busy time of transfers in flight,
// and effective_scenario()'s over the whole run. The latter, with every added
// item and request, is what actually existed, so the merged schedule replays
// through sim/simulator like any static schedule.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/schedule.hpp"
#include "dynamic/events.hpp"
#include "model/fault.hpp"
#include "model/scenario.hpp"
#include "net/storage_timeline.hpp"
#include "net/topology.hpp"
#include "util/interval.hpp"

namespace datastage {

namespace obs {
class PhaseTimer;
class RunTrace;
}  // namespace obs

/// Final state of one (possibly ad-hoc) request across the dynamic run.
struct DynamicRequestRecord {
  std::string item_name;
  MachineId destination;
  SimTime deadline;
  Priority priority = kPriorityLow;
  bool satisfied = false;
  /// Withdrawn by a CancelRequestEvent before it was resolved; never counts
  /// as satisfied.
  bool cancelled = false;
  SimTime arrival = SimTime::infinity();
};

/// Lifecycle state of one request as seen by queries while the run is still
/// in progress.
enum class DynamicRequestStatus {
  kUnknown,      ///< no such request was ever tracked
  kPending,      ///< outstanding: the stager is still trying to deliver it
  kSatisfied,    ///< closed with an on-time arrival
  kUnsatisfied,  ///< closed without an on-time arrival
  kCancelled,    ///< withdrawn via CancelRequestEvent
};

struct DynamicResult {
  Schedule schedule;  ///< committed + currently planned transfers
  std::vector<DynamicRequestRecord> requests;
  std::size_t replans = 0;

  double weighted_value(const PriorityWeighting& weighting) const;
  std::size_t satisfied_count() const;
};

/// The residual problem at one instant with what every consumer derives
/// from it. `storage` holds, per machine, the timeline that the hold windows
/// of every source of `scenario` charge: what NetworkState(scenario) sweeps,
/// so a NetworkState can adopt it instead.
struct ResidualWorld {
  Scenario scenario;
  Topology topology;
  std::vector<StorageTimeline> storage;
};

class DynamicStager {
 public:
  /// Starts at time zero with `initial` (validated) and plans immediately.
  DynamicStager(Scenario initial, SchedulerSpec spec, EngineOptions options);
  ~DynamicStager();

  /// Processes one event; events must arrive in nondecreasing time order.
  void on_event(const StagingEvent& event);

  /// Advances the clock with no world change (commits started transfers);
  /// does not replan.
  void advance_to(SimTime now);

  /// Finishes the run: commits the remaining plan and returns the merged
  /// schedule plus per-request records.
  DynamicResult finish();

  /// The scenario describing what was *actually* available over the whole
  /// run: original windows minus outage periods, plus every added item and
  /// request. The merged schedule replays cleanly against it.
  Scenario effective_scenario() const;

  /// The open residual problem at `now()`: remaining link availability
  /// (outages and announced degradations applied), surviving copies as
  /// sources, outstanding requests only. This is the world an admission
  /// estimate must reason about — a request infeasible here is infeasible,
  /// full stop (core::quick_admission_estimate builds on it).
  Scenario residual_scenario() const;

  /// residual_scenario() with its topology and storage timelines, kept in
  /// the stager and shared with the next replan (see the header note). The
  /// reference stays valid until the next call that changes the stager.
  const ResidualWorld& residual_world();

  /// True when the stager tracks an item of this name (injecting a
  /// NewRequestEvent for an unknown item is a contract violation).
  bool has_item(const std::string& item_name) const {
    return find_item(item_name) != nullptr;
  }

  /// The index of the item of this name, in the stager and in every
  /// residual scenario; invalid when there is none. Stable for the run.
  ItemId item_id(const std::string& item_name) const;

  /// The handle of the request added last to `item`: after a
  /// NewRequestEvent, that request.
  RequestRef newest_request(ItemId item) const;
  const std::string& item_name(ItemId item) const { return items_[item.index()].name; }
  const Request& request(RequestRef request) const { return tracked(request).request; }

  /// Status of one request.
  DynamicRequestStatus request_status(RequestRef request) const;
  /// Status of the most recently added request for (item, destination);
  /// kUnknown when no such request was ever tracked.
  DynamicRequestStatus request_status(const std::string& item_name,
                                      MachineId destination) const;

  /// The arrival one request is served by: its own once resolved (infinity
  /// when it closed without one); while pending, the earliest planned step
  /// to its destination that has not started. A started step resolves
  /// every pending request at its destination (commit_started), so a
  /// committed step never serves a pending request.
  SimTime planned_arrival(RequestRef request) const;
  /// Any committed or planned arrival of `item_name` at `destination`, or
  /// the arrival a request there resolved with: the earliest, or infinity.
  /// The probe for "is the data there or headed there" that perfbench's
  /// serve client skips submits with.
  SimTime planned_arrival(const std::string& item_name,
                          MachineId destination) const;

  SimTime now() const { return now_; }
  std::size_t replans() const { return replans_; }
  std::size_t committed_step_count() const { return committed_.size(); }
  std::size_t planned_step_count() const { return plan_.size(); }
  /// The planned steps not started yet, in plan order. Their virtual-link
  /// ids index the residual scenario of the replan that made them.
  std::vector<CommStep> planned_steps() const;
  /// Residual world work so far (also counted as dynamic.* metrics):
  /// topologies built, full builds of the items and timelines, and replans
  /// served from a patched world instead.
  std::size_t topology_builds() const { return topology_builds_; }
  std::size_t residual_builds() const { return residual_builds_; }
  std::size_t world_patches() const { return world_patches_; }
  /// Replans replay the previous replan's route trees while they retrace it
  /// (StagingEngine::reset): plans rebuilt that way and Dijkstra runs replay
  /// could not serve, summed over replans.
  const ReplayCounts& replay_counts() const { return replay_counts_; }
  /// Withdrawals served by keeping the plan of the replan that added the
  /// request, without an engine run (counted in replans() too), and the
  /// shadow-plan refreshes that watching such requests cost, summed over
  /// replans (StagingEngine::watch).
  std::size_t withdrawals_kept_plan() const { return withdrawals_kept_plan_; }
  std::size_t shadow_refreshes() const { return shadow_refreshes_; }
  /// Requests refused at arrival because a relay copy of their item could not
  /// be held to the later gc time their deadline sets (also counted as
  /// dynamic.gc_extensions_refused).
  std::size_t gc_extensions_refused() const { return gc_extensions_refused_; }

 private:
  struct TrackedRequest {
    Request request;
    bool resolved = false;  ///< satisfied, or closed as hopeless
    bool satisfied = false;
    SimTime arrival = SimTime::infinity();
    /// A fault un-resolved this request at least once (in-flight failure or
    /// copy loss). Requeued-then-satisfied requests emit request_recovered.
    bool requeued = false;
    /// Withdrawn via CancelRequestEvent (implies resolved, never satisfied);
    /// cancellation is final — faults cannot re-open a cancelled request.
    bool cancelled = false;
    /// Holds the item's relay copies (relay_gc_time): from the moment the
    /// request enters the plan until it is withdrawn. A request refused or
    /// closed at its arrival never does; like a withdrawn one it is final.
    bool counted = true;
  };

  /// A copy-loss fault that destroyed a copy at `machine` at time `at`.
  /// Copies materialized after `at` (re-staged deliveries) are unaffected.
  struct LossMark {
    MachineId machine;
    SimTime at;
  };

  struct TrackedItem {
    std::string name;
    std::int64_t size_bytes = 0;
    std::vector<SourceLocation> original_sources;
    std::vector<Copy> copies;  ///< current copies incl. staged/in-flight ones
    std::vector<TrackedRequest> requests;  ///< append-only: RequestRef::k
    std::vector<LossMark> losses;  ///< applied copy-loss faults
    /// When garbage collection last erased relay copies of the item; zero
    /// when it never did. A copy from a transfer that started earlier is
    /// gone unless its machine keeps copies for good.
    SimTime relays_erased_at = SimTime::zero();

    /// When its relay copies are collected: relay_gc_time over the requests
    /// that count.
    SimTime gc_time(SimDuration gamma) const;
    /// A copy at `machine` from `available_at`; a machine keeps its earliest.
    void add_copy(MachineId machine, SimTime available_at);
    /// Latest copy-loss time at `machine` (survival cutoff for re-derived
    /// copies); nullopt when no loss ever hit the machine.
    std::optional<SimTime> last_loss_at(MachineId machine) const;
    /// Earliest copy-loss time at `machine` — the loss that destroyed the
    /// original source copy, ending its effective hold window.
    std::optional<SimTime> first_loss_at(MachineId machine) const;
  };

  /// The machines whose copy of one item persists to the end of the run:
  /// its original sources and the destinations that received it. select()
  /// marks them in a per-machine buffer, so each copy tests in O(1) instead
  /// of scanning the item's requests.
  class PermanentMachines {
   public:
    explicit PermanentMachines(std::size_t machine_count) : marked_(machine_count, false) {}
    void select(const TrackedItem& item);
    bool contains(MachineId machine) const { return marked_[machine.index()]; }

   private:
    std::vector<bool> marked_;
    std::vector<MachineId> selected_;  ///< the marked machines, to unmark
  };

  /// The earliest committed and the earliest planned arrival of an item at
  /// one destination.
  struct DestinationArrival {
    MachineId destination;
    SimTime committed = SimTime::infinity();
    SimTime planned = SimTime::infinity();
  };

  /// A transfer with its physical link resolved. Virtual-link ids in planned
  /// steps refer to the *residual* scenario of the replan that produced
  /// them; the physical id is the stable cross-replan identity. finish()
  /// remaps steps onto the effective scenario's virtual links.
  struct PlannedStep {
    CommStep step;
    PhysLinkId phys;
  };

  const TrackedRequest& tracked(RequestRef request) const;
  /// Moves every planned step starting before `now` to committed_.
  void commit_started(SimTime now);
  /// Sets now_; a new instant clips the residual links differently and
  /// runs garbage collection. commit_started(now) must run first: at an
  /// unchanged instant it commits nothing new, so nothing is left to collect.
  void set_now(SimTime now);
  void note_arrival(TrackedItem& item, MachineId machine, SimTime arrival);
  /// Applies a copy-loss fault: destroys the copy present at `machine` (if
  /// any), records the loss mark, and re-opens requests the lost copy had
  /// satisfied whose deadline still admits a re-delivery.
  void apply_copy_loss(TrackedItem& item, MachineId machine);
  void bump(const char* counter) const;
  /// The attached trace, or nullptr when tracing is off.
  obs::RunTrace* trace() const;
  /// Emits a `requeue` trace event: a fault re-opened request (`item`,
  /// destination) for reason "link_outage" / "link_degrade" / "copy_loss".
  void trace_requeue(const TrackedItem& item, const Request& request,
                     const char* reason) const;
  void run_garbage_collection();
  /// The gc rule for one item at now_: once its gc time has passed, only
  /// its permanent copies stay. `permanent` is a reused buffer.
  void collect_relays(TrackedItem& item, PermanentMachines& permanent);
  /// The residual's virtual links (see the header note), ordered by physical
  /// link, then window begin.
  void build_residual_links(std::vector<VirtualLink>& links) const;
  /// The residual's items (every tracked item, its surviving copies as
  /// sources, its outstanding requests) and the storage their sources charge,
  /// into reused buffers.
  void build_residual_items(std::vector<DataItem>& items,
                            std::vector<StorageTimeline>& storage) const;
  /// Whether `item`'s relay `copy`, which the world holds until `gc`, can be
  /// held until `until`: the extension checked against the world's storage.
  bool relay_holds(const TrackedItem& item, const Copy& copy, SimTime gc, SimTime until);
  /// Marks parts of the residual world out of date.
  void stale_world(bool links, bool items);
  void note_world_patch();
  /// Re-runs the heuristic on the residual world. `watched` (a handle) is
  /// the request a NewRequestEvent just added: the engine watches it, and
  /// when the watch holds its withdrawal may keep the plan.
  void replan(std::optional<RequestRef> watched = std::nullopt);
  /// Serves the withdrawal of plan_serves_without_ by the current plan: a
  /// replan that runs no engine.
  void keep_plan();
  /// Emits the `replan` trace event; `served_by` is "engine_run" or
  /// "kept_plan".
  void trace_replan(const char* served_by);
  /// Rebuilds arrivals_ from committed_ and plan_.
  void index_arrivals();
  /// `reason` labels the requeue trace events ("link_outage"/"link_degrade").
  void fail_in_flight(PhysLinkId link, const char* reason);
  /// True while `link` is down: its last down period is still open.
  bool link_down(PhysLinkId link) const;
  /// Re-derives an item's copy set from its original sources and the
  /// committed transfers whose copies neither a copy loss nor garbage
  /// collection destroyed, then re-resolves any unresolved request whose
  /// destination turns out to hold a copy. Used after in-flight failures,
  /// which can invalidate incremental bookkeeping.
  void rebuild_copies(ItemId item);
  TrackedItem* find_item(const std::string& name);
  const TrackedItem* find_item(const std::string& name) const;
  /// Registers items_.back() in by_name_.
  void index_last_item();
  /// The attached phase timer, or nullptr.
  obs::PhaseTimer* phases() const;

  // --- immutable world structure ---
  Scenario base_;  ///< machines, phys links, ORIGINAL windows, gamma, horizon
  /// Indices into base_.virt_links by (physical link, window begin): the
  /// order of the residual's virtual links.
  std::vector<std::size_t> base_link_order_;

  // --- evolving world state ---
  SimTime now_ = SimTime::zero();
  /// Down time per physical link: [outage, restore) per outage, [outage, ∞)
  /// while down. Adjacent periods stay apart: the last begins at the latest
  /// outage.
  std::vector<IntervalSet> down_;
  /// Bandwidth degradation windows announced so far (all links, appended in
  /// event order). residual_scenario and effective_scenario split link
  /// windows into fragments carrying the degraded rate.
  std::vector<LinkDegradation> degradations_;
  std::vector<TrackedItem> items_;
  /// Indices into items_, sorted by (name, index): find_item's lookup. The
  /// first item of a name wins (validation allows duplicate names).
  std::vector<std::size_t> by_name_;

  // --- schedule state ---
  std::vector<PlannedStep> committed_;
  std::vector<PlannedStep> plan_;  ///< not yet started, replaced on replan
  /// Per item, one entry per destination of a committed or planned step:
  /// planned_arrival's lookup, rebuilt by replan(). Between replans only
  /// commit_started moves steps from plan_ to committed_ (fail_in_flight is
  /// always followed by a replan); an entry's `planned` may then name a
  /// started step, but that step resolved every request at its destination,
  /// so no pending request reads it.
  std::vector<std::vector<DestinationArrival>> arrivals_;

  SchedulerSpec spec_;
  EngineOptions options_;

  // --- residual world and the engine that replans it ---
  /// Heap-held, like the engine, whose pointers into it survive a move of
  /// the stager.
  std::unique_ptr<ResidualWorld> world_;
  bool world_links_current_ = false;  ///< virt_links and topology
  bool world_items_current_ = false;  ///< items and storage
  /// Created by the first replan, reset onto the world by later ones.
  std::unique_ptr<StagingEngine> engine_;
  std::size_t topology_builds_ = 0;
  std::size_t residual_builds_ = 0;
  std::size_t world_patches_ = 0;
  ReplayCounts replay_counts_;
  /// The request (a handle) whose withdrawal the current plan serves as is:
  /// the last replan watched it and its watch held. Any later event or
  /// clock move clears it.
  std::optional<RequestRef> plan_serves_without_;
  std::size_t withdrawals_kept_plan_ = 0;
  std::size_t shadow_refreshes_ = 0;
  std::size_t gc_extensions_refused_ = 0;

  std::size_t replans_ = 0;
  bool finished_ = false;
};

}  // namespace datastage
