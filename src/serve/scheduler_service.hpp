// Session-oriented scheduling facade: the open-world API behind
// datastage_serve.
//
// The batch surface (core run_case()/StagingEngine) answers one closed
// question — "given every request up front, what is the best schedule?".
// SchedulerService holds a *live* DynamicStager and answers the open-world
// questions a long-running daemon faces instead:
//
//   submit(r)    -> AdmissionDecision   admit/reject now, with a plan summary
//                                       and the request's handle
//   cancel(h, t) -> withdrew an outstanding request
//   advance_to(t)                       simulation time passes
//   snapshot()   -> ServiceSnapshot     aggregate serving state
//   finish()     -> DynamicResult       merged schedule + request records
//
// A submit that introduces a new item whose sources do not fit their
// machines' storage at its instant is refused (kInvalidItem) before either
// stage. Admission is two-stage (the RCD idea: decide cheaply, schedule
// fully only for plausible work):
//   1. quick estimate — one deadline-pruned Dijkstra on the residual
//      scenario ("alone in the system", serve/admission.hpp). Infeasible
//      here means infeasible, full stop: reject without touching the plan.
//   2. full replan — inject the request into the stager, which schedules the
//      residual problem from scratch, and admit iff the new plan delivers
//      this request by its deadline (DynamicStager::planned_arrival of its
//      handle). A request the plan cannot serve on time is withdrawn again
//      (cancel event at the same instant), so a rejected submit leaves no
//      outstanding work behind. When the replan never used the request, the
//      stager serves the withdrawal by keeping that plan, without a second
//      engine run (StagingEngine::watch).
//
// Every admitted request enters the ledger by its handle, so
// committed_value sums each admitted request once, by its own status.
//
// One residual world per submit: stage 1 reads the stager's residual world
// (DynamicStager::residual_world(): the residual Scenario, its Topology and
// its storage timelines, built at most once per submit) through a reused
// NetworkState that adopts those timelines. Stage 2 patches the same world
// with the request, and the withdrawal patches the request out again; the
// world is rebuilt only when the stager's rules say a patch would not be
// exact (dynamic/stager.hpp).
//
// Determinism contract: decisions are pure functions of (initial scenario,
// command/fault history). Wall-clock decision latency is *measured* (metrics
// histogram admission.decision_usec) but never feeds a decision or a
// decision-log field.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "dynamic/events.hpp"
#include "dynamic/stager.hpp"
#include "model/scenario.hpp"
#include "net/network_state.hpp"
#include "serve/admission.hpp"
#include "util/time.hpp"

namespace datastage {

struct ServiceOptions {
  SchedulerSpec spec{HeuristicKind::kFullOne, CostCriterion::kC4};
  EngineOptions engine;
  /// Soft wall-clock budget per submit decision, in microseconds. Decisions
  /// exceeding it bump admission.budget_overruns (the decision still
  /// completes — the budget is an SLO, not a timeout). 0 disables.
  std::int64_t latency_budget_usec = 0;
  /// Run the quick estimate before the full replan. Off, every submit pays
  /// for a replan even when it is hopeless (the ablation perf_serve measures).
  bool quick_admission = true;
  /// Fault events to interleave with the request stream, sorted by
  /// (time, staging_event_rank): at equal timestamps faults apply before
  /// request arrivals, so a submit at t sees the post-fault world.
  std::vector<StagingEvent> fault_events;
};

enum class AdmissionOutcome {
  kAdmitted,          ///< plan commits to an on-time delivery
  kAlreadySatisfied,  ///< destination already holds a usable copy
  kQuickReject,       ///< stage 1: infeasible even alone in the system
  kFullReject,        ///< stage 2: the full replan cannot meet the deadline
  kInvalidItem,       ///< the new item's sources do not fit their machines
};

const char* admission_outcome_name(AdmissionOutcome outcome);

/// The phases a submit decision is split into when a phase timer is
/// attached (obs::PhaseTimer names). They never nest, so their sum is the
/// attributed part of the decision time (docs/OBSERVABILITY.md).
inline constexpr std::array<const char*, 4> kServePhases{
    "serve.quick_check", "dynamic.residual_build", "dynamic.replan", "serve.ledger"};

struct AdmissionDecision {
  AdmissionOutcome outcome = AdmissionOutcome::kFullReject;
  /// Stage 1 ran (quick_admission on and the submit reached it).
  bool quick_checked = false;
  bool quick_feasible = false;
  /// Stage 1's alone-in-the-system arrival bound (infinity if infeasible).
  SimTime quick_arrival = SimTime::infinity();
  /// The arrival the committed plan promises (for kAdmitted /
  /// kAlreadySatisfied); infinity on rejects.
  SimTime planned_arrival = SimTime::infinity();
  /// The request's handle in the stager once stage 2 added it (admitted,
  /// already satisfied or full reject); invalid otherwise.
  RequestRef request;
  /// Replans this decision consumed (0 for quick rejects).
  std::size_t replans = 0;
  /// Weighted value the plan currently locks in across every admitted
  /// request (satisfied already, or planned to arrive by deadline).
  double committed_value = 0.0;
  /// Wall-clock decision latency. Measurement only: it feeds the latency
  /// histogram and must never appear in a decision log (determinism).
  std::int64_t decision_nanos = 0;

  bool admitted() const {
    return outcome == AdmissionOutcome::kAdmitted ||
           outcome == AdmissionOutcome::kAlreadySatisfied;
  }
};

struct SubmitRequest {
  SimTime at = SimTime::zero();
  std::string item_name;
  Request request;
  /// Present for a submit that introduces a brand-new item (name, size,
  /// sources; any requests on the payload are ignored). On a quick reject
  /// the item is *not* introduced; on a full reject it is (its copies
  /// exist), but the request is withdrawn.
  std::optional<DataItem> new_item;
};

struct ServiceSnapshot {
  SimTime now = SimTime::zero();
  std::size_t submits = 0;
  std::size_t admitted = 0;  ///< includes already-satisfied
  std::size_t quick_rejects = 0;
  std::size_t full_rejects = 0;
  std::size_t already_satisfied = 0;
  std::size_t cancelled = 0;
  std::size_t replans = 0;
  std::size_t committed_steps = 0;
  std::size_t planned_steps = 0;
  double committed_value = 0.0;
  /// Residual world work (deterministic): topologies built, full builds of
  /// the residual items and timelines, and replans served from a patched
  /// world instead (DynamicStager).
  std::size_t topology_builds = 0;
  std::size_t residual_builds = 0;
  std::size_t world_patches = 0;
  /// Engine rebuilds served by replaying the previous replan's trees, and
  /// the Dijkstra runs replay could not serve by reason (deterministic).
  ReplayCounts replay;
  /// Full-reject withdrawals served by keeping the submit replan's plan
  /// without an engine run, and the shadow-plan refreshes that watching the
  /// submitted requests cost (deterministic; DynamicStager).
  std::size_t withdrawals_kept_plan = 0;
  std::size_t shadow_refreshes = 0;
  /// Requests refused at arrival because a relay copy of their item could
  /// not be held to the later gc time their deadline sets; answered as full
  /// rejects (deterministic; DynamicStager).
  std::size_t gc_extensions_refused = 0;
  /// Wall seconds per kServePhases entry, in that order; present only when
  /// a phase timer is attached. Measurement only, never deterministic.
  std::optional<std::array<double, kServePhases.size()>> phase_seconds;
};

class SchedulerService {
 public:
  /// Starts at time zero on `initial` (validated); its batch requests count
  /// as admitted at t=0. `options.engine.observer` receives the admission
  /// counters/histogram and `admission`/`cancel` trace events.
  SchedulerService(Scenario initial, ServiceOptions options);

  /// Decides one request at submit.at (>= now(); time advances to it).
  AdmissionDecision submit(const SubmitRequest& submit);

  /// Withdraws `request` (an AdmissionDecision::request) at time `at`.
  /// False (and no replan) when it is not outstanding.
  bool cancel(RequestRef request, SimTime at);

  /// Advances the clock, applying any scheduled fault events on the way.
  void advance_to(SimTime t);

  /// Lifecycle state and arrival of one request (DynamicStager's
  /// per-handle queries).
  DynamicRequestStatus request_status(RequestRef request) const {
    return stager_.request_status(request);
  }
  SimTime planned_arrival(RequestRef request) const {
    return stager_.planned_arrival(request);
  }

  /// The name-keyed queries (DynamicStager): the status of the most recent
  /// request for (item, destination), and any committed or planned arrival
  /// of the item there.
  DynamicRequestStatus request_status(const std::string& item_name,
                                      MachineId destination) const {
    return stager_.request_status(item_name, destination);
  }
  SimTime planned_arrival(const std::string& item_name, MachineId destination) const {
    return stager_.planned_arrival(item_name, destination);
  }

  bool has_item(const std::string& item_name) const { return stager_.has_item(item_name); }

  ServiceSnapshot snapshot() const;
  /// The planned steps not started yet (DynamicStager::planned_steps).
  std::vector<CommStep> planned_steps() const { return stager_.planned_steps(); }

  /// Applies all remaining fault events and closes the run.
  DynamicResult finish();

  SimTime now() const { return stager_.now(); }

 private:
  /// Applies scheduled fault events with at <= t (faults order before the
  /// request events of the same instant), then advances the stager clock.
  void drain_faults_and_advance(SimTime t);
  /// Stamps value/latency onto a finished decision, records metrics and
  /// emits the `admission` trace event.
  void finish_decision(AdmissionDecision& decision, const SubmitRequest& submit,
                       std::int64_t start_nanos);
  double committed_value() const;
  /// Stage 1 on the stager's residual world.
  QuickEstimate quick_estimate(const SubmitRequest& submit);
  void bump(const char* counter) const;
  obs::RunTrace* trace() const;
  obs::PhaseTimer* phases() const;
  void record_latency(std::int64_t nanos) const;

  DynamicStager stager_;
  SchedulerSpec spec_;
  EngineOptions engine_;
  std::int64_t latency_budget_usec_ = 0;
  bool quick_admission_ = true;
  PriorityWeighting weighting_;

  std::vector<StagingEvent> fault_events_;
  std::size_t next_fault_ = 0;

  /// Every admitted request; committed_value() re-evaluates each against
  /// the live plan (a fault can un-commit what a submit once locked in).
  std::vector<RequestRef> ledger_;
  /// Stage 1's pristine state, reset onto each residual world.
  std::optional<NetworkState> quick_state_;
  ServiceSnapshot counts_;  ///< now/replans/steps filled in snapshot()
  bool finished_ = false;
};

}  // namespace datastage
