#include "serve/scheduler_service.hpp"

#include <utility>

#include "obs/event_names.hpp"
#include "obs/observer.hpp"
#include "serve/admission.hpp"
#include "util/assert.hpp"

namespace datastage {

namespace {

/// Latency histogram bounds in microseconds: sub-millisecond buckets for the
/// quick path, up to a second for heavyweight replans.
std::vector<double> decision_usec_bounds() {
  return {50.0,    100.0,   250.0,   500.0,    1000.0,    2500.0,   5000.0,
          10000.0, 25000.0, 50000.0, 100000.0, 250000.0, 1000000.0};
}

}  // namespace

const char* admission_outcome_name(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return "admitted";
    case AdmissionOutcome::kAlreadySatisfied:
      return "already_satisfied";
    case AdmissionOutcome::kQuickReject:
      return "quick_reject";
    case AdmissionOutcome::kFullReject:
      return "full_reject";
    case AdmissionOutcome::kInvalidItem:
      return "invalid_item";
  }
  return "unknown";
}

SchedulerService::SchedulerService(Scenario initial, ServiceOptions options)
    : stager_(initial, options.spec, options.engine),
      spec_(options.spec),
      engine_(options.engine),
      latency_budget_usec_(options.latency_budget_usec),
      quick_admission_(options.quick_admission),
      weighting_(options.engine.weighting),
      fault_events_(std::move(options.fault_events)) {
  sort_staging_events(fault_events_);
  for (const StagingEvent& event : fault_events_) {
    DS_ASSERT_MSG(!std::holds_alternative<NewItemEvent>(event.body) &&
                      !std::holds_alternative<NewRequestEvent>(event.body) &&
                      !std::holds_alternative<CancelRequestEvent>(event.body),
                  "service fault stream must hold fault events only; requests "
                  "go through submit()/cancel()");
  }
  // The initial scenario's batch requests are the ledger's time-zero cohort:
  // they were "admitted" by accepting the scenario.
  for (std::size_t i = 0; i < initial.items.size(); ++i) {
    for (std::size_t k = 0; k < initial.items[i].requests.size(); ++k) {
      ledger_.push_back(
          {ItemId(static_cast<std::int32_t>(i)), static_cast<std::int32_t>(k)});
    }
  }
}

void SchedulerService::bump(const char* counter) const {
  if (engine_.observer != nullptr && engine_.observer->metrics != nullptr) {
    engine_.observer->metrics->counter(counter).inc();
  }
}

obs::RunTrace* SchedulerService::trace() const {
  return engine_.observer != nullptr ? engine_.observer->trace : nullptr;
}

obs::PhaseTimer* SchedulerService::phases() const {
  return engine_.observer != nullptr ? engine_.observer->phases : nullptr;
}

void SchedulerService::record_latency(std::int64_t nanos) const {
  if (engine_.observer == nullptr || engine_.observer->metrics == nullptr) {
    return;
  }
  const double usec = static_cast<double>(nanos) / 1000.0;
  engine_.observer->metrics
      ->histogram("admission.decision_usec", decision_usec_bounds())
      .observe(usec);
  if (latency_budget_usec_ > 0 &&
      usec > static_cast<double>(latency_budget_usec_)) {
    engine_.observer->metrics->counter("admission.budget_overruns").inc();
  }
}

void SchedulerService::drain_faults_and_advance(SimTime t) {
  while (next_fault_ < fault_events_.size() &&
         fault_events_[next_fault_].at <= t) {
    stager_.on_event(fault_events_[next_fault_]);
    ++next_fault_;
  }
  if (t > stager_.now()) stager_.advance_to(t);
}

double SchedulerService::committed_value() const {
  const obs::ScopedTimer timer(phases(), "serve.ledger");
  double value = 0.0;
  for (const RequestRef admitted : ledger_) {
    const Request& request = stager_.request(admitted);
    switch (stager_.request_status(admitted)) {
      case DynamicRequestStatus::kSatisfied:
        value += weighting_.weight(request.priority);
        break;
      case DynamicRequestStatus::kPending:
        if (stager_.planned_arrival(admitted) <= request.deadline) {
          value += weighting_.weight(request.priority);
        }
        break;
      default:
        break;
    }
  }
  return value;
}

QuickEstimate SchedulerService::quick_estimate(const SubmitRequest& submit) {
  const ResidualWorld& world = stager_.residual_world();
  const obs::ScopedTimer timer(phases(), "serve.quick_check");
  if (submit.new_item.has_value()) {
    // A brand-new item is checked with the item appended to a copy of the
    // world; a quick reject then simply never introduces it.
    Scenario probed = world.scenario;
    std::vector<StorageTimeline> storage = world.storage;
    append_probe_item(probed, storage, *submit.new_item);
    // The first item of the name, as the lookup by name finds it.
    ItemId item = stager_.item_id(submit.item_name);
    if (!item.valid() && probed.items.back().name == submit.item_name) {
      item = ItemId(static_cast<std::int32_t>(probed.items.size() - 1));
    }
    const NetworkState pristine(probed, storage);
    return quick_admission_estimate(pristine, world.topology, item, submit.request,
                                    weighting_);
  }
  if (quick_state_.has_value()) {
    quick_state_->reset(world.scenario, world.storage);
  } else {
    quick_state_.emplace(world.scenario, world.storage);
  }
  return quick_admission_estimate(*quick_state_, world.topology,
                                  stager_.item_id(submit.item_name), submit.request,
                                  weighting_);
}

AdmissionDecision SchedulerService::submit(const SubmitRequest& submit) {
  DS_ASSERT_MSG(!finished_, "submit after finish");
  DS_ASSERT_MSG(submit.at >= now(), "submits must arrive in time order");
  const std::int64_t start_nanos = steady_clock_nanos();
  drain_faults_and_advance(submit.at);

  AdmissionDecision decision;
  // The resource trackers assert, rather than check, that a new item's
  // copies fit; copies committed by now charge storage too.
  if (submit.new_item.has_value() &&
      !new_item_sources_fit(stager_.residual_world().storage, *submit.new_item)) {
    decision.outcome = AdmissionOutcome::kInvalidItem;
    return decision;
  }
  ++counts_.submits;
  bump("admission.submits");

  // Stage 1: quick estimate on the residual world.
  if (quick_admission_) {
    decision.quick_checked = true;
    bump("admission.quick_checks");
    const QuickEstimate estimate = quick_estimate(submit);
    decision.quick_feasible = estimate.feasible;
    decision.quick_arrival = estimate.earliest_arrival;
    if (!estimate.feasible) {
      decision.outcome = AdmissionOutcome::kQuickReject;
      ++counts_.quick_rejects;
      bump("admission.quick_rejects");
      finish_decision(decision, submit, start_nanos);
      return decision;
    }
  }

  // Stage 2: inject the request and let the stager replan the residual.
  const std::size_t replans_before = stager_.replans();
  if (submit.new_item.has_value()) {
    DataItem item = *submit.new_item;
    item.requests.clear();
    stager_.on_event({submit.at, NewItemEvent{std::move(item)}});
  }
  stager_.on_event(
      {submit.at, NewRequestEvent{submit.item_name, submit.request}});
  decision.request = stager_.newest_request(stager_.item_id(submit.item_name));

  switch (stager_.request_status(decision.request)) {
    case DynamicRequestStatus::kSatisfied:
      // Resolved instantly: the destination already held a usable copy.
      decision.outcome = AdmissionOutcome::kAlreadySatisfied;
      decision.planned_arrival = stager_.planned_arrival(decision.request);
      ++counts_.admitted;
      ++counts_.already_satisfied;
      bump("admission.admitted");
      bump("admission.already_satisfied");
      ledger_.push_back(decision.request);
      break;
    case DynamicRequestStatus::kPending: {
      const SimTime arrival = stager_.planned_arrival(decision.request);
      if (arrival <= submit.request.deadline) {
        decision.outcome = AdmissionOutcome::kAdmitted;
        decision.planned_arrival = arrival;
        ++counts_.admitted;
        bump("admission.admitted");
        ledger_.push_back(decision.request);
        break;
      }
      // The full replan cannot meet the deadline: withdraw the request at
      // the same instant so a reject leaves no outstanding work behind.
      stager_.on_event({submit.at, CancelRequestEvent{submit.item_name,
                                                      submit.request.destination,
                                                      decision.request.k}});
      decision.outcome = AdmissionOutcome::kFullReject;
      ++counts_.full_rejects;
      bump("admission.full_rejects");
      break;
    }
    default:
      // Resolved instantly as unsatisfied (e.g. the destination holds a copy
      // that arrived too late). Closed — nothing to withdraw.
      decision.outcome = AdmissionOutcome::kFullReject;
      ++counts_.full_rejects;
      bump("admission.full_rejects");
      break;
  }
  decision.replans = stager_.replans() - replans_before;
  finish_decision(decision, submit, start_nanos);
  return decision;
}

void SchedulerService::finish_decision(AdmissionDecision& decision,
                                       const SubmitRequest& submit,
                                       std::int64_t start_nanos) {
  decision.committed_value = committed_value();
  decision.decision_nanos = steady_clock_nanos() - start_nanos;
  record_latency(decision.decision_nanos);
  if (trace() != nullptr) {
    auto event = trace()->event(obs::events::kAdmission);
    event.field("t_usec", submit.at.usec())
        .field("item", submit.item_name)
        .field("dest", static_cast<std::int64_t>(
                           submit.request.destination.value()))
        .field("deadline_usec", submit.request.deadline.usec())
        .field("outcome", admission_outcome_name(decision.outcome))
        .field("quick_checked", decision.quick_checked)
        .field("quick_feasible", decision.quick_feasible)
        .field("replans", static_cast<std::int64_t>(decision.replans))
        .field("committed_value", decision.committed_value);
    if (!decision.planned_arrival.is_infinite()) {
      event.field("planned_arrival_usec", decision.planned_arrival.usec());
    }
  }
}

bool SchedulerService::cancel(RequestRef request, SimTime at) {
  DS_ASSERT_MSG(!finished_, "cancel after finish");
  DS_ASSERT_MSG(at >= now(), "cancels must arrive in time order");
  drain_faults_and_advance(at);
  const std::string& item_name = stager_.item_name(request.item);
  const MachineId destination = stager_.request(request).destination;
  const bool outstanding = stager_.request_status(request) == DynamicRequestStatus::kPending;
  if (outstanding) {
    stager_.on_event({at, CancelRequestEvent{item_name, destination, request.k}});
    ++counts_.cancelled;
    bump("admission.cancelled");
  }
  if (trace() != nullptr) {
    trace()
        ->event(obs::events::kCancel)
        .field("t_usec", at.usec())
        .field("item", item_name)
        .field("dest", static_cast<std::int64_t>(destination.value()))
        .field("withdrawn", outstanding);
  }
  return outstanding;
}

void SchedulerService::advance_to(SimTime t) {
  DS_ASSERT_MSG(!finished_, "advance after finish");
  DS_ASSERT_MSG(t >= now(), "time must be nondecreasing");
  drain_faults_and_advance(t);
}

ServiceSnapshot SchedulerService::snapshot() const {
  ServiceSnapshot snap = counts_;
  snap.now = stager_.now();
  snap.replans = stager_.replans();
  snap.committed_steps = stager_.committed_step_count();
  snap.planned_steps = stager_.planned_step_count();
  snap.committed_value = committed_value();
  snap.topology_builds = stager_.topology_builds();
  snap.residual_builds = stager_.residual_builds();
  snap.world_patches = stager_.world_patches();
  snap.replay = stager_.replay_counts();
  snap.withdrawals_kept_plan = stager_.withdrawals_kept_plan();
  snap.shadow_refreshes = stager_.shadow_refreshes();
  if (const obs::PhaseTimer* timer = phases()) {
    std::array<double, kServePhases.size()> seconds{};
    for (std::size_t p = 0; p < kServePhases.size(); ++p) {
      seconds[p] = timer->seconds(kServePhases[p]);
    }
    snap.phase_seconds = seconds;
  }
  return snap;
}

DynamicResult SchedulerService::finish() {
  DS_ASSERT_MSG(!finished_, "finish called twice");
  // Remaining scheduled faults are part of the world even if no command ever
  // advanced past them.
  while (next_fault_ < fault_events_.size()) {
    stager_.on_event(fault_events_[next_fault_]);
    ++next_fault_;
  }
  finished_ = true;
  quick_state_.reset();
  return stager_.finish();
}

}  // namespace datastage
