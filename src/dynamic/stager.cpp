#include "dynamic/stager.hpp"

#include <algorithm>

#include "obs/observer.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace datastage {

double DynamicResult::weighted_value(const PriorityWeighting& weighting) const {
  double total = 0.0;
  for (const DynamicRequestRecord& record : requests) {
    if (record.satisfied) total += weighting.weight(record.priority);
  }
  return total;
}

std::size_t DynamicResult::satisfied_count() const {
  std::size_t n = 0;
  for (const DynamicRequestRecord& record : requests) {
    if (record.satisfied) ++n;
  }
  return n;
}

bool DynamicStager::TrackedItem::machine_holds(MachineId machine) const {
  return std::any_of(copies.begin(), copies.end(),
                     [machine](const Copy& c) { return c.machine == machine; });
}

bool DynamicStager::TrackedItem::is_original_source(MachineId machine) const {
  return std::any_of(
      original_sources.begin(), original_sources.end(),
      [machine](const SourceLocation& s) { return s.machine == machine; });
}

bool DynamicStager::TrackedItem::is_destination(MachineId machine) const {
  return std::any_of(
      requests.begin(), requests.end(),
      [machine](const TrackedRequest& r) { return r.request.destination == machine; });
}

bool DynamicStager::TrackedItem::any_outstanding() const {
  return std::any_of(requests.begin(), requests.end(),
                     [](const TrackedRequest& r) { return !r.resolved; });
}

SimTime DynamicStager::TrackedItem::latest_outstanding_deadline() const {
  SimTime latest = SimTime::zero();
  for (const TrackedRequest& r : requests) {
    if (!r.resolved) latest = max(latest, r.request.deadline);
  }
  return latest;
}

SimTime DynamicStager::TrackedItem::latest_known_deadline() const {
  SimTime latest = SimTime::zero();
  for (const TrackedRequest& r : requests) {
    latest = max(latest, r.request.deadline);
  }
  return latest;
}

std::optional<SimTime> DynamicStager::TrackedItem::last_loss_at(
    MachineId machine) const {
  std::optional<SimTime> latest;
  for (const LossMark& loss : losses) {
    if (loss.machine != machine) continue;
    if (!latest.has_value() || loss.at > *latest) latest = loss.at;
  }
  return latest;
}

std::optional<SimTime> DynamicStager::TrackedItem::first_loss_at(
    MachineId machine) const {
  std::optional<SimTime> earliest;
  for (const LossMark& loss : losses) {
    if (loss.machine != machine) continue;
    if (!earliest.has_value() || loss.at < *earliest) earliest = loss.at;
  }
  return earliest;
}

void DynamicStager::bump(const char* counter) const {
  if (options_.observer != nullptr && options_.observer->metrics != nullptr) {
    options_.observer->metrics->counter(counter).inc();
  }
}

obs::RunTrace* DynamicStager::trace() const {
  return options_.observer != nullptr ? options_.observer->trace : nullptr;
}

void DynamicStager::trace_requeue(const TrackedItem& item, const Request& request,
                                  const char* reason) const {
  if (trace() == nullptr) return;
  trace()->event("requeue")
      .field("t_usec", now_.usec())
      .field("item", item.name)
      .field("dest", request.destination.value())
      .field("deadline_usec", request.deadline.usec())
      .field("reason", reason);
}

DynamicStager::DynamicStager(Scenario initial, SchedulerSpec spec,
                             EngineOptions options)
    : base_(std::move(initial)), spec_(spec), options_(std::move(options)) {
  base_.check_valid();

  const std::size_t engine_jobs = options_.engine_jobs == 0
                                      ? ThreadPool::hardware_jobs()
                                      : options_.engine_jobs;
  if (options_.engine_pool == nullptr && engine_jobs > 1) {
    engine_pool_ = std::make_unique<ThreadPool>(engine_jobs);
    options_.engine_pool = engine_pool_.get();
  }

  available_.resize(base_.phys_links.size());
  outages_.resize(base_.phys_links.size());
  link_up_.assign(base_.phys_links.size(), true);
  outage_since_.assign(base_.phys_links.size(), SimTime::zero());
  consumed_.resize(base_.phys_links.size());
  for (const VirtualLink& vl : base_.virt_links) {
    available_[vl.phys.index()].insert_disjoint(vl.window);
  }

  items_.reserve(base_.items.size());
  for (const DataItem& item : base_.items) {
    TrackedItem tracked;
    tracked.name = item.name;
    tracked.size_bytes = item.size_bytes;
    tracked.original_sources = item.sources;
    for (const SourceLocation& src : item.sources) {
      tracked.copies.push_back(Copy{src.machine, src.available_at});
    }
    for (const Request& request : item.requests) {
      tracked.requests.push_back(TrackedRequest{request, false, false,
                                                SimTime::infinity()});
    }
    items_.push_back(std::move(tracked));
  }

  replan();
}

DynamicStager::~DynamicStager() = default;  // engine_pool_ needs the full type

void DynamicStager::note_arrival(TrackedItem& item, MachineId machine,
                                 SimTime arrival) {
  for (TrackedRequest& tracked : item.requests) {
    if (tracked.request.destination != machine || tracked.resolved) continue;
    tracked.arrival = min(tracked.arrival, arrival);
    tracked.resolved = true;  // the destination now holds a copy: closed
    tracked.satisfied = arrival <= tracked.request.deadline;
  }
}

void DynamicStager::commit_started(SimTime now) {
  std::vector<PlannedStep> remaining;
  for (const PlannedStep& planned : plan_) {
    const CommStep& step = planned.step;
    if (step.start >= now) {
      remaining.push_back(planned);
      continue;
    }
    committed_.push_back(planned);
    const Interval busy{step.start, step.arrival};
    available_[planned.phys.index()].subtract(busy);
    consumed_[planned.phys.index()].insert_merge(busy);

    TrackedItem& item = items_[step.item.index()];
    bool updated = false;
    for (Copy& copy : item.copies) {
      if (copy.machine == step.to) {
        copy.available_at = min(copy.available_at, step.arrival);
        updated = true;
        break;
      }
    }
    if (!updated) item.copies.push_back(Copy{step.to, step.arrival});
    note_arrival(item, step.to, step.arrival);
  }
  plan_ = std::move(remaining);
}

bool DynamicStager::copy_is_permanent(const TrackedItem& item,
                                      const Copy& copy) const {
  if (item.is_original_source(copy.machine)) return true;
  for (const TrackedRequest& r : item.requests) {
    if (r.request.destination == copy.machine && !r.arrival.is_infinite()) {
      return true;  // a destination that received the item keeps it
    }
  }
  return false;
}

std::vector<StorageTimeline> DynamicStager::permanent_charge() const {
  std::vector<StorageTimeline> charge;
  charge.reserve(base_.machine_count());
  for (const Machine& machine : base_.machines) {
    charge.emplace_back(machine.capacity_bytes);
  }
  // Every permanent copy was capacity-checked with an infinite hold when it
  // was created, so they always fit together.
  for (const TrackedItem& item : items_) {
    for (const Copy& copy : item.copies) {
      if (!copy_is_permanent(item, copy)) continue;
      const Interval hold{copy.available_at, SimTime::infinity()};
      StorageTimeline& st = charge[copy.machine.index()];
      DS_ASSERT_MSG(st.fits(item.size_bytes, hold),
                    "permanent copies must always fit");
      st.allocate(item.size_bytes, hold);
    }
  }
  return charge;
}

void DynamicStager::run_garbage_collection() {
  // The static model's rule (§4.4): intermediate copies are removed γ after
  // the latest deadline of the item's requests — here, the latest deadline
  // known at this point in time. Original sources and destinations that
  // received the item keep their copies.
  for (TrackedItem& item : items_) {
    const SimTime gc = item.latest_known_deadline() + base_.gc_gamma;
    if (now_ < gc) continue;
    std::vector<Copy> kept;
    for (const Copy& copy : item.copies) {
      if (copy_is_permanent(item, copy)) kept.push_back(copy);
    }
    item.copies = std::move(kept);
  }
}

Scenario DynamicStager::residual_scenario() const {
  Scenario residual;
  residual.machines = base_.machines;
  residual.phys_links = base_.phys_links;
  residual.horizon = base_.horizon;
  residual.gc_gamma = base_.gc_gamma;

  for (std::size_t p = 0; p < base_.phys_links.size(); ++p) {
    const PhysicalLink& pl = base_.phys_links[p];
    const PhysLinkId link(static_cast<std::int32_t>(p));
    for (const Interval& window : available_[p].intervals()) {
      if (window.end <= now_) continue;
      const Interval clipped{max(window.begin, now_), window.end};
      if (clipped.empty()) continue;
      // Announced brownouts split the window into fragments carrying the
      // degraded rate, so the replan prices transfers at what the link will
      // actually move.
      for (const auto& [frag, bps] :
           degraded_fragments(clipped, pl.bandwidth_bps, link, degradations_)) {
        residual.virt_links.push_back(
            VirtualLink{link, bps, frag});
      }
    }
  }

  // Every tracked item appears (copies charge storage even with nothing
  // outstanding); only outstanding requests are carried over. Permanent
  // copies (original sources, served destinations) hold forever;
  // intermediate copies hold until the item's gc time (latest known deadline
  // + γ). A feasibility pre-pass drops intermediate copies that no longer
  // fit — an ad-hoc request can extend gc windows beyond what was
  // capacity-checked when the copy was staged.
  //
  // Pass 1: permanent copies across all items.
  std::vector<StorageTimeline> charge = permanent_charge();

  // Pass 2: intermediate copies, dropped if they no longer fit.
  for (const TrackedItem& item : items_) {
    DataItem d;
    d.name = item.name;
    d.size_bytes = item.size_bytes;
    const SimTime gc = item.latest_known_deadline() + base_.gc_gamma;
    for (const Copy& copy : item.copies) {
      SourceLocation src{copy.machine, copy.available_at, SimTime::infinity()};
      if (copy_is_permanent(item, copy)) {
        d.sources.push_back(src);
        continue;
      }
      src.hold_until = gc;
      const Interval hold = src.hold_window();
      if (hold.empty()) continue;  // gc already due: the copy is gone
      StorageTimeline& st = charge[copy.machine.index()];
      if (!st.fits(item.size_bytes, hold)) {
        log_debug("dynamic: dropping staged copy of " + item.name +
                  " (gc window grew past capacity)");
        continue;
      }
      st.allocate(item.size_bytes, hold);
      d.sources.push_back(src);
    }
    for (const TrackedRequest& tracked : item.requests) {
      if (!tracked.resolved) d.requests.push_back(tracked.request);
    }
    residual.items.push_back(std::move(d));
  }
  return residual;
}

void DynamicStager::replan() {
  ++replans_;
  run_garbage_collection();
  const Scenario residual = residual_scenario();
  if (options_.observer != nullptr && options_.observer->metrics != nullptr) {
    options_.observer->metrics->counter("dynamic.replans").inc();
  }

  // The residual intentionally relaxes two validation rules (items with no
  // requests; destinations holding copies never coexist with outstanding
  // requests by construction), so it is fed to the engine without
  // check_valid(). The engine only requires structural sanity.
  const StagingResult result = run_spec(spec_, residual, options_);

  plan_.clear();
  for (const CommStep& step : result.schedule.steps()) {
    DS_ASSERT_MSG(step.start >= now_, "replanned transfer in the past");
    // The step's virtual-link id indexes the residual scenario; resolve the
    // stable physical id now (residual physical links mirror the base ones).
    plan_.push_back(PlannedStep{step, residual.vlink(step.link).phys});
  }
  if (options_.observer != nullptr && options_.observer->trace != nullptr) {
    std::size_t residual_requests = 0;
    for (const DataItem& item : residual.items) residual_requests += item.requests.size();
    options_.observer->trace->event("replan")
        .field("replan", replans_)
        .field("t_usec", now_.usec())
        .field("residual_items", residual.items.size())
        .field("residual_requests", residual_requests)
        .field("planned_steps", plan_.size())
        .field("committed_steps", committed_.size());
  }
}

void DynamicStager::advance_to(SimTime now) {
  DS_ASSERT(!finished_);
  DS_ASSERT_MSG(now >= now_, "time must be nondecreasing");
  commit_started(now);
  now_ = now;
}

void DynamicStager::on_event(const StagingEvent& event) {
  DS_ASSERT(!finished_);
  DS_ASSERT_MSG(event.at >= now_, "events must arrive in time order");
  commit_started(event.at);
  now_ = event.at;
  // Apply physical garbage collection *before* the event body: an ad-hoc
  // request must not see (or revive) a copy that expired earlier.
  run_garbage_collection();

  if (const auto* new_item = std::get_if<NewItemEvent>(&event.body)) {
    DS_ASSERT_MSG(find_item(new_item->item.name) == nullptr,
                  "duplicate item name");
    TrackedItem tracked;
    tracked.name = new_item->item.name;
    tracked.size_bytes = new_item->item.size_bytes;
    tracked.original_sources = new_item->item.sources;
    for (const SourceLocation& src : new_item->item.sources) {
      tracked.copies.push_back(
          Copy{src.machine, max(src.available_at, now_)});
    }
    for (const Request& request : new_item->item.requests) {
      tracked.requests.push_back(
          TrackedRequest{request, false, false, SimTime::infinity()});
    }
    items_.push_back(std::move(tracked));
  } else if (const auto* new_request = std::get_if<NewRequestEvent>(&event.body)) {
    TrackedItem* item = find_item(new_request->item_name);
    DS_ASSERT_MSG(item != nullptr, "ad-hoc request for unknown item");
    TrackedRequest tracked{new_request->request, false, false, SimTime::infinity()};
    // If the destination already holds a copy, the request resolves on the
    // spot (the data is there; on time iff it is already usable). Serving it
    // makes the copy a destination copy, held forever: a relayed copy that
    // cannot be held forever next to the permanent copies cannot serve the
    // request, which then closes unsatisfied and leaves the copy transient.
    for (const Copy& copy : item->copies) {
      if (copy.machine != tracked.request.destination) continue;
      tracked.resolved = true;
      if (!copy_is_permanent(*item, copy) &&
          !permanent_charge()[copy.machine.index()].fits(
              item->size_bytes, Interval{copy.available_at, SimTime::infinity()})) {
        continue;
      }
      tracked.arrival = copy.available_at;
      tracked.satisfied = copy.available_at <= tracked.request.deadline;
    }
    item->requests.push_back(tracked);
  } else if (const auto* outage = std::get_if<LinkOutageEvent>(&event.body)) {
    const std::size_t p = outage->link.index();
    DS_ASSERT_MSG(link_up_[p], "outage on a link that is already down");
    link_up_[p] = false;
    outage_since_[p] = now_;
    available_[p].subtract(Interval{now_, SimTime::infinity()});
    fail_in_flight(outage->link, "link_outage");
    bump("faults.outages");
    if (trace() != nullptr) {
      trace()->event("fault")
          .field("kind", "outage")
          .field("t_usec", now_.usec())
          .field("link", outage->link.value());
    }
  } else if (const auto* restore = std::get_if<LinkRestoreEvent>(&event.body)) {
    const std::size_t p = restore->link.index();
    DS_ASSERT_MSG(!link_up_[p], "restore on a link that is up");
    link_up_[p] = true;
    outages_[p].insert_merge(Interval{outage_since_[p], now_});
    rebuild_availability(restore->link);
    bump("faults.restores");
    if (trace() != nullptr) {
      trace()->event("fault")
          .field("kind", "restore")
          .field("t_usec", now_.usec())
          .field("link", restore->link.value())
          .field("down_since_usec", outage_since_[p].usec());
    }
  } else if (const auto* degrade = std::get_if<LinkDegradeEvent>(&event.body)) {
    const std::size_t p = degrade->link.index();
    DS_ASSERT_MSG(p < base_.phys_links.size(), "degrade on unknown link");
    DS_ASSERT_MSG(!degrade->window.empty() && degrade->window.begin == now_,
                  "degradations are announced at their window begin");
    DS_ASSERT_MSG(degrade->factor > 0.0 && degrade->factor < 1.0,
                  "degradation factor must lie in (0, 1)");
    degradations_.push_back(
        LinkDegradation{degrade->link, degrade->window, degrade->factor});
    // In-flight transfers on the link were planned at the nominal rate and
    // no longer complete on time: drop and let the replan re-stage them at
    // the degraded rate. With the link down the availability is already
    // gone and nothing is in flight.
    if (link_up_[p]) {
      fail_in_flight(degrade->link, "link_degrade");
      rebuild_availability(degrade->link);
    }
    bump("faults.degrades");
    if (options_.observer != nullptr && options_.observer->trace != nullptr) {
      options_.observer->trace->event("fault")
          .field("kind", "degrade")
          .field("t_usec", now_.usec())
          .field("link", degrade->link.value())
          .field("until_usec", degrade->window.end.usec());
    }
  } else if (const auto* loss = std::get_if<CopyLossEvent>(&event.body)) {
    TrackedItem* item = find_item(loss->item_name);
    DS_ASSERT_MSG(item != nullptr, "copy loss for unknown item");
    apply_copy_loss(*item, loss->machine);
    bump("faults.copy_losses");
    if (options_.observer != nullptr && options_.observer->trace != nullptr) {
      options_.observer->trace->event("fault")
          .field("kind", "copy_loss")
          .field("t_usec", now_.usec())
          .field("item", loss->item_name)
          .field("machine", loss->machine.value());
    }
  } else if (const auto* cancel = std::get_if<CancelRequestEvent>(&event.body)) {
    // Withdraw the most recently added outstanding request for this (item,
    // destination). Cancelling an unknown or already-resolved request is a
    // no-op — the caller raced a delivery, and the delivered outcome stands.
    TrackedRequest* target = nullptr;
    if (TrackedItem* item = find_item(cancel->item_name)) {
      for (TrackedRequest& tracked : item->requests) {
        if (tracked.request.destination == cancel->destination &&
            !tracked.resolved) {
          target = &tracked;
        }
      }
    }
    if (target != nullptr) {
      target->resolved = true;
      target->satisfied = false;
      target->cancelled = true;
      target->arrival = SimTime::infinity();
      bump("dynamic.cancels");
    } else {
      bump("dynamic.cancel_noops");
    }
    if (trace() != nullptr) {
      trace()->event("cancel")
          .field("t_usec", now_.usec())
          .field("item", cancel->item_name)
          .field("dest", cancel->destination.value())
          .field("outstanding", target != nullptr);
    }
  }

  replan();
}

void DynamicStager::apply_copy_loss(TrackedItem& item, MachineId machine) {
  // Destroy the copy present now; a copy still in flight (available_at in
  // the future) lands after the loss and survives.
  bool destroyed = false;
  std::vector<Copy> kept;
  for (const Copy& copy : item.copies) {
    if (copy.machine == machine && copy.available_at <= now_) {
      destroyed = true;
      continue;
    }
    kept.push_back(copy);
  }
  item.copies = std::move(kept);
  if (!destroyed) {
    bump("faults.copy_losses_noop");
    return;
  }
  item.losses.push_back(LossMark{machine, now_});

  // Re-open requests the lost copy had satisfied, if their delivery window
  // [start, deadline] still admits a re-delivery; a request whose deadline
  // already passed keeps its outcome (the consumer had the data for the
  // whole window). The replan then re-stages with the usual deadline
  // feasibility — an infeasible re-delivery simply stays unsatisfied.
  for (TrackedRequest& tracked : item.requests) {
    if (tracked.request.destination != machine || !tracked.resolved) continue;
    if (tracked.cancelled) continue;  // cancellation is final
    if (tracked.request.deadline < now_) continue;
    tracked.resolved = false;
    tracked.satisfied = false;
    tracked.arrival = SimTime::infinity();
    tracked.requeued = true;
    bump("faults.requeued_requests");
    trace_requeue(item, tracked.request, "copy_loss");
  }
}

void DynamicStager::fail_in_flight(PhysLinkId link, const char* reason) {
  // A transfer in flight on a failing link never completes: drop its step,
  // undo its request resolution, then rebuild the affected items' copy sets
  // from the surviving committed transfers (a destination may still be
  // served by an earlier arrival over a different link).
  std::vector<PlannedStep> kept;
  std::vector<ItemId> affected;
  for (const PlannedStep& planned : committed_) {
    const CommStep& step = planned.step;
    if (planned.phys != link || step.arrival <= now_) {
      kept.push_back(planned);
      continue;
    }
    consumed_[link.index()].subtract(Interval{step.start, step.arrival});
    bump("faults.inflight_dropped");
    TrackedItem& item = items_[step.item.index()];
    for (TrackedRequest& tracked : item.requests) {
      if (tracked.request.destination == step.to &&
          tracked.arrival == step.arrival) {
        tracked.resolved = false;
        tracked.satisfied = false;
        tracked.arrival = SimTime::infinity();
        tracked.requeued = true;
        trace_requeue(item, tracked.request, reason);
      }
    }
    affected.push_back(step.item);
  }
  committed_ = std::move(kept);
  for (const ItemId item : affected) rebuild_copies(item);
}

void DynamicStager::rebuild_copies(ItemId id) {
  TrackedItem& item = items_[id.index()];
  // A candidate copy destroyed by a copy-loss fault must not be resurrected:
  // anything that materialized at or before the machine's latest loss is
  // gone; only later (re-staged) arrivals count.
  const auto survives = [&item](MachineId machine, SimTime available_at) {
    const std::optional<SimTime> lost = item.last_loss_at(machine);
    return !lost.has_value() || available_at > *lost;
  };
  item.copies.clear();
  for (const SourceLocation& src : item.original_sources) {
    if (!survives(src.machine, src.available_at)) continue;
    item.copies.push_back(Copy{src.machine, src.available_at});
  }
  for (const PlannedStep& planned : committed_) {
    if (planned.step.item != id) continue;
    if (!survives(planned.step.to, planned.step.arrival)) continue;
    bool merged = false;
    for (Copy& copy : item.copies) {
      if (copy.machine == planned.step.to) {
        copy.available_at = min(copy.available_at, planned.step.arrival);
        merged = true;
        break;
      }
    }
    if (!merged) item.copies.push_back(Copy{planned.step.to, planned.step.arrival});
  }

  // Re-resolve requests a surviving copy still serves (an earlier delivery
  // over another link may have been shadowed by the failed one).
  for (TrackedRequest& tracked : item.requests) {
    if (tracked.resolved) continue;
    for (const Copy& copy : item.copies) {
      if (copy.machine != tracked.request.destination) continue;
      tracked.resolved = true;
      tracked.arrival = copy.available_at;
      tracked.satisfied = copy.available_at <= tracked.request.deadline;
      break;
    }
  }

  // Apply the gc rule the incremental path would have applied.
  const SimTime gc = item.latest_known_deadline() + base_.gc_gamma;
  if (now_ >= gc) {
    std::vector<Copy> permanent;
    for (const Copy& copy : item.copies) {
      if (copy_is_permanent(item, copy)) permanent.push_back(copy);
    }
    item.copies = std::move(permanent);
  }
}

void DynamicStager::rebuild_availability(PhysLinkId link) {
  // available = original windows − outage periods − consumed busy time.
  IntervalSet rebuilt;
  for (const VirtualLink& vl : base_.virt_links) {
    if (vl.phys != link) continue;
    rebuilt.insert_disjoint(vl.window);
  }
  for (const Interval& outage : outages_[link.index()].intervals()) {
    rebuilt.subtract(outage);
  }
  for (const Interval& busy : consumed_[link.index()].intervals()) {
    rebuilt.subtract(busy);
  }
  available_[link.index()] = std::move(rebuilt);
}

DynamicStager::TrackedItem* DynamicStager::find_item(const std::string& name) {
  for (TrackedItem& item : items_) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

const DynamicStager::TrackedItem* DynamicStager::find_item(
    const std::string& name) const {
  for (const TrackedItem& item : items_) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

DynamicRequestStatus DynamicStager::request_status(
    const std::string& item_name, MachineId destination) const {
  const TrackedItem* item = find_item(item_name);
  if (item == nullptr) return DynamicRequestStatus::kUnknown;
  // The most recently added request for this destination wins: re-submitting
  // after a cancel or an unsatisfied close starts a fresh lifecycle.
  const TrackedRequest* latest = nullptr;
  for (const TrackedRequest& tracked : item->requests) {
    if (tracked.request.destination == destination) latest = &tracked;
  }
  if (latest == nullptr) return DynamicRequestStatus::kUnknown;
  if (latest->cancelled) return DynamicRequestStatus::kCancelled;
  if (!latest->resolved) return DynamicRequestStatus::kPending;
  return latest->satisfied ? DynamicRequestStatus::kSatisfied
                           : DynamicRequestStatus::kUnsatisfied;
}

SimTime DynamicStager::planned_arrival(const std::string& item_name,
                                       MachineId destination) const {
  const TrackedItem* item = find_item(item_name);
  if (item == nullptr) return SimTime::infinity();
  SimTime earliest = SimTime::infinity();
  // A closed request already knows its arrival; an outstanding one is served
  // by the earliest committed or planned step landing at the destination.
  for (const TrackedRequest& tracked : item->requests) {
    if (tracked.request.destination == destination) {
      earliest = min(earliest, tracked.arrival);
    }
  }
  const ItemId id(static_cast<std::int32_t>(item - items_.data()));
  for (const PlannedStep& planned : committed_) {
    if (planned.step.item == id && planned.step.to == destination) {
      earliest = min(earliest, planned.step.arrival);
    }
  }
  for (const PlannedStep& planned : plan_) {
    if (planned.step.item == id && planned.step.to == destination) {
      earliest = min(earliest, planned.step.arrival);
    }
  }
  return earliest;
}

DynamicResult DynamicStager::finish() {
  DS_ASSERT(!finished_);
  finished_ = true;
  commit_started(SimTime::infinity());  // commit the whole remaining plan

  DynamicResult result;
  result.replans = replans_;

  // Remap every committed step onto the effective scenario's virtual links
  // (the same physical link, the surviving window containing the busy
  // interval), so the merged schedule replays against effective_scenario().
  const Scenario effective = effective_scenario();
  for (const PlannedStep& planned : committed_) {
    CommStep step = planned.step;
    const Interval busy{step.start, step.arrival};
    VirtLinkId remapped = VirtLinkId::invalid();
    for (std::size_t v = 0; v < effective.virt_links.size(); ++v) {
      const VirtualLink& vl = effective.virt_links[v];
      if (vl.phys == planned.phys && vl.window.contains(busy)) {
        remapped = VirtLinkId(static_cast<std::int32_t>(v));
        break;
      }
    }
    DS_ASSERT_MSG(remapped.valid(),
                  "committed transfer has no surviving effective window");
    step.link = remapped;
    result.schedule.add(step);
  }
  for (const TrackedItem& item : items_) {
    for (const TrackedRequest& tracked : item.requests) {
      DynamicRequestRecord record;
      record.item_name = item.name;
      record.destination = tracked.request.destination;
      record.deadline = tracked.request.deadline;
      record.priority = tracked.request.priority;
      record.satisfied = tracked.satisfied;
      record.cancelled = tracked.cancelled;
      record.arrival = tracked.arrival;
      result.requests.push_back(std::move(record));
      if (tracked.requeued && tracked.satisfied && trace() != nullptr) {
        // The request survived a fault: it was requeued at least once and a
        // re-staged delivery still met the deadline.
        trace()->event("request_recovered")
            .field("item", item.name)
            .field("dest", tracked.request.destination.value())
            .field("deadline_usec", tracked.request.deadline.usec())
            .field("arrival_usec", tracked.arrival.usec());
      }
      if (tracked.requeued && tracked.satisfied) {
        bump("faults.recovered_requests");
      }
    }
  }
  return result;
}

Scenario DynamicStager::effective_scenario() const {
  Scenario effective;
  effective.machines = base_.machines;
  effective.phys_links = base_.phys_links;
  effective.horizon = base_.horizon;
  effective.gc_gamma = base_.gc_gamma;

  for (const VirtualLink& vl : base_.virt_links) {
    IntervalSet windows;
    windows.insert_disjoint(vl.window);
    for (const Interval& outage : outages_[vl.phys.index()].intervals()) {
      windows.subtract(outage);
    }
    if (!link_up_[vl.phys.index()]) {
      windows.subtract(Interval{outage_since_[vl.phys.index()], SimTime::infinity()});
    }
    for (const Interval& window : windows.intervals()) {
      for (const auto& [frag, bps] : degraded_fragments(
               window, vl.bandwidth_bps, vl.phys, degradations_)) {
        effective.virt_links.push_back(
            VirtualLink{vl.phys, bps, frag});
      }
    }
  }

  for (const TrackedItem& item : items_) {
    DataItem d;
    d.name = item.name;
    d.size_bytes = item.size_bytes;
    // A copy-loss fault ends the source's hold window at the loss time; a
    // source that never materialized a copy before the loss is dropped.
    for (SourceLocation src : item.original_sources) {
      const std::optional<SimTime> lost = item.first_loss_at(src.machine);
      if (lost.has_value()) src.hold_until = min(src.hold_until, *lost);
      if (src.hold_window().empty()) continue;
      d.sources.push_back(src);
    }
    for (const TrackedRequest& tracked : item.requests) {
      d.requests.push_back(tracked.request);
    }
    effective.items.push_back(std::move(d));
  }
  return effective;
}

}  // namespace datastage
