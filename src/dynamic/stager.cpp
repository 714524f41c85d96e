#include "dynamic/stager.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <span>
#include <utility>

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

void DynamicStager::PermanentMachines::select(const TrackedItem& item) {
  for (const MachineId machine : selected_) marked_[machine.index()] = false;
  selected_.clear();
  const auto mark = [this](MachineId machine) {
    if (marked_[machine.index()]) return;
    marked_[machine.index()] = true;
    selected_.push_back(machine);
  };
  for (const SourceLocation& src : item.original_sources) mark(src.machine);
  for (const TrackedRequest& r : item.requests) {
    // A destination that received the item keeps it.
    if (!r.arrival.is_infinite()) mark(r.request.destination);
  }
}

void DynamicStager::bump(const char* counter) const {
  if (options_.observer != nullptr && options_.observer->metrics != nullptr) {
    options_.observer->metrics->counter(counter).inc();
  }
}

obs::RunTrace* DynamicStager::trace() const {
  return options_.observer != nullptr ? options_.observer->trace : nullptr;
}

obs::PhaseTimer* DynamicStager::phases() const {
  return options_.observer != nullptr ? options_.observer->phases : nullptr;
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
    : base_(std::move(initial)),
      spec_(spec),
      options_(std::move(options)),
      world_(std::make_unique<ResidualWorld>()) {
  base_.check_valid();
  DS_ASSERT_MSG(is_valid_pair(spec_), "scheduler pair not admitted by the paper");
  options_.criterion = spec_.criterion;

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
  by_name_.resize(items_.size());
  std::iota(by_name_.begin(), by_name_.end(), std::size_t{0});
  std::stable_sort(by_name_.begin(), by_name_.end(), [this](std::size_t a, std::size_t b) {
    return items_[a].name < items_[b].name;
  });

  // What every residual world shares, set once.
  Scenario& residual = world_->scenario;
  residual.machines = base_.machines;
  residual.phys_links = base_.phys_links;
  residual.horizon = base_.horizon;
  residual.gc_gamma = base_.gc_gamma;

  replan();
  // The initial plan is set-up, not a decision: a stager that waits for its
  // first event holds no engine buffers. Events replan on one engine from
  // then on, until finish() releases it.
  engine_.reset();
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
  // Compacts the steps that stay planned to the front of plan_, in order.
  std::size_t kept = 0;
  for (const PlannedStep& planned : plan_) {
    const CommStep& step = planned.step;
    if (step.start >= now) {
      plan_[kept++] = planned;
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
  if (kept == plan_.size()) return;
  plan_.resize(kept);
  stale_world(true, true);
}

void DynamicStager::set_now(SimTime now) {
  if (now == now_) return;
  now_ = now;
  stale_world(true, false);
}

void DynamicStager::permanent_charge(std::vector<StorageTimeline>& charge) const {
  std::vector<StorageCharge> charges;
  PermanentMachines permanent(base_.machine_count());
  for (const TrackedItem& item : items_) {
    permanent.select(item);
    for (const Copy& copy : item.copies) {
      if (!permanent.contains(copy.machine)) continue;
      charges.push_back(StorageCharge{copy.machine, item.size_bytes,
                                      Interval{copy.available_at, SimTime::infinity()}});
    }
  }
  // Every permanent copy was capacity-checked with an infinite hold when it
  // was created, so they always fit together.
  StorageTimeline::per_machine(base_.machines, charges,
                               "permanent copies must always fit", charge);
}

void DynamicStager::run_garbage_collection() {
  // The static model's rule (§4.4): intermediate copies are removed γ after
  // the latest deadline of the item's requests — here, the latest deadline
  // known at this point in time. Original sources and destinations that
  // received the item keep their copies.
  PermanentMachines permanent(base_.machine_count());
  for (TrackedItem& item : items_) {
    const SimTime gc = item.latest_known_deadline() + base_.gc_gamma;
    if (now_ < gc) continue;
    permanent.select(item);
    const std::size_t erased = std::erase_if(
        item.copies, [&permanent](const Copy& copy) { return !permanent.contains(copy.machine); });
    if (erased > 0) stale_world(false, true);
  }
}

Scenario DynamicStager::residual_scenario() const {
  const obs::ScopedTimer timer(phases(), "dynamic.residual_build");
  Scenario residual;
  residual.machines = base_.machines;
  residual.phys_links = base_.phys_links;
  residual.horizon = base_.horizon;
  residual.gc_gamma = base_.gc_gamma;
  build_residual_links(residual.virt_links);
  std::vector<StorageTimeline> storage;
  build_residual_items(residual.items, storage);
  return residual;
}

const ResidualWorld& DynamicStager::residual_world() {
  DS_ASSERT_MSG(!finished_, "residual world after finish");
  if (world_links_current_ && world_items_current_) return *world_;
  const obs::ScopedTimer timer(phases(), "dynamic.residual_build");
  if (!world_links_current_) {
    build_residual_links(world_->scenario.virt_links);
    world_->topology.rebuild(world_->scenario);
    world_links_current_ = true;
    ++topology_builds_;
    bump("dynamic.topology_builds");
  }
  if (!world_items_current_) {
    build_residual_items(world_->scenario.items, world_->storage);
    world_items_current_ = true;
    ++residual_builds_;
    bump("dynamic.residual_builds");
  }
  return *world_;
}

void DynamicStager::stale_world(bool links, bool items) {
  if (links) world_links_current_ = false;
  if (items) world_items_current_ = false;
}

void DynamicStager::note_world_patch() {
  ++world_patches_;
  bump("dynamic.world_patches");
}

void DynamicStager::build_residual_links(std::vector<VirtualLink>& links) const {
  links.clear();
  std::vector<bool> degraded(base_.phys_links.size(), false);
  for (const LinkDegradation& d : degradations_) degraded[d.link.index()] = true;
  for (std::size_t p = 0; p < base_.phys_links.size(); ++p) {
    const PhysicalLink& pl = base_.phys_links[p];
    const PhysLinkId link(static_cast<std::int32_t>(p));
    // Windows are disjoint and sorted, so those already over come first.
    const std::vector<Interval>& windows = available_[p].intervals();
    const auto open = std::partition_point(windows.begin(), windows.end(),
                                           [this](const Interval& w) { return w.end <= now_; });
    for (const Interval& window : std::span(open, windows.end())) {
      const Interval clipped{max(window.begin, now_), window.end};
      if (clipped.empty()) continue;
      if (!degraded[p]) {
        // No brownout on this link: one fragment at the nominal rate, which
        // is what degraded_fragments() would return.
        links.push_back(VirtualLink{link, pl.bandwidth_bps, clipped});
        continue;
      }
      // Announced brownouts split the window into fragments carrying the
      // degraded rate, so the replan prices transfers at what the link will
      // actually move.
      for (const auto& [frag, bps] :
           degraded_fragments(clipped, pl.bandwidth_bps, link, degradations_)) {
        links.push_back(VirtualLink{link, bps, frag});
      }
    }
  }
}

void DynamicStager::build_residual_items(std::vector<DataItem>& items,
                                         std::vector<StorageTimeline>& storage) const {
  // Every tracked item appears (copies charge storage even with nothing
  // outstanding); only outstanding requests are carried over. Permanent
  // copies (original sources, served destinations) hold forever;
  // intermediate copies hold until the item's gc time (latest known deadline
  // + γ). A feasibility pre-pass drops intermediate copies that no longer
  // fit — an ad-hoc request can extend gc windows beyond what was
  // capacity-checked when the copy was staged. The pre-pass's timelines end
  // up charged with every source the residual keeps: they are `storage`.
  //
  // Pass 1: permanent copies across all items.
  permanent_charge(storage);

  // Pass 2: intermediate copies, dropped if they no longer fit.
  PermanentMachines permanent(base_.machine_count());
  items.resize(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const TrackedItem& item = items_[i];
    DataItem& d = items[i];
    d.name = item.name;
    d.size_bytes = item.size_bytes;
    d.sources.clear();
    d.requests.clear();
    const SimTime gc = item.latest_known_deadline() + base_.gc_gamma;
    permanent.select(item);
    for (const Copy& copy : item.copies) {
      SourceLocation src{copy.machine, copy.available_at, SimTime::infinity()};
      if (permanent.contains(copy.machine)) {
        d.sources.push_back(src);
        continue;
      }
      src.hold_until = gc;
      const Interval hold = src.hold_window();
      if (hold.empty()) continue;  // gc already due: the copy is gone
      StorageTimeline& st = storage[copy.machine.index()];
      if (!st.fits(item.size_bytes, hold)) {
        log_debug([&item] {
          return "dynamic: dropping staged copy of " + item.name +
                 " (gc window grew past capacity)";
        });
        continue;
      }
      st.allocate(item.size_bytes, hold);
      d.sources.push_back(src);
    }
    for (const TrackedRequest& tracked : item.requests) {
      if (!tracked.resolved) d.requests.push_back(tracked.request);
    }
  }
}

void DynamicStager::replan() {
  ++replans_;
  run_garbage_collection();
  const ResidualWorld& world = residual_world();
  if (options_.observer != nullptr && options_.observer->metrics != nullptr) {
    options_.observer->metrics->counter("dynamic.replans").inc();
  }

  {
    const obs::ScopedTimer timer(phases(), "dynamic.replan");
    // The residual intentionally relaxes two validation rules (items with no
    // requests; destinations holding copies never coexist with outstanding
    // requests by construction), so it is fed to the engine without
    // check_valid(). The engine only requires structural sanity.
    if (engine_ == nullptr) {
      engine_ = std::make_unique<StagingEngine>(world.scenario, world.topology,
                                                world.storage, options_);
    } else {
      engine_->reset(world.scenario, world.topology, world.storage);
    }
    run_heuristic(spec_.heuristic, *engine_);
    const Schedule& schedule = engine_->finish_run();
    replay_counts_.add(engine_->replay_counts());

    plan_.clear();
    for (const CommStep& step : schedule.steps()) {
      DS_ASSERT_MSG(step.start >= now_, "replanned transfer in the past");
      // The step's virtual-link id indexes the residual scenario; resolve the
      // stable physical id now (residual physical links mirror the base ones).
      plan_.push_back(PlannedStep{step, world.scenario.vlink(step.link).phys});
    }
    index_arrivals();
  }
  if (options_.observer != nullptr && options_.observer->trace != nullptr) {
    std::size_t residual_requests = 0;
    for (const DataItem& item : world.scenario.items) residual_requests += item.requests.size();
    options_.observer->trace->event("replan")
        .field("replan", replans_)
        .field("t_usec", now_.usec())
        .field("residual_items", world.scenario.items.size())
        .field("residual_requests", residual_requests)
        .field("planned_steps", plan_.size())
        .field("committed_steps", committed_.size());
  }
}

std::vector<CommStep> DynamicStager::planned_steps() const {
  std::vector<CommStep> steps;
  steps.reserve(plan_.size());
  for (const PlannedStep& planned : plan_) steps.push_back(planned.step);
  return steps;
}

void DynamicStager::index_arrivals() {
  arrivals_.resize(items_.size());
  for (std::vector<DestinationArrival>& list : arrivals_) list.clear();
  const auto add = [this](const PlannedStep& planned) {
    const CommStep& step = planned.step;
    std::vector<DestinationArrival>& list = arrivals_[step.item.index()];
    for (DestinationArrival& known : list) {
      if (known.destination == step.to) {
        known.arrival = min(known.arrival, step.arrival);
        return;
      }
    }
    list.push_back(DestinationArrival{step.to, step.arrival});
  };
  for (const PlannedStep& planned : committed_) add(planned);
  for (const PlannedStep& planned : plan_) add(planned);
}

void DynamicStager::advance_to(SimTime now) {
  DS_ASSERT(!finished_);
  DS_ASSERT_MSG(now >= now_, "time must be nondecreasing");
  commit_started(now);
  set_now(now);
}

void DynamicStager::on_event(const StagingEvent& event) {
  DS_ASSERT(!finished_);
  DS_ASSERT_MSG(event.at >= now_, "events must arrive in time order");
  commit_started(event.at);
  set_now(event.at);
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
    index_last_item();
    stale_world(false, true);
  } else if (const auto* new_request = std::get_if<NewRequestEvent>(&event.body)) {
    TrackedItem* item = find_item(new_request->item_name);
    DS_ASSERT_MSG(item != nullptr, "ad-hoc request for unknown item");
    TrackedRequest tracked{new_request->request, false, false, SimTime::infinity()};
    // If the destination already holds a copy, the request resolves on the
    // spot (the data is there; on time iff it is already usable). Serving it
    // makes the copy a destination copy, held forever: a relayed copy that
    // cannot be held forever next to the permanent copies cannot serve the
    // request, which then closes unsatisfied and leaves the copy transient.
    PermanentMachines permanent(base_.machine_count());
    permanent.select(*item);
    std::vector<StorageTimeline> charge;  // built on first use
    for (const Copy& copy : item->copies) {
      if (copy.machine != tracked.request.destination) continue;
      tracked.resolved = true;
      if (!permanent.contains(copy.machine)) {
        if (charge.empty()) permanent_charge(charge);
        if (!charge[copy.machine.index()].fits(
                item->size_bytes, Interval{copy.available_at, SimTime::infinity()})) {
          continue;
        }
      }
      tracked.arrival = copy.available_at;
      tracked.satisfied = copy.available_at <= tracked.request.deadline;
    }
    // The world gains the request as one more outstanding request of its
    // item, unless the request changes more than that: closing on the spot
    // can make a copy permanent, and a later deadline moves the item's gc
    // time, which every intermediate copy's hold window and the storage
    // pre-pass depend on.
    const bool gc_kept = tracked.request.deadline <= item->latest_known_deadline();
    item->requests.push_back(tracked);
    if (world_items_current_ && !tracked.resolved && gc_kept) {
      world_->scenario.items[static_cast<std::size_t>(item - items_.data())]
          .requests.push_back(tracked.request);
      note_world_patch();
    } else {
      stale_world(false, true);
    }
  } else if (const auto* outage = std::get_if<LinkOutageEvent>(&event.body)) {
    const std::size_t p = outage->link.index();
    DS_ASSERT_MSG(link_up_[p], "outage on a link that is already down");
    link_up_[p] = false;
    outage_since_[p] = now_;
    available_[p].subtract(Interval{now_, SimTime::infinity()});
    fail_in_flight(outage->link, "link_outage");
    stale_world(true, true);
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
    stale_world(true, false);
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
    stale_world(true, true);
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
    stale_world(false, true);
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
    TrackedItem* item = find_item(cancel->item_name);
    TrackedRequest* target = nullptr;
    if (item != nullptr) {
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
      // The world loses exactly this outstanding request: the residual lists
      // an item's outstanding requests in order, so the target is the last
      // one for its destination. The gc time keeps counting it.
      if (world_items_current_) {
        std::vector<Request>& outstanding =
            world_->scenario.items[static_cast<std::size_t>(item - items_.data())].requests;
        const auto last = std::find_if(
            outstanding.rbegin(), outstanding.rend(),
            [cancel](const Request& r) { return r.destination == cancel->destination; });
        DS_ASSERT_MSG(last != outstanding.rend(), "residual world lost a request");
        outstanding.erase(std::next(last).base());
        note_world_patch();
      }
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
    PermanentMachines permanent(base_.machine_count());
    permanent.select(item);
    std::erase_if(item.copies,
                  [&permanent](const Copy& copy) { return !permanent.contains(copy.machine); });
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

ItemId DynamicStager::item_id(const std::string& item_name) const {
  const TrackedItem* item = find_item(item_name);
  return item == nullptr ? ItemId::invalid()
                         : ItemId(static_cast<std::int32_t>(item - items_.data()));
}

DynamicStager::TrackedItem* DynamicStager::find_item(const std::string& name) {
  return const_cast<TrackedItem*>(std::as_const(*this).find_item(name));
}

const DynamicStager::TrackedItem* DynamicStager::find_item(
    const std::string& name) const {
  // by_name_ orders equal names by index, so this is the first such item.
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](std::size_t i, const std::string& value) { return items_[i].name < value; });
  if (it == by_name_.end() || items_[*it].name != name) return nullptr;
  return &items_[*it];
}

void DynamicStager::index_last_item() {
  const std::size_t last = items_.size() - 1;
  const auto it = std::upper_bound(
      by_name_.begin(), by_name_.end(), items_[last].name,
      [this](const std::string& value, std::size_t i) { return value < items_[i].name; });
  by_name_.insert(it, last);
}

DynamicRequestStatus DynamicStager::request_status(
    const std::string& item_name, MachineId destination) const {
  return request_status(item_id(item_name), destination);
}

DynamicRequestStatus DynamicStager::request_status(ItemId id,
                                                   MachineId destination) const {
  if (!id.valid()) return DynamicRequestStatus::kUnknown;
  // The most recently added request for this destination wins: re-submitting
  // after a cancel or an unsatisfied close starts a fresh lifecycle.
  const TrackedRequest* latest = nullptr;
  for (const TrackedRequest& tracked : items_[id.index()].requests) {
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
  return planned_arrival(item_id(item_name), destination);
}

SimTime DynamicStager::planned_arrival(ItemId id, MachineId destination) const {
  if (!id.valid()) return SimTime::infinity();
  SimTime earliest = SimTime::infinity();
  // A closed request already knows its arrival; an outstanding one is served
  // by the earliest committed or planned step landing at the destination.
  for (const TrackedRequest& tracked : items_[id.index()].requests) {
    if (tracked.request.destination == destination) {
      earliest = min(earliest, tracked.arrival);
    }
  }
  for (const DestinationArrival& known : arrivals_[id.index()]) {
    if (known.destination == destination) earliest = min(earliest, known.arrival);
  }
  return earliest;
}

DynamicResult DynamicStager::finish() {
  DS_ASSERT(!finished_);
  finished_ = true;
  commit_started(SimTime::infinity());  // commit the whole remaining plan
  engine_.reset();
  world_.reset();

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
