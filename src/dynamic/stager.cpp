#include "dynamic/stager.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/observer.hpp"
#include "util/assert.hpp"

namespace datastage {

double DynamicResult::weighted_value(const PriorityWeighting& weighting) const {
  double total = 0.0;
  for (const DynamicRequestRecord& record : requests) {
    if (record.satisfied) total += weighting.weight(record.priority);
  }
  return total;
}

DynamicCounts& DynamicCounts::operator+=(const DynamicCounts& other) {
  replans += other.replans;
  topology_builds += other.topology_builds;
  residual_builds += other.residual_builds;
  world_patches += other.world_patches;
  withdrawals_kept_plan += other.withdrawals_kept_plan;
  gc_extensions_refused += other.gc_extensions_refused;
  engine += other.engine;
  return *this;
}

DynamicCounts& DynamicCounts::operator-=(const DynamicCounts& other) {
  replans -= other.replans;
  topology_builds -= other.topology_builds;
  residual_builds -= other.residual_builds;
  world_patches -= other.world_patches;
  withdrawals_kept_plan -= other.withdrawals_kept_plan;
  gc_extensions_refused -= other.gc_extensions_refused;
  engine -= other.engine;
  return *this;
}

std::size_t DynamicResult::satisfied_count() const {
  std::size_t n = 0;
  for (const DynamicRequestRecord& record : requests) {
    if (record.satisfied) ++n;
  }
  return n;
}

SimTime DynamicStager::TrackedItem::gc_time(SimDuration gamma) const {
  return relay_gc_time(requests, SimTime::zero(), gamma, [](const TrackedRequest& r) {
    return r.counted() ? r.request.deadline : SimTime::zero();
  });
}

void DynamicStager::TrackedItem::add_copy(MachineId machine, SimTime available_at) {
  for (Copy& copy : copies) {
    if (copy.machine == machine) {
      copy.available_at = min(copy.available_at, available_at);
      return;
    }
  }
  copies.push_back(Copy{machine, available_at});
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
    if (r.delivered()) mark(r.request.destination);
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

  down_.resize(base_.phys_links.size());
  base_link_order_.resize(base_.virt_links.size());
  std::iota(base_link_order_.begin(), base_link_order_.end(), std::size_t{0});
  std::ranges::sort(base_link_order_, {}, [this](std::size_t v) {
    return std::pair(base_.virt_links[v].phys, base_.virt_links[v].window.begin);
  });

  items_.reserve(base_.items.size());
  for (const DataItem& item : base_.items) {
    TrackedItem tracked;
    tracked.name = item.name;
    tracked.size_bytes = item.size_bytes;
    tracked.original_sources = item.sources;
    for (const SourceLocation& src : item.sources) {
      tracked.copies.push_back(Copy{src.machine, src.available_at});
    }
    for (const Request& request : item.requests) tracked.requests.push_back({request});
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

DynamicStager::~DynamicStager() = default;

void DynamicStager::note_arrival(TrackedItem& item, MachineId machine,
                                 SimTime arrival) {
  for (TrackedRequest& tracked : item.requests) {
    if (tracked.request.destination == machine && tracked.pending()) tracked.resolve_at(arrival);
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

    TrackedItem& item = items_[step.item.index()];
    item.add_copy(step.to, step.arrival);
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
  run_garbage_collection();
}

void DynamicStager::run_garbage_collection() {
  // The relay-hold rule (§4.4, relay_gc_time): relay copies are removed γ
  // after the latest deadline among the item's requests that count so far.
  // Original sources and destinations that received the item keep their
  // copies.
  PermanentMachines permanent(base_.machine_count());
  for (TrackedItem& item : items_) collect_relays(item, permanent);
}

void DynamicStager::collect_relays(TrackedItem& item, PermanentMachines& permanent) {
  if (now_ < item.gc_time(base_.gc_gamma)) return;
  permanent.select(item);
  const std::size_t erased = std::erase_if(
      item.copies, [&permanent](const Copy& copy) { return !permanent.contains(copy.machine); });
  if (erased == 0) return;
  item.relays_erased_at = now_;
  stale_world(false, true);
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
    obs::count(options_.observer, counts_.topology_builds, "dynamic.topology_builds");
  }
  if (!world_items_current_) {
    build_residual_items(world_->scenario.items, world_->storage);
    world_items_current_ = true;
    obs::count(options_.observer, counts_.residual_builds, "dynamic.residual_builds");
  }
  return *world_;
}

void DynamicStager::stale_world(bool links, bool items) {
  if (links) world_links_current_ = false;
  if (items) world_items_current_ = false;
}

void DynamicStager::build_residual_links(std::vector<VirtualLink>& links) const {
  links.clear();
  // Busy time of the committed transfers still in flight, by physical link.
  // Earlier transfers are over before now_, where the residual begins.
  std::vector<std::pair<PhysLinkId, Interval>> in_flight;
  for (const PlannedStep& planned : committed_) {
    if (planned.step.arrival <= now_) continue;
    in_flight.emplace_back(planned.phys, Interval{planned.step.start, planned.step.arrival});
  }
  std::ranges::sort(in_flight, {}, &std::pair<PhysLinkId, Interval>::first);
  auto next_busy = in_flight.begin();
  IntervalSet removed;  // down time and in-flight busy time of `removed_link`
  PhysLinkId removed_link = PhysLinkId::invalid();
  for (const std::size_t v : base_link_order_) {
    VirtualLink open = base_.virt_links[v];
    open.window.begin = max(open.window.begin, now_);
    if (open.window.empty()) continue;
    if (open.phys != removed_link) {
      removed_link = open.phys;
      removed = down_[open.phys.index()];
      while (next_busy != in_flight.end() && next_busy->first < open.phys) ++next_busy;
      for (; next_busy != in_flight.end() && next_busy->first == open.phys; ++next_busy) {
        removed.insert_merge(next_busy->second);
      }
    }
    append_surviving_links(open, removed, degradations_, links);
  }
}

void DynamicStager::build_residual_items(std::vector<DataItem>& items,
                                         std::vector<StorageTimeline>& storage) const {
  // Every tracked item appears (copies charge storage even with nothing
  // outstanding). Its outstanding requests are listed; the resolved ones
  // that count carry their latest deadline as the item's resolved_deadline,
  // so the residual's gc time is the stager's (relay_gc_time). Permanent
  // copies (original sources, served destinations) hold forever, relay
  // copies until the gc time. A request enters the plan only when every
  // relay copy of its item can hold to the gc time it sets (on_event), so
  // the charges fit together: the sweep aborts otherwise. Its timelines are
  // `storage`.
  std::vector<StorageCharge> charges;
  PermanentMachines permanent(base_.machine_count());
  items.resize(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const TrackedItem& item = items_[i];
    DataItem& d = items[i];
    d.name = item.name;
    d.size_bytes = item.size_bytes;
    d.sources.clear();
    d.requests.clear();
    d.resolved_deadline = SimTime::zero();
    for (const TrackedRequest& tracked : item.requests) {
      if (tracked.pending()) {
        d.requests.push_back(tracked.request);
      } else if (tracked.counted()) {
        d.resolved_deadline = max(d.resolved_deadline, tracked.request.deadline);
      }
    }
    const SimTime gc = item.gc_time(base_.gc_gamma);
    permanent.select(item);
    for (const Copy& copy : item.copies) {
      const SourceLocation src{copy.machine, copy.available_at,
                               permanent.contains(copy.machine) ? SimTime::infinity() : gc};
      if (src.hold_window().empty()) continue;  // gc already due: the copy is gone
      charges.push_back(StorageCharge{copy.machine, item.size_bytes, src.hold_window()});
      d.sources.push_back(src);
    }
  }
  StorageTimeline::per_machine(base_.machines, charges,
                               "a relay copy is held past what its machine can store",
                               storage);
}

bool DynamicStager::relay_holds(const TrackedItem& item, const Copy& copy, SimTime gc,
                                SimTime until) {
  const Interval extension{max(gc, copy.available_at), until};
  return extension.empty() ||
         residual_world().storage[copy.machine.index()].fits(item.size_bytes, extension);
}

void DynamicStager::replan(std::optional<RequestRef> watched) {
  obs::count(options_.observer, counts_.replans, "dynamic.replans");
  const ResidualWorld& world = residual_world();

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
    if (watched.has_value()) {
      // The request is its item's last outstanding one, so the last of the
      // residual item's requests.
      const std::size_t k = world.scenario.items[watched->item.index()].requests.size() - 1;
      DS_ASSERT_MSG(world.scenario.items[watched->item.index()].requests[k].destination ==
                        tracked(*watched).request.destination,
                    "watched request is not the residual item's last");
      engine_->watch(RequestRef{watched->item, static_cast<std::int32_t>(k)});
    }
    run_heuristic(spec_.heuristic, *engine_);
    const Schedule& schedule = engine_->finish_run();
    counts_.engine += engine_->counts();
    // The plan is also the one without the request when the watch held
    // through a loop the guard did not stop.
    if (watched.has_value() && engine_->watch_held() && !engine_->guard_tripped()) {
      plan_serves_without_ = watched;
    }

    plan_.clear();
    for (const CommStep& step : schedule.steps()) {
      DS_ASSERT_MSG(step.start >= now_, "replanned transfer in the past");
      // The step's virtual-link id indexes the residual scenario; resolve the
      // stable physical id now (residual physical links mirror the base ones).
      plan_.push_back(PlannedStep{step, world.scenario.vlink(step.link).phys});
    }
    index_arrivals();
  }
  trace_replan("engine_run");
}

void DynamicStager::keep_plan() {
  obs::count(options_.observer, counts_.replans, "dynamic.replans");
  obs::count(options_.observer, counts_.withdrawals_kept_plan, "dynamic.withdrawals_kept_plan");
  trace_replan("kept_plan");
}

void DynamicStager::trace_replan(const char* served_by) {
  if (trace() == nullptr) return;
  // The world the plan serves, current after either path.
  const Scenario& residual = world_->scenario;
  std::size_t residual_requests = 0;
  for (const DataItem& item : residual.items) residual_requests += item.requests.size();
  trace()->event("replan")
      .field("replan", counts_.replans)
      .field("t_usec", now_.usec())
      .field("served_by", served_by)
      .field("residual_items", residual.items.size())
      .field("residual_requests", residual_requests)
      .field("planned_steps", plan_.size())
      .field("committed_steps", committed_.size());
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
  const auto entry = [this](const CommStep& step) -> DestinationArrival& {
    std::vector<DestinationArrival>& list = arrivals_[step.item.index()];
    for (DestinationArrival& known : list) {
      if (known.destination == step.to) return known;
    }
    return list.emplace_back(DestinationArrival{step.to});
  };
  for (const PlannedStep& planned : committed_) {
    DestinationArrival& known = entry(planned.step);
    known.committed = min(known.committed, planned.step.arrival);
  }
  for (const PlannedStep& planned : plan_) {
    DestinationArrival& known = entry(planned.step);
    known.planned = min(known.planned, planned.step.arrival);
  }
}

void DynamicStager::advance_to(SimTime now) {
  DS_ASSERT(!finished_);
  DS_ASSERT_MSG(now >= now_, "time must be nondecreasing");
  plan_serves_without_.reset();
  commit_started(now);
  set_now(now);
}

void DynamicStager::on_event(const StagingEvent& event) {
  DS_ASSERT(!finished_);
  DS_ASSERT_MSG(event.at >= now_, "events must arrive in time order");
  // Only the withdrawal of that request, next and at the same instant, may
  // keep the plan.
  std::optional<RequestRef> served_without = std::exchange(plan_serves_without_, std::nullopt);
  if (event.at != now_) served_without.reset();
  // set_now collects garbage before the event body: an ad-hoc request must
  // not see (or revive) a copy that expired earlier.
  commit_started(event.at);
  set_now(event.at);
  std::optional<RequestRef> watched;

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
    for (const Request& request : new_item->item.requests) tracked.requests.push_back({request});
    items_.push_back(std::move(tracked));
    index_last_item();
    stale_world(false, true);
  } else if (const auto* new_request = std::get_if<NewRequestEvent>(&event.body)) {
    TrackedItem* item = find_item(new_request->item_name);
    DS_ASSERT_MSG(item != nullptr, "ad-hoc request for unknown item");
    TrackedRequest tracked{new_request->request};
    const ItemId id(static_cast<std::int32_t>(item - items_.data()));
    const SimTime gc = item->gc_time(base_.gc_gamma);
    // If the destination already holds a copy, the request resolves on the
    // spot (the data is there; on time iff it is already usable). Serving it
    // makes the copy a destination copy, held forever: a relay copy that
    // cannot be held forever cannot serve the request, which then closes
    // unsatisfied and never counts. Otherwise a request that counts holds
    // every relay copy of the item to the gc time it sets; one that a relay
    // cannot hold that long is refused and closes unsatisfied, so that every
    // relay is held as long as the plan charged it.
    PermanentMachines permanent(base_.machine_count());
    permanent.select(*item);
    const MachineId destination = tracked.request.destination;
    const auto held = std::ranges::find(item->copies, destination, &Copy::machine);
    const bool at_copy = held != item->copies.end();
    const SimTime extended = max(gc, tracked.request.deadline + base_.gc_gamma);
    const auto relay_holds_to_gc = [&](const Copy& copy) {
      return permanent.contains(copy.machine) || copy.machine == destination ||
             relay_holds(*item, copy, gc, extended);
    };
    if (at_copy && !permanent.contains(destination) &&
        !relay_holds(*item, *held, gc, SimTime::infinity())) {
      tracked.state = Lifecycle::kRefused;
    } else if (!std::ranges::all_of(item->copies, relay_holds_to_gc)) {
      tracked.state = Lifecycle::kRefused;
      obs::count(options_.observer, counts_.gc_extensions_refused, "dynamic.gc_extensions_refused");
    } else if (at_copy) {
      tracked.resolve_at(held->available_at);
    }
    item->requests.push_back(tracked);
    // A request that never entered the plan leaves the world and the plan as
    // they are.
    if (!tracked.counted()) return;
    // The world gains the request as one more outstanding request of its
    // item, unless the request changes more than that: closing on the spot
    // makes a copy permanent, and a later deadline moves the item's gc time,
    // which every relay copy's hold window depends on. An outstanding
    // request's replan watches it, so that withdrawing it may keep the plan.
    if (tracked.pending()) watched = newest_request(id);
    if (world_items_current_ && tracked.pending() && extended == gc) {
      world_->scenario.items[id.index()].requests.push_back(tracked.request);
      obs::count(options_.observer, counts_.world_patches, "dynamic.world_patches");
    } else {
      stale_world(false, true);
    }
  } else if (const auto* outage = std::get_if<LinkOutageEvent>(&event.body)) {
    DS_ASSERT_MSG(!link_down(outage->link), "outage on a link that is already down");
    down_[outage->link.index()].insert_disjoint(Interval{now_, SimTime::infinity()});
    fail_in_flight(outage->link, "link_outage");
    stale_world(true, true);
    obs::bump(options_.observer, "faults.outages");
    if (trace() != nullptr) {
      trace()->event("fault")
          .field("kind", "outage")
          .field("t_usec", now_.usec())
          .field("link", outage->link.value());
    }
  } else if (const auto* restore = std::get_if<LinkRestoreEvent>(&event.body)) {
    DS_ASSERT_MSG(link_down(restore->link), "restore on a link that is up");
    IntervalSet& down = down_[restore->link.index()];
    const SimTime since = down.intervals().back().begin;
    down.subtract(Interval{now_, SimTime::infinity()});
    stale_world(true, false);
    obs::bump(options_.observer, "faults.restores");
    if (trace() != nullptr) {
      trace()->event("fault")
          .field("kind", "restore")
          .field("t_usec", now_.usec())
          .field("link", restore->link.value())
          .field("down_since_usec", since.usec());
    }
  } else if (const auto* degrade = std::get_if<LinkDegradeEvent>(&event.body)) {
    DS_ASSERT_MSG(degrade->link.index() < base_.phys_links.size(), "degrade on unknown link");
    DS_ASSERT_MSG(!degrade->window.empty() && degrade->window.begin == now_,
                  "degradations are announced at their window begin");
    DS_ASSERT_MSG(degrade->factor > 0.0 && degrade->factor < 1.0,
                  "degradation factor must lie in (0, 1)");
    degradations_.push_back(
        LinkDegradation{degrade->link, degrade->window, degrade->factor});
    // In-flight transfers on the link were planned at the undegraded rate
    // and no longer complete on time: drop and let the replan re-stage them
    // at the degraded rate. A link that is down has nothing in flight.
    fail_in_flight(degrade->link, "link_degrade");
    stale_world(true, true);
    obs::bump(options_.observer, "faults.degrades");
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
    obs::bump(options_.observer, "faults.copy_losses");
    if (options_.observer != nullptr && options_.observer->trace != nullptr) {
      options_.observer->trace->event("fault")
          .field("kind", "copy_loss")
          .field("t_usec", now_.usec())
          .field("item", loss->item_name)
          .field("machine", loss->machine.value());
    }
  } else if (const auto* cancel = std::get_if<CancelRequestEvent>(&event.body)) {
    // Withdraw the named request, or else the most recently added outstanding
    // request for this (item, destination). Cancelling an unknown or
    // already-resolved request is a no-op — the caller raced a delivery, and
    // the delivered outcome stands. `position` counts the outstanding
    // requests before the target: its index in the residual's list.
    TrackedItem* item = find_item(cancel->item_name);
    TrackedRequest* target = nullptr;
    std::size_t position = 0;
    std::size_t outstanding = 0;
    RequestRef handle;
    if (item != nullptr) {
      for (std::size_t k = 0; k < item->requests.size(); ++k) {
        TrackedRequest& tracked = item->requests[k];
        if (!tracked.pending()) continue;
        const bool named = cancel->request >= 0
                               ? k == static_cast<std::size_t>(cancel->request)
                               : tracked.request.destination == cancel->destination;
        if (named) {
          target = &tracked;
          position = outstanding;
          handle = RequestRef{ItemId(static_cast<std::int32_t>(item - items_.data())),
                              static_cast<std::int32_t>(k)};
        }
        ++outstanding;
      }
    }
    bool relays_shortened = false;
    if (target != nullptr) {
      const SimTime gc = item->gc_time(base_.gc_gamma);
      target->state = Lifecycle::kCancelled;
      // A withdrawn request holds no relay copy. When that lowers the gc time
      // of an item that holds relay copies, their hold windows shrink: the
      // world is rebuilt, and the plan, which charged them to the old time,
      // is not kept. Otherwise the world loses exactly this request.
      if (item->gc_time(base_.gc_gamma) < gc) {
        PermanentMachines permanent(base_.machine_count());
        permanent.select(*item);
        relays_shortened = std::ranges::any_of(item->copies, [&](const Copy& copy) {
          return !permanent.contains(copy.machine) && copy.available_at < gc;
        });
      }
      if (relays_shortened) {
        stale_world(false, true);
      } else if (world_items_current_) {
        std::vector<Request>& residual =
            world_->scenario.items[static_cast<std::size_t>(item - items_.data())].requests;
        DS_ASSERT_MSG(position < residual.size(), "residual world lost a request");
        residual.erase(residual.begin() + static_cast<std::ptrdiff_t>(position));
        obs::count(options_.observer, counts_.world_patches, "dynamic.world_patches");
      }
      obs::bump(options_.observer, "dynamic.cancels");
    } else {
      obs::bump(options_.observer, "dynamic.cancel_noops");
    }
    if (trace() != nullptr) {
      trace()->event("cancel")
          .field("t_usec", now_.usec())
          .field("item", cancel->item_name)
          .field("dest", cancel->destination.value())
          .field("outstanding", target != nullptr);
    }
    // A no-op leaves the plan as it is. The withdrawal of the request the
    // last replan watched keeps its plan when the watch held: that plan is
    // the replan without the request (docs/PERFORMANCE.md item 12).
    if (target == nullptr) return;
    if (served_without == handle && !relays_shortened) {
      keep_plan();
      return;
    }
  }

  replan(watched);
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
    obs::bump(options_.observer, "faults.copy_losses_noop");
    return;
  }
  item.losses.push_back(LossMark{machine, now_});

  // Re-open requests the lost copy had satisfied, if their delivery window
  // [start, deadline] still admits a re-delivery; a request whose deadline
  // already passed keeps its outcome (the consumer had the data for the
  // whole window). The replan then re-stages with the usual deadline
  // feasibility — an infeasible re-delivery simply stays unsatisfied.
  for (TrackedRequest& tracked : item.requests) {
    if (tracked.request.destination != machine || !tracked.delivered()) continue;
    if (tracked.request.deadline < now_) continue;
    tracked.reopen();
    obs::bump(options_.observer, "faults.requeued_requests");
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
    obs::bump(options_.observer, "faults.inflight_dropped");
    TrackedItem& item = items_[step.item.index()];
    for (TrackedRequest& tracked : item.requests) {
      if (tracked.request.destination == step.to && tracked.delivered() &&
          tracked.arrival == step.arrival) {
        tracked.reopen();
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
  // Nor must a relay copy that garbage collection erased: one from a
  // transfer that started before the erasure, at a machine that does not
  // keep the item for good.
  PermanentMachines permanent(base_.machine_count());
  permanent.select(item);
  item.copies.clear();
  for (const SourceLocation& src : item.original_sources) {
    if (!survives(src.machine, src.available_at)) continue;
    item.copies.push_back(Copy{src.machine, src.available_at});
  }
  for (const PlannedStep& planned : committed_) {
    const CommStep& step = planned.step;
    if (step.item != id || !survives(step.to, step.arrival)) continue;
    if (step.start < item.relays_erased_at && !permanent.contains(step.to)) continue;
    item.add_copy(step.to, step.arrival);
  }

  // Re-resolve requests a surviving copy still serves (an earlier delivery
  // over another link may have been shadowed by the failed one).
  for (TrackedRequest& tracked : item.requests) {
    if (!tracked.pending()) continue;
    const auto copy = std::ranges::find(item.copies, tracked.request.destination, &Copy::machine);
    if (copy != item.copies.end()) tracked.resolve_at(copy->available_at);
  }

  // Apply the gc rule the incremental path would have applied.
  collect_relays(item, permanent);
}

bool DynamicStager::link_down(PhysLinkId link) const {
  const IntervalSet& down = down_[link.index()];
  return !down.empty() && down.intervals().back().end.is_infinite();
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

RequestRef DynamicStager::newest_request(ItemId item) const {
  return {item, static_cast<std::int32_t>(items_[item.index()].requests.size()) - 1};
}

const DynamicStager::TrackedRequest& DynamicStager::tracked(RequestRef request) const {
  return items_[request.item.index()].requests[static_cast<std::size_t>(request.k)];
}

DynamicRequestStatus DynamicStager::request_status(RequestRef request) const {
  switch (tracked(request).state) {
    case Lifecycle::kPending:
      return DynamicRequestStatus::kPending;
    case Lifecycle::kSatisfied:
      return DynamicRequestStatus::kSatisfied;
    case Lifecycle::kLate:
    case Lifecycle::kRefused:
      return DynamicRequestStatus::kUnsatisfied;
    case Lifecycle::kCancelled:
      return DynamicRequestStatus::kCancelled;
  }
  return DynamicRequestStatus::kUnknown;
}

DynamicRequestStatus DynamicStager::request_status(const std::string& item_name,
                                                   MachineId destination) const {
  const ItemId id = item_id(item_name);
  if (!id.valid()) return DynamicRequestStatus::kUnknown;
  // The most recently added request for this destination wins: re-submitting
  // after a cancel or an unsatisfied close starts a fresh lifecycle.
  const std::vector<TrackedRequest>& requests = items_[id.index()].requests;
  for (std::size_t k = requests.size(); k-- > 0;) {
    if (requests[k].request.destination == destination) {
      return request_status(RequestRef{id, static_cast<std::int32_t>(k)});
    }
  }
  return DynamicRequestStatus::kUnknown;
}

SimTime DynamicStager::planned_arrival(RequestRef request) const {
  const TrackedRequest& tracked = this->tracked(request);
  if (!tracked.pending()) return tracked.arrival;
  for (const DestinationArrival& known : arrivals_[request.item.index()]) {
    if (known.destination == tracked.request.destination) return known.planned;
  }
  return SimTime::infinity();
}

SimTime DynamicStager::planned_arrival(const std::string& item_name,
                                       MachineId destination) const {
  const ItemId id = item_id(item_name);
  if (!id.valid()) return SimTime::infinity();
  SimTime earliest = SimTime::infinity();
  for (const TrackedRequest& tracked : items_[id.index()].requests) {
    if (tracked.request.destination == destination) {
      earliest = min(earliest, tracked.arrival);
    }
  }
  for (const DestinationArrival& known : arrivals_[id.index()]) {
    if (known.destination == destination) {
      earliest = min(earliest, min(known.committed, known.planned));
    }
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
  result.replans = counts_.replans;

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
      const Request& request = tracked.request;
      const bool satisfied = tracked.state == Lifecycle::kSatisfied;
      result.requests.push_back({item.name, request.destination, request.deadline,
                                 request.priority, satisfied,
                                 tracked.state == Lifecycle::kCancelled, tracked.arrival});
      if (!tracked.requeued || !satisfied) continue;
      // The request survived a fault: it was requeued at least once and a
      // re-staged delivery still met the deadline.
      obs::bump(options_.observer, "faults.recovered_requests");
      if (trace() != nullptr) {
        trace()->event("request_recovered")
            .field("item", item.name)
            .field("dest", request.destination.value())
            .field("deadline_usec", request.deadline.usec())
            .field("arrival_usec", tracked.arrival.usec());
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
    append_surviving_links(vl, down_[vl.phys.index()], degradations_, effective.virt_links);
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
      if (tracked.counted()) d.requests.push_back(tracked.request);
    }
    effective.items.push_back(std::move(d));
  }
  return effective;
}

}  // namespace datastage
