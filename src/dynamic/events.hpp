// Events for the dynamic data-staging extension (paper §1/§6 future work:
// "dynamic changes to the network configuration, ad-hoc data requests,
// sensor-triggered data transfers").
//
// The static model's parameters "represent the best known information
// collected at the given point in time" (§3); each event changes that
// information and triggers a replan of everything not yet committed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "model/scenario.hpp"
#include "util/ids.hpp"
#include "util/interval.hpp"
#include "util/time.hpp"

namespace datastage {

/// A brand-new data item (with sources and initial requests) becomes known.
struct NewItemEvent {
  DataItem item;
};

/// An ad-hoc request for an existing item arrives.
struct NewRequestEvent {
  std::string item_name;
  Request request;
};

/// A physical link fails: all of its remaining availability disappears until
/// a LinkRestoreEvent (if any).
struct LinkOutageEvent {
  PhysLinkId link;
};

/// A failed physical link comes back: its original windows resume from now.
struct LinkRestoreEvent {
  PhysLinkId link;
};

/// A physical link runs at `factor` of its nominal bandwidth during
/// `window`. Announced at window.begin (the stager learns of a brownout when
/// it starts, like an outage); transfers in flight on the link are dropped
/// and replanned at the degraded rate. Overlapping degradations compound by
/// taking the minimum factor.
struct LinkDegradeEvent {
  PhysLinkId link;
  Interval window;
  double factor = 1.0;
};

/// The copy of `item_name` held by `machine` is destroyed now. Requests the
/// copy had satisfied whose deadline has not passed are re-opened; the stager
/// re-stages from surviving copies with the usual deadline feasibility.
struct CopyLossEvent {
  std::string item_name;
  MachineId machine;
};

/// An outstanding request (`item_name`, `destination`) is withdrawn: its
/// transfers-to-come are abandoned at the next replan and the request is
/// closed as cancelled (never satisfied). `request` names it by its index
/// among the item's requests (RequestRef::k); -1 means the most recently
/// added outstanding request for `destination`. Cancelling an
/// already-resolved or unknown request is a no-op.
struct CancelRequestEvent {
  std::string item_name;
  MachineId destination;
  std::int32_t request = -1;
};

using StagingEventBody =
    std::variant<NewItemEvent, NewRequestEvent, LinkOutageEvent, LinkRestoreEvent,
                 LinkDegradeEvent, CopyLossEvent, CancelRequestEvent>;

struct StagingEvent {
  SimTime at;
  StagingEventBody body;
};

/// Total tie order for events at equal timestamps. Fault events sort before
/// arrival events: a restore must precede a new outage so a link is never
/// "down twice", losses destroy copies delivered at the same instant (the
/// stager's own convention) — and a submit at time t must see the post-fault
/// world, so NewItem/NewRequest rank after every fault and cancels come last
/// (a same-instant submit+cancel pair nets out to a cancelled request).
/// Ranks: restore=0 < outage=1 < degrade=2 < copy_loss=3 < new_item=4 <
/// new_request=5 < cancel=6.
int staging_event_rank(const StagingEventBody& body);

/// Secondary tie key after rank: (numeric id, name) — link id for link
/// events, machine id + item name for copy losses and request events, item
/// name alone for new items. Events fully tied on (time, rank, key) keep
/// their input order under sort_staging_events (stable sort).
std::pair<std::int32_t, std::string> staging_event_tie_key(
    const StagingEventBody& body);

/// The comparator behind every deterministic event stream: orders by time,
/// then staging_event_rank, then staging_event_tie_key.
bool staging_event_before(const StagingEvent& a, const StagingEvent& b);

/// Stable-sorts `events` with staging_event_before.
void sort_staging_events(std::vector<StagingEvent>& events);

}  // namespace datastage
