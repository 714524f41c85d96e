#include "gen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "net/topology.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace datastage {
namespace {

std::vector<bool> reachable(std::size_t m, const std::vector<PhysicalLink>& links,
                            bool reverse) {
  std::vector<std::vector<std::int32_t>> adj(m);
  for (const PhysicalLink& pl : links) {
    if (reverse) {
      adj[pl.to.index()].push_back(pl.from.value());
    } else {
      adj[pl.from.index()].push_back(pl.to.value());
    }
  }
  std::vector<bool> seen(m, false);
  std::vector<std::int32_t> stack{0};
  seen[0] = true;
  while (!stack.empty()) {
    const auto u = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    for (const std::int32_t w : adj[u]) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

MachineId pick_where(Rng& rng, const std::vector<bool>& mask, bool value) {
  std::vector<std::int32_t> pool;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] == value) pool.push_back(static_cast<std::int32_t>(i));
  }
  DS_ASSERT(!pool.empty());
  return MachineId(pool[static_cast<std::size_t>(
      rng.uniform_i64(0, static_cast<std::int64_t>(pool.size()) - 1))]);
}

PhysicalLink make_link(const GeneratorConfig& config, Rng& rng, MachineId from,
                       MachineId to) {
  PhysicalLink pl;
  pl.from = from;
  pl.to = to;
  pl.bandwidth_bps = rng.uniform_i64(config.min_bandwidth_bps, config.max_bandwidth_bps);
  pl.latency = rng.uniform_duration(config.min_latency, config.max_latency);
  return pl;
}

void generate_machines(const GeneratorConfig& config, Rng& rng, Scenario& s,
                       std::int32_t m) {
  s.machines.reserve(static_cast<std::size_t>(m));
  for (std::int32_t i = 0; i < m; ++i) {
    Machine machine;
    machine.name = "M" + std::to_string(i);
    machine.capacity_bytes =
        rng.uniform_i64(config.min_capacity_bytes, config.max_capacity_bytes);
    s.machines.push_back(std::move(machine));
  }
}

void generate_physical_links(const GeneratorConfig& config, Rng& rng, Scenario& s) {
  const auto m = static_cast<std::int32_t>(s.machines.size());
  std::vector<std::int32_t> targets;
  for (std::int32_t i = 0; i < m; ++i) {
    const std::int32_t degree = std::min(
        m - 1, rng.uniform_i32(config.min_out_degree, config.max_out_degree));
    if (config.scalable_sampling) {
      // Rejection-sample `degree` distinct neighbors: expected O(degree)
      // draws per machine (degree << m at scale) instead of materializing
      // and shuffling an O(m) pool — the paper path is quadratic in m.
      targets.clear();
      while (static_cast<std::int32_t>(targets.size()) < degree) {
        const std::int32_t t = rng.uniform_i32(0, m - 1);
        if (t == i) continue;
        if (std::find(targets.begin(), targets.end(), t) != targets.end()) continue;
        targets.push_back(t);
      }
    } else {
      targets.clear();
      for (std::int32_t j = 0; j < m; ++j) {
        if (j != i) targets.push_back(j);
      }
      rng.shuffle(targets);
      targets.resize(static_cast<std::size_t>(degree));
    }
    for (const std::int32_t t : targets) {
      const MachineId to(t);
      s.phys_links.push_back(make_link(config, rng, MachineId(i), to));
      if (rng.bernoulli(config.second_link_probability)) {
        s.phys_links.push_back(make_link(config, rng, MachineId(i), to));
      }
    }
  }

  // Repair pass: add links until the physical digraph is strongly connected
  // (§5.1 guarantees strong connectivity). Random graphs with out-degree >= 4
  // on <= 12 nodes almost never need it.
  while (true) {
    const std::vector<bool> fwd = reachable(s.machines.size(), s.phys_links, false);
    if (std::find(fwd.begin(), fwd.end(), false) != fwd.end()) {
      s.phys_links.push_back(make_link(config, rng, pick_where(rng, fwd, true),
                                       pick_where(rng, fwd, false)));
      continue;
    }
    const std::vector<bool> rev = reachable(s.machines.size(), s.phys_links, true);
    if (std::find(rev.begin(), rev.end(), false) != rev.end()) {
      s.phys_links.push_back(make_link(config, rng, pick_where(rng, rev, false),
                                       pick_where(rng, rev, true)));
      continue;
    }
    break;
  }
}

void generate_virtual_links(const GeneratorConfig& config, Rng& rng, Scenario& s) {
  DS_ASSERT(!config.virtual_link_durations.empty());
  for (std::size_t p = 0; p < s.phys_links.size(); ++p) {
    const PhysicalLink& pl = s.phys_links[p];

    const SimDuration duration = rng.pick(std::span<const SimDuration>(
        config.virtual_link_durations.data(), config.virtual_link_durations.size()));
    const std::int32_t percent =
        10 * rng.uniform_i32(config.min_available_percent / 10,
                             config.max_available_percent / 10);
    const SimDuration available = SimDuration::from_usec(
        config.day.usec() / 100 * percent);

    std::int64_t nl = available.usec() / duration.usec();
    if (nl < 1) nl = 1;  // degenerate configs: at least one window
    const SimDuration unavailable =
        max(SimDuration::zero(), config.day - duration * nl);

    // Lead-in before the first window: U[0, unavailable/3] (§5.3), then the
    // remaining unavailable time is cut into the inter-window gaps; the tail
    // after the last window absorbs the rest of the day.
    const SimDuration lead =
        rng.uniform_duration(SimDuration::zero(), unavailable / 3);
    const SimDuration gap_budget = unavailable - lead;

    std::vector<SimDuration> gaps;
    if (nl > 1) {
      std::vector<std::int64_t> cuts;
      cuts.reserve(static_cast<std::size_t>(nl - 1));
      for (std::int64_t g = 0; g < nl - 1; ++g) {
        cuts.push_back(rng.uniform_i64(0, gap_budget.usec()));
      }
      std::sort(cuts.begin(), cuts.end());
      std::int64_t prev = 0;
      for (const std::int64_t cut : cuts) {
        gaps.push_back(SimDuration::from_usec(cut - prev));
        prev = cut;
      }
    }

    SimTime t = SimTime::zero() + lead;
    for (std::int64_t w = 0; w < nl; ++w) {
      const Interval window{t, t + duration};
      const bool keep = config.keep_links_before == SimTime::zero() ||
                        window.begin < config.keep_links_before;
      if (keep) {
        s.virt_links.push_back(VirtualLink{PhysLinkId(static_cast<std::int32_t>(p)),
                                           pl.bandwidth_bps, window});
      }
      t = window.end;
      if (w < nl - 1) t = t + gaps[static_cast<std::size_t>(w)];
    }
  }
}

// Scale-tier item generation: expected-O(picks) rejection sampling against a
// per-item epoch mark instead of the paper path's O(m) eligibility scan and
// pool shuffles per item (O(items * machines) overall — minutes at 5k
// machines / 500k requests). Separate function so the paper path's RNG
// stream stays byte-identical.
void generate_items_scalable(const GeneratorConfig& config, Rng& rng, Scenario& s) {
  const auto m = static_cast<std::int32_t>(s.machines.size());
  DS_ASSERT_MSG(m >= 2, "need at least two machines for sources and destinations");

  const double raw_total =
      static_cast<double>(rng.uniform_i32(config.min_requests_per_machine,
                                          config.max_requests_per_machine)) *
      static_cast<double>(m) * config.load_multiplier;
  const auto total_requests =
      std::max<std::int64_t>(1, std::llround(raw_total));

  std::vector<std::int64_t> reserved(static_cast<std::size_t>(m), 0);
  // mark[i] == epoch: machine i is already a source or destination of the
  // item being built. Epoch bump replaces clearing an O(m) bool vector.
  std::vector<std::int32_t> mark(static_cast<std::size_t>(m), 0);
  std::int32_t epoch = 0;
  std::int64_t assigned = 0;
  std::int32_t index = 0;

  std::vector<std::int32_t> sources;
  std::vector<std::int32_t> dests;
  std::vector<std::int32_t> eligible;

  while (assigned < total_requests) {
    std::int64_t size = rng.uniform_i64(config.min_item_bytes, config.max_item_bytes);
    ++epoch;

    const std::int32_t want_sources = rng.uniform_i32(1, config.max_sources);
    // Keep at least one machine free of sources so destinations exist.
    const std::int32_t source_cap = std::min(want_sources, m - 1);
    sources.clear();
    // Expected one draw per pick while storage is plentiful; the budget
    // bounds the pathological case before the deterministic scan fallback.
    std::int64_t budget = 16 * static_cast<std::int64_t>(source_cap) + 64;
    while (static_cast<std::int32_t>(sources.size()) < source_cap && budget > 0) {
      --budget;
      const auto c = static_cast<std::size_t>(rng.uniform_i32(0, m - 1));
      if (mark[c] == epoch) continue;
      if (s.machines[c].capacity_bytes - reserved[c] < size) continue;
      mark[c] = epoch;
      sources.push_back(static_cast<std::int32_t>(c));
    }
    if (sources.empty()) {
      // Budget exhausted without a single hit: storage is tight. Mirror the
      // paper path — full eligibility scan at the drawn size, then at the
      // minimum size, then give up.
      const auto scan = [&](std::int64_t sz) {
        eligible.clear();
        for (std::int32_t i = 0; i < m; ++i) {
          if (s.machines[static_cast<std::size_t>(i)].capacity_bytes -
                  reserved[static_cast<std::size_t>(i)] >=
              sz) {
            eligible.push_back(i);
          }
        }
      };
      scan(size);
      if (eligible.empty()) {
        size = config.min_item_bytes;
        scan(size);
      }
      if (eligible.empty()) {
        log_warn("generator: storage exhausted, stopping at " +
                 std::to_string(assigned) + "/" + std::to_string(total_requests) +
                 " requests");
        break;
      }
      rng.shuffle(eligible);
      const auto take = std::min(static_cast<std::size_t>(source_cap), eligible.size());
      for (std::size_t j = 0; j < take; ++j) {
        mark[static_cast<std::size_t>(eligible[j])] = epoch;
        sources.push_back(eligible[j]);
      }
    }

    DataItem item;
    item.name = "d" + std::to_string(index);
    item.size_bytes = size;
    const SimTime start =
        SimTime::zero() + rng.uniform_duration(SimDuration::zero(), config.max_item_start);
    item.sources.reserve(sources.size());
    for (const std::int32_t machine : sources) {
      item.sources.push_back(SourceLocation{MachineId(machine), start});
      reserved[static_cast<std::size_t>(machine)] += size;
    }

    const std::int32_t want_dests = rng.uniform_i32(1, config.max_destinations);
    const std::int64_t dest_cap = std::min<std::int64_t>(
        {want_dests, m - static_cast<std::int64_t>(sources.size()),
         total_requests - assigned});
    dests.clear();
    budget = 16 * dest_cap + 64;
    while (static_cast<std::int64_t>(dests.size()) < dest_cap && budget > 0) {
      --budget;
      const auto c = static_cast<std::size_t>(rng.uniform_i32(0, m - 1));
      if (mark[c] == epoch) continue;  // source or already a destination
      mark[c] = epoch;
      dests.push_back(static_cast<std::int32_t>(c));
    }
    if (dests.empty()) {
      // dest_cap >= 1 (source_cap <= m-1 leaves a non-source machine), so a
      // scan always finds one; ascending order is fine for this rare path.
      for (std::int32_t i = 0;
           i < m && static_cast<std::int64_t>(dests.size()) < dest_cap; ++i) {
        if (mark[static_cast<std::size_t>(i)] != epoch) {
          mark[static_cast<std::size_t>(i)] = epoch;
          dests.push_back(i);
        }
      }
    }
    DS_ASSERT(!dests.empty());

    item.requests.reserve(dests.size());
    for (const std::int32_t d : dests) {
      Request request;
      request.destination = MachineId(d);
      request.deadline = start + rng.uniform_duration(config.min_deadline_offset,
                                                      config.max_deadline_offset);
      request.priority = rng.uniform_i32(0, config.priority_classes - 1);
      item.requests.push_back(request);
    }
    assigned += static_cast<std::int64_t>(dests.size());
    s.items.push_back(std::move(item));
    ++index;
  }
}

void generate_items(const GeneratorConfig& config, Rng& rng, Scenario& s) {
  const auto m = static_cast<std::int32_t>(s.machines.size());
  DS_ASSERT_MSG(m >= 2, "need at least two machines for sources and destinations");

  const double raw_total =
      static_cast<double>(rng.uniform_i32(config.min_requests_per_machine,
                                          config.max_requests_per_machine)) *
      static_cast<double>(m) * config.load_multiplier;
  const auto total_requests =
      std::max<std::int64_t>(1, std::llround(raw_total));

  std::vector<std::int64_t> reserved(static_cast<std::size_t>(m), 0);
  std::int64_t assigned = 0;
  std::int32_t index = 0;

  while (assigned < total_requests) {
    std::int64_t size = rng.uniform_i64(config.min_item_bytes, config.max_item_bytes);

    // Source machines must be able to store their initial copy.
    std::vector<std::int32_t> eligible;
    for (std::int32_t i = 0; i < m; ++i) {
      if (s.machines[static_cast<std::size_t>(i)].capacity_bytes -
              reserved[static_cast<std::size_t>(i)] >=
          size) {
        eligible.push_back(i);
      }
    }
    if (eligible.empty()) {
      // All machines are tight; retry with the smallest admissible size once,
      // then give up on further items (extremely overloaded configs only).
      size = config.min_item_bytes;
      for (std::int32_t i = 0; i < m; ++i) {
        if (s.machines[static_cast<std::size_t>(i)].capacity_bytes -
                reserved[static_cast<std::size_t>(i)] >=
            size) {
          eligible.push_back(i);
        }
      }
      if (eligible.empty()) {
        log_warn("generator: storage exhausted, stopping at " +
                 std::to_string(assigned) + "/" + std::to_string(total_requests) +
                 " requests");
        break;
      }
    }

    rng.shuffle(eligible);
    const auto want_sources =
        static_cast<std::size_t>(rng.uniform_i32(1, config.max_sources));
    // Keep at least one machine free of sources so destinations exist.
    const std::size_t n_sources = std::min(
        {want_sources, eligible.size(), static_cast<std::size_t>(m - 1)});

    DataItem item;
    item.name = "d" + std::to_string(index);
    item.size_bytes = size;
    const SimTime start =
        SimTime::zero() + rng.uniform_duration(SimDuration::zero(), config.max_item_start);
    std::vector<bool> is_source(static_cast<std::size_t>(m), false);
    item.sources.reserve(n_sources);
    for (std::size_t j = 0; j < n_sources; ++j) {
      const std::int32_t machine = eligible[j];
      item.sources.push_back(SourceLocation{MachineId(machine), start});
      is_source[static_cast<std::size_t>(machine)] = true;
      reserved[static_cast<std::size_t>(machine)] += size;
    }

    std::vector<std::int32_t> dest_pool;
    for (std::int32_t i = 0; i < m; ++i) {
      if (!is_source[static_cast<std::size_t>(i)]) dest_pool.push_back(i);
    }
    rng.shuffle(dest_pool);
    const auto want_dests =
        static_cast<std::size_t>(rng.uniform_i32(1, config.max_destinations));
    const std::size_t n_dests =
        std::min({want_dests, dest_pool.size(),
                  static_cast<std::size_t>(total_requests - assigned)});
    DS_ASSERT(n_dests >= 1);

    item.requests.reserve(n_dests);
    for (std::size_t j = 0; j < n_dests; ++j) {
      Request request;
      request.destination = MachineId(dest_pool[j]);
      request.deadline = start + rng.uniform_duration(config.min_deadline_offset,
                                                      config.max_deadline_offset);
      request.priority = rng.uniform_i32(0, config.priority_classes - 1);
      item.requests.push_back(request);
    }
    assigned += static_cast<std::int64_t>(n_dests);
    s.items.push_back(std::move(item));
    ++index;
  }
}

}  // namespace

GeneratorConfig GeneratorConfig::light() {
  GeneratorConfig config;
  config.min_machines = 8;
  config.max_machines = 10;
  config.min_requests_per_machine = 5;
  config.max_requests_per_machine = 8;
  return config;
}

GeneratorConfig GeneratorConfig::congested() {
  GeneratorConfig config;
  config.load_multiplier = 2.0;
  config.min_deadline_offset = SimDuration::minutes(8);
  config.max_deadline_offset = SimDuration::minutes(30);
  return config;
}

GeneratorConfig GeneratorConfig::huge() {
  GeneratorConfig config;
  config.min_machines = 5000;
  config.max_machines = 5000;
  // Plentiful storage: the scale tier stresses the scheduler and the network,
  // not the storage-exhaustion fallbacks.
  config.min_capacity_bytes = std::int64_t{10} * 1024 * 1024 * 1024;  // 10 GB
  config.max_capacity_bytes = std::int64_t{50} * 1024 * 1024 * 1024;  // 50 GB
  config.min_out_degree = 8;  // fat-tree-ish fan-out
  config.max_out_degree = 16;
  config.min_requests_per_machine = 100;  // 500k requests total
  config.max_requests_per_machine = 100;
  config.max_sources = 3;
  config.min_item_bytes = 10 * 1024;         // 10 KB
  config.max_item_bytes = 10 * 1024 * 1024;  // 10 MB
  config.scalable_sampling = true;
  return config;
}

std::vector<std::string> GeneratorConfig::validation_errors() const {
  std::vector<std::string> errors;
  const auto check = [&](bool ok, const char* msg) {
    if (!ok) errors.emplace_back(msg);
  };

  check(min_machines <= max_machines, "min_machines > max_machines");
  check(min_machines >= 2,
        "min_machines must be >= 2 (sources and destinations are distinct machines)");
  check(min_capacity_bytes <= max_capacity_bytes,
        "min_capacity_bytes > max_capacity_bytes");
  check(min_capacity_bytes >= 1, "min_capacity_bytes must be >= 1");
  check(min_out_degree <= max_out_degree, "min_out_degree > max_out_degree");
  check(min_out_degree >= 1, "min_out_degree must be >= 1 (graph must be connectable)");
  check(min_bandwidth_bps <= max_bandwidth_bps, "min_bandwidth_bps > max_bandwidth_bps");
  check(min_bandwidth_bps >= 1, "min_bandwidth_bps must be >= 1");
  check(min_latency <= max_latency, "min_latency > max_latency");
  check(min_latency >= SimDuration::zero(), "min_latency must be >= 0");
  check(!virtual_link_durations.empty(), "virtual_link_durations is empty");
  for (const SimDuration d : virtual_link_durations) {
    if (d <= SimDuration::zero()) {
      errors.emplace_back("virtual_link_durations entries must be > 0");
      break;
    }
  }
  check(day > SimDuration::zero(), "day must be > 0");
  check(min_available_percent <= max_available_percent,
        "min_available_percent > max_available_percent");
  check(min_available_percent >= 0 && max_available_percent <= 100,
        "available_percent must lie in [0, 100]");
  check(min_requests_per_machine <= max_requests_per_machine,
        "min_requests_per_machine > max_requests_per_machine");
  check(min_requests_per_machine >= 1, "min_requests_per_machine must be >= 1");
  check(load_multiplier > 0.0, "load_multiplier must be > 0");
  check(max_sources >= 1, "max_sources must be >= 1");
  check(max_destinations >= 1, "max_destinations must be >= 1");
  check(min_item_bytes <= max_item_bytes, "min_item_bytes > max_item_bytes");
  check(min_item_bytes >= 1, "min_item_bytes must be >= 1");
  check(min_deadline_offset <= max_deadline_offset,
        "min_deadline_offset > max_deadline_offset");
  check(priority_classes >= 1, "priority_classes must be >= 1");

  // Derived products must fit the repo's 32-bit ids. Evaluate in 64-bit (and
  // in double where load_multiplier participates) so the check itself cannot
  // overflow — the old code wrapped silently inside the generator loop.
  constexpr std::int64_t kIdMax = std::numeric_limits<std::int32_t>::max();
  if (min_machines <= max_machines && min_machines >= 2 &&
      min_requests_per_machine <= max_requests_per_machine &&
      min_requests_per_machine >= 1 && load_multiplier > 0.0) {
    const std::int64_t worst_requests = static_cast<std::int64_t>(max_machines) *
                                        static_cast<std::int64_t>(max_requests_per_machine);
    check(worst_requests <= kIdMax &&
              static_cast<double>(worst_requests) * load_multiplier <=
                  static_cast<double>(kIdMax),
          "machines x requests_per_machine x load_multiplier overflows 32-bit "
          "request ids");
  }
  if (min_out_degree <= max_out_degree && min_out_degree >= 1) {
    // Two parallel links per neighbor pair at most, plus the connectivity
    // repair pass (bounded by machines).
    const std::int64_t worst_links =
        static_cast<std::int64_t>(max_machines) *
            (2 * static_cast<std::int64_t>(max_out_degree)) +
        static_cast<std::int64_t>(max_machines);
    check(worst_links <= kIdMax, "machines x out_degree overflows 32-bit link ids");
  }
  return errors;
}

void GeneratorConfig::validate_or_die() const {
  const std::vector<std::string> errors = validation_errors();
  if (errors.empty()) return;
  for (const std::string& error : errors) {
    std::fprintf(stderr, "invalid generator config: %s\n", error.c_str());
  }
  std::exit(2);
}

Scenario generate_scenario(const GeneratorConfig& config, Rng& rng) {
  config.validate_or_die();

  Scenario s;
  s.horizon = config.horizon;
  s.gc_gamma = config.gc_gamma;

  const std::int32_t m = rng.uniform_i32(config.min_machines, config.max_machines);
  generate_machines(config, rng, s, m);
  generate_physical_links(config, rng, s);
  generate_virtual_links(config, rng, s);
  if (config.scalable_sampling) {
    generate_items_scalable(config, rng, s);
  } else {
    generate_items(config, rng, s);
  }
  // Drop push_back growth slack. These counts are only known once their
  // draws are done; each item's sources and requests are reserved exactly.
  s.phys_links.shrink_to_fit();
  s.virt_links.shrink_to_fit();
  s.items.shrink_to_fit();

  s.check_valid();
  DS_ASSERT(strongly_connected(s));
  return s;
}

std::vector<Scenario> generate_cases(const GeneratorConfig& config, std::uint64_t seed,
                                     std::size_t count) {
  std::vector<Scenario> cases;
  cases.reserve(count);
  // Each case draws from its own stream split off the root by case index:
  // adding cases never perturbs the earlier ones, and case i is identical no
  // matter how many cases are generated, in what order, or on which thread.
  const Rng root(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = root.split(i);
    cases.push_back(generate_scenario(config, rng));
  }
  return cases;
}

}  // namespace datastage
