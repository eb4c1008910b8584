#include "sim/flow/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mtp::sim::flow {

std::uint32_t FluidModel::add_conduit(std::int64_t capacity_bps, RateFn apply) {
  if (started_) throw std::logic_error("FluidModel::add_conduit after start()");
  Conduit c;
  c.capacity_bps = capacity_bps;
  c.apply = std::move(apply);
  conduits_.push_back(std::move(c));
  return static_cast<std::uint32_t>(conduits_.size() - 1);
}

std::uint32_t FluidModel::add_flow(SimTime at, std::vector<std::uint32_t> path,
                                   std::int64_t bytes, std::int64_t rate_cap_bps,
                                   DoneFn done) {
  if (started_) throw std::logic_error("FluidModel::add_flow after start()");
  if (path.empty()) throw std::invalid_argument("FluidModel::add_flow: empty path");
  Flow f;
  f.at = at;
  f.path = std::move(path);
  f.total_bitns = static_cast<__int128>(bytes) * 8 * kNsPerSec;
  f.remaining_bitns = f.total_bitns;
  f.rate_cap_bps = rate_cap_bps;
  f.done_fn = std::move(done);
  flows_.push_back(std::move(f));
  const auto idx = static_cast<std::uint32_t>(flows_.size() - 1);
  declared_.push_back({at, Declared::Kind::kArrival, idx, 0});
  return idx;
}

void FluidModel::set_capacity_at(SimTime at, std::uint32_t conduit,
                                 std::int64_t capacity_bps) {
  if (started_) throw std::logic_error("FluidModel::set_capacity_at after start()");
  declared_.push_back({at, Declared::Kind::kCapacity, conduit, capacity_bps});
}

void FluidModel::start() {
  if (started_) throw std::logic_error("FluidModel::start called twice");
  started_ = true;
  clock_ = sim_.now();
  // Stable by time: equal-time declarations apply in declaration order,
  // which every replica shares. One keyed event per declaration; the seq
  // counter (and so the keys) advances identically on every replica.
  std::stable_sort(declared_.begin(), declared_.end(),
                   [](const Declared& a, const Declared& b) { return a.at < b.at; });
  for (std::size_t i = 0; i < declared_.size(); ++i) {
    const SimTime at = declared_[i].at < clock_ ? clock_ : declared_[i].at;
    sim_.schedule_keyed_at(at, next_key(), [this, i] {
      advance_to(sim_.now());
      apply_declared(declared_[i]);
      resolve();
      schedule_next_completion();
    });
  }
}

std::int64_t FluidModel::fluid_capacity(const Conduit& c) const {
  return static_cast<std::int64_t>(static_cast<__int128>(c.capacity_bps) *
                                   cfg_.capacity_num / cfg_.capacity_den);
}

void FluidModel::advance_to(SimTime t) {
  const std::int64_t dt = (t - clock_).ns();
  clock_ = t;
  if (dt <= 0) return;
  for (Flow& f : flows_) {
    if (!f.active || f.done || f.rate_bps == 0) continue;
    __int128 delta = static_cast<__int128>(f.rate_bps) * dt;
    if (delta > f.remaining_bitns) {
      // An overshoot of >= 1 ns worth of rate means a completion event was
      // missed and the flow "delivered" bits it no longer had — a solver
      // bug, not ceil rounding. Count it; tests assert the count stays 0.
      if (delta - f.remaining_bitns >= static_cast<__int128>(f.rate_bps)) ++violations_;
      delta = f.remaining_bitns;
    }
    f.remaining_bitns -= delta;
    for (const std::uint32_t c : f.path) conduits_[c].delivered_bitns += delta;
  }
}

void FluidModel::apply_declared(const Declared& d) {
  switch (d.kind) {
    case Declared::Kind::kArrival: {
      Flow& f = flows_[d.index];
      f.active = true;
      if (f.remaining_bitns == 0) {  // zero-byte transfer: done on arrival
        f.done = true;
        f.finish_at = clock_;
        ++completed_;
        if (f.done_fn) f.done_fn(d.index, clock_);
      }
      break;
    }
    case Declared::Kind::kCapacity:
      conduits_[d.index].capacity_bps = d.value;
      break;
  }
}

void FluidModel::resolve() {
  ++resolves_;
  ++solve_gen_;  // pending completion events are now stale

  // Scratch over the touched sub-network only: the union of active paths
  // plus conduits still carrying a (possibly stale) reservation. Keeps a
  // re-solve O(active flows x path length), not O(all conduits) — a k=32
  // fabric has ~50k conduits and a re-solve must not scan them all.
  active_.clear();
  touched_.clear();
  for (std::uint32_t fi = 0; fi < flows_.size(); ++fi) {
    Flow& f = flows_[fi];
    f.rate_bps = 0;
    f.frozen = false;
    if (!f.active || f.done) continue;
    active_.push_back(fi);
    for (const std::uint32_t ci : f.path) {
      Conduit& c = conduits_[ci];
      if (!c.in_touched) {
        c.in_touched = true;
        c.residual_bps = fluid_capacity(c);
        c.unfrozen = 0;
        c.pending_bps = 0;
        touched_.push_back(ci);
      }
      ++c.unfrozen;
    }
  }
  for (const std::uint32_t ci : reserved_nonzero_) {
    Conduit& c = conduits_[ci];
    if (!c.in_touched) {
      c.in_touched = true;
      c.residual_bps = fluid_capacity(c);
      c.unfrozen = 0;
      c.pending_bps = 0;
      touched_.push_back(ci);
    }
  }

  // Progressive filling. Each round either freezes every capped flow whose
  // cap fits under the current bottleneck share, or freezes the bottleneck
  // conduit's flows at that share. Ties break toward the lowest conduit
  // index / lowest flow index — content-derived, replica-identical.
  std::size_t unfrozen_flows = active_.size();
  while (unfrozen_flows > 0) {
    std::int64_t best_share = std::numeric_limits<std::int64_t>::max();
    std::uint32_t best_ci = 0;
    bool found = false;
    for (const std::uint32_t ci : touched_) {
      const Conduit& c = conduits_[ci];
      if (c.unfrozen == 0) continue;
      const std::int64_t share = c.residual_bps / c.unfrozen;
      if (share < best_share) {
        best_share = share;
        best_ci = ci;
        found = true;
      }
    }
    assert(found && "unfrozen flow with no conduit");
    if (!found) break;

    const auto freeze = [this](Flow& f, std::int64_t rate) {
      f.rate_bps = rate;
      f.frozen = true;
      for (const std::uint32_t ci : f.path) {
        Conduit& c = conduits_[ci];
        c.residual_bps -= rate;
        c.pending_bps += rate;
        --c.unfrozen;
      }
    };

    bool froze_capped = false;
    for (const std::uint32_t fi : active_) {
      Flow& f = flows_[fi];
      if (f.frozen || f.rate_cap_bps <= 0 || f.rate_cap_bps > best_share) continue;
      freeze(f, f.rate_cap_bps);
      --unfrozen_flows;
      froze_capped = true;
    }
    if (froze_capped) continue;

    for (const std::uint32_t fi : active_) {
      Flow& f = flows_[fi];
      if (f.frozen) continue;
      bool through = false;
      for (const std::uint32_t ci : f.path) {
        if (ci == best_ci) { through = true; break; }
      }
      if (!through) continue;
      freeze(f, best_share);
      --unfrozen_flows;
    }
  }

  // Apply changed reservations (owner replicas push them into the links)
  // and rebuild the nonzero list for the next re-solve.
  reserved_nonzero_.clear();
  for (const std::uint32_t ci : touched_) {
    Conduit& c = conduits_[ci];
    c.in_touched = false;
    if (c.pending_bps != c.reserved_bps) {
      c.reserved_bps = c.pending_bps;
      if (c.apply) c.apply(c.reserved_bps);
    }
    if (c.reserved_bps != 0) reserved_nonzero_.push_back(ci);
  }
}

void FluidModel::schedule_next_completion() {
  SimTime best = SimTime::max();
  bool found = false;
  for (const Flow& f : flows_) {
    if (!f.active || f.done || f.rate_bps <= 0) continue;
    const __int128 dt =
        (f.remaining_bitns + f.rate_bps - 1) / f.rate_bps;  // ceil, >= 1 ns
    const SimTime t = clock_ + SimTime::nanoseconds(static_cast<std::int64_t>(dt));
    if (!found || t < best) {
      best = t;
      found = true;
    }
  }
  if (!found) return;
  const std::uint64_t gen = solve_gen_;
  sim_.schedule_keyed_at(best, next_key(), [this, gen] { on_completion_event(gen); });
}

void FluidModel::on_completion_event(std::uint64_t generation) {
  if (generation != solve_gen_) return;  // superseded by a later re-solve
  advance_to(sim_.now());
  for (std::uint32_t fi = 0; fi < flows_.size(); ++fi) {
    Flow& f = flows_[fi];
    if (!f.active || f.done || f.remaining_bitns != 0) continue;
    f.done = true;
    f.active = false;
    f.finish_at = clock_;
    ++completed_;
    if (f.done_fn) f.done_fn(fi, clock_);
  }
  resolve();
  schedule_next_completion();
}

}  // namespace mtp::sim::flow
