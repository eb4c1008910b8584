#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace mtp::telemetry {

void Registration::reset() {
  if (reg_ != nullptr) {
    reg_->remove(id_);
    reg_ = nullptr;
  }
}

MetricRegistry& MetricRegistry::global() {
  static thread_local MetricRegistry registry;
  return registry;
}

Registration MetricRegistry::add(std::string component, std::string instance,
                                 MetricFn fn) {
  const std::uint64_t id = ++next_id_;
  providers_.push_back(
      Provider{id, std::move(component), std::move(instance), std::move(fn)});
  return Registration{this, id};
}

// Ids are issued in increasing order and compaction keeps the survivors in
// order, so providers_ stays sorted by id: a binary search finds the slot,
// and a removal only marks it dead. Compacting once dead slots exceed half
// keeps teardown of a whole fabric (one provider per link, queue and
// endpoint) linear overall instead of quadratic.
void MetricRegistry::remove(std::uint64_t id) {
  auto it = std::lower_bound(providers_.begin(), providers_.end(), id,
                             [](const Provider& p, std::uint64_t v) { return p.id < v; });
  if (it == providers_.end() || it->id != id || !it->fn) return;
  it->fn = nullptr;
  if (++dead_ * 2 > providers_.size()) {
    std::erase_if(providers_, [](const Provider& p) { return !p.fn; });
    dead_ = 0;
  }
}

RegistrySnapshot MetricRegistry::snapshot() const {
  RegistrySnapshot snap;
  snap.providers.reserve(provider_count());
  std::vector<MetricSample> scratch;
  for (const auto& p : providers_) {
    if (!p.fn) continue;  // removed, not yet compacted
    scratch.clear();
    p.fn(scratch);
    ProviderSnapshot ps;
    ps.component = p.component;
    ps.instance = p.instance;
    ps.metrics.assign(scratch.begin(), scratch.end());
    snap.providers.push_back(std::move(ps));
  }
  return snap;
}

std::optional<double> RegistrySnapshot::value(std::string_view component,
                                              std::string_view instance,
                                              std::string_view metric) const {
  for (const auto& p : providers) {
    if (p.component != component || p.instance != instance) continue;
    for (const auto& m : p.metrics) {
      if (std::string_view(m.name) == metric) return m.value;
    }
  }
  return std::nullopt;
}

double RegistrySnapshot::total(std::string_view component,
                               std::string_view metric) const {
  double sum = 0;
  for (const auto& p : providers) {
    if (p.component != component) continue;
    for (const auto& m : p.metrics) {
      if (std::string_view(m.name) == metric) sum += m.value;
    }
  }
  return sum;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Render a metric value: counters as integers, gauges shortest-round-trip.
std::string format_value(const MetricSample& m) {
  char buf[64];
  if (m.kind == MetricKind::kCounter) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(m.value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
  }
  return buf;
}

}  // namespace

std::string RegistrySnapshot::to_json() const {
  std::string out = "[";
  bool first_p = true;
  for (const auto& p : providers) {
    if (!first_p) out += ",";
    first_p = false;
    out += "\n    {\"component\":\"" + json_escape(p.component) +
           "\",\"instance\":\"" + json_escape(p.instance) + "\",\"metrics\":{";
    bool first_m = true;
    for (const auto& m : p.metrics) {
      if (!first_m) out += ",";
      first_m = false;
      out += "\"" + json_escape(m.name) + "\":" + format_value(m);
    }
    out += "}}";
  }
  out += first_p ? "]" : "\n  ]";
  return out;
}

}  // namespace mtp::telemetry
