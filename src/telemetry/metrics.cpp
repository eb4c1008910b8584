#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <utility>

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

Registration MetricRegistry::add(std::string_view component, std::string_view instance,
                                 MetricFn fn) {
  const std::uint64_t id = ++next_id_;
  providers_.push_back(
      Provider{id, labels_.acquire_component(component), labels_.acquire_instance(instance),
               std::move(fn)});
  return Registration{this, id};
}

// Ids are issued in increasing order and compaction keeps the survivors in
// order, so providers_ stays sorted by id: a binary search finds the slot,
// and a removal only marks it dead. Compacting once dead slots exceed half
// keeps teardown of a whole fabric (one provider per link, queue and
// endpoint) linear overall instead of quadratic. The labels are released at
// once, so a dead slot's label ids are never read.
void MetricRegistry::remove(std::uint64_t id) {
  auto it = std::lower_bound(providers_.begin(), providers_.end(), id,
                             [](const Provider& p, std::uint64_t v) { return p.id < v; });
  if (it == providers_.end() || it->id != id || !it->fn) return;
  it->fn = nullptr;
  labels_.release(it->component);
  labels_.release(it->instance);
  if (++dead_ * 2 > providers_.size()) {
    std::erase_if(providers_, [](const Provider& p) { return !p.fn; });
    dead_ = 0;
  }
}

std::uint32_t MetricRegistry::LabelTable::make(std::string_view s) {
  std::uint32_t id;
  if (free_.empty()) {
    id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    id = free_.back();
    free_.pop_back();
  }
  entries_[id] = {static_cast<std::uint32_t>(chars_.size()), static_cast<std::uint32_t>(s.size()), 1};
  chars_.append(s);
  return id;
}

std::uint32_t MetricRegistry::LabelTable::acquire_component(std::string_view s) {
  for (const std::uint32_t id : components_) {
    if (view(id) == s) {
      ++entries_[id].refs;
      return id;
    }
  }
  components_.push_back(make(s));
  return components_.back();
}

std::uint32_t MetricRegistry::LabelTable::acquire_instance(std::string_view s) {
  if (last_instance_ != kNone && view(last_instance_) == s) {
    ++entries_[last_instance_].refs;
  } else {
    last_instance_ = make(s);
  }
  return last_instance_;
}

void MetricRegistry::LabelTable::release(std::uint32_t id) {
  Entry& e = entries_[id];
  if (--e.refs != 0) return;
  std::erase(components_, id);
  if (id == last_instance_) last_instance_ = kNone;
  free_.push_back(id);
  dead_chars_ += e.len;
  // A pack walks every record, live or free, so a small buffer is left
  // alone: tearing down a fabric packs a few times, not once per halving.
  constexpr std::size_t kPackFloor = 64 * 1024;
  if (dead_chars_ * 2 <= chars_.size() || dead_chars_ < kPackFloor) return;
  std::string packed;
  packed.reserve(chars_.size() - dead_chars_);
  for (Entry& live : entries_) {
    if (live.refs == 0) continue;
    const auto offset = static_cast<std::uint32_t>(packed.size());
    packed.append(chars_, live.offset, live.len);
    live.offset = offset;
  }
  chars_ = std::move(packed);
  dead_chars_ = 0;
}

RegistrySnapshot MetricRegistry::snapshot() const {
  RegistrySnapshot snap;
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  // Pass 1. Labels: each one a live provider uses is copied once, numbered
  // in order of first use. Values: their array is sized before it is filled,
  // but a provider's point count is known only once its callback has run,
  // and each runs once. So the first provider of each component is polled
  // here, and the array is reserved as if every provider of a component
  // appends as many points as its first does. That holds for every fabric
  // component; a provider that appends another number costs a reallocation
  // and a trim at the end, nothing else.
  struct LabelUse {
    std::uint32_t local = kNone;      ///< snapshot label id
    std::uint32_t component = kNone;  ///< index into `components`
  };
  struct Component {
    std::size_t first;      ///< position of its first provider in providers_
    std::size_t providers;  ///< live providers of this component
    std::size_t begin;      ///< its first provider's samples in `polled`
    std::size_t end;
    std::uint32_t schema;   ///< the schema of its latest provider
  };
  std::vector<LabelUse> uses(labels_.id_bound());
  std::vector<std::uint32_t> used;  // registry label ids, in first-use order
  std::vector<Component> components;
  std::vector<MetricSample> polled;
  std::vector<MetricSample> scratch;
  std::size_t chars = 0;
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    const Provider& p = providers_[i];
    if (!p.fn) continue;  // removed, not yet compacted
    for (const std::uint32_t id : {p.component, p.instance}) {
      if (uses[id].local != kNone) continue;
      uses[id].local = static_cast<std::uint32_t>(used.size());
      used.push_back(id);
      chars += labels_.view(id).size();
    }
    std::uint32_t& c = uses[p.component].component;
    if (c == kNone) {
      c = static_cast<std::uint32_t>(components.size());
      scratch.clear();
      p.fn(scratch);
      components.push_back({i, 0, polled.size(), polled.size() + scratch.size(), kNone});
      polled.insert(polled.end(), scratch.begin(), scratch.end());
    }
    ++components[c].providers;
  }
  snap.labels_.reserve(chars);
  snap.label_ends_.reserve(used.size());
  for (const std::uint32_t id : used) {
    snap.labels_ += labels_.view(id);
    snap.label_ends_.push_back(static_cast<std::uint32_t>(snap.labels_.size()));
  }
  std::size_t points = 0;
  for (const Component& c : components) points += c.providers * (c.end - c.begin);
  snap.values_.reserve(points);
  snap.rows_.reserve(provider_count());

  // Schemas: a provider's list is first compared with the schema of the
  // previous provider of its component, which it almost always matches,
  // then with every schema (a fabric has a handful), before it becomes a
  // new one. Names compare by pointer first, then by content.
  auto same_list = [&](std::uint32_t schema, std::span<const MetricSample> list) {
    const auto names = std::span<const MetricName>(snap.names_)
                           .subspan(snap.schemas_[schema].first, snap.schemas_[schema].count);
    return std::equal(names.begin(), names.end(), list.begin(), list.end(),
                      [](const MetricName& n, const MetricSample& m) {
                        return n.kind == m.kind &&
                               (n.name == m.name || std::string_view(n.name) == m.name);
                      });
  };
  auto schema_of = [&](Component& c, std::span<const MetricSample> list) {
    if (c.schema != kNone && same_list(c.schema, list)) return c.schema;
    c.schema = 0;
    while (c.schema < snap.schemas_.size() && !same_list(c.schema, list)) ++c.schema;
    if (c.schema == snap.schemas_.size()) {
      snap.schemas_.push_back({static_cast<std::uint32_t>(snap.names_.size()),
                               static_cast<std::uint32_t>(list.size())});
      for (const auto& m : list) snap.names_.push_back({m.name, m.kind});
    }
    return c.schema;
  };

  // Pass 2, in registration order: every other provider is polled now.
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    const Provider& p = providers_[i];
    if (!p.fn) continue;
    Component& c = components[uses[p.component].component];
    std::span<const MetricSample> list;
    if (i == c.first) {
      list = std::span<const MetricSample>(polled).subspan(c.begin, c.end - c.begin);
    } else {
      scratch.clear();
      p.fn(scratch);
      list = scratch;
    }
    snap.rows_.push_back({uses[p.component].local, uses[p.instance].local, schema_of(c, list),
                          static_cast<std::uint32_t>(snap.values_.size())});
    for (const auto& m : list) snap.values_.push_back(m.value);
  }
  snap.values_.shrink_to_fit();  // a no-op when the reservation was exact
  snap.schemas_.shrink_to_fit();
  snap.names_.shrink_to_fit();
  return snap;
}

ProviderView RegistrySnapshot::provider(std::size_t i) const {
  const Row& r = rows_[i];
  const auto metrics = names(r);
  return {label(r.component), label(r.instance), metrics,
          std::span<const double>(values_).subspan(r.first_value, metrics.size())};
}

std::optional<double> RegistrySnapshot::value(std::string_view component,
                                              std::string_view instance,
                                              std::string_view metric) const {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ProviderView p = provider(i);
    if (p.component != component || p.instance != instance) continue;
    for (std::size_t j = 0; j < p.metrics.size(); ++j) {
      if (std::string_view(p.metrics[j].name) == metric) return p.values[j];
    }
  }
  return std::nullopt;
}

double RegistrySnapshot::total(std::string_view component,
                               std::string_view metric) const {
  double sum = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ProviderView p = provider(i);
    if (p.component != component) continue;
    for (std::size_t j = 0; j < p.metrics.size(); ++j) {
      if (std::string_view(p.metrics[j].name) == metric) sum += p.values[j];
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
std::string format_value(MetricKind kind, double value) {
  char buf[64];
  if (kind == MetricKind::kCounter) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

}  // namespace

std::string RegistrySnapshot::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ProviderView p = provider(i);
    if (i != 0) out += ",";
    out += "\n    {\"component\":\"" + json_escape(p.component) +
           "\",\"instance\":\"" + json_escape(p.instance) + "\",\"metrics\":{";
    for (std::size_t j = 0; j < p.metrics.size(); ++j) {
      if (j != 0) out += ",";
      out += "\"" + json_escape(p.metrics[j].name) + "\":" +
             format_value(p.metrics[j].kind, p.values[j]);
    }
    out += "}}";
  }
  out += rows_.empty() ? "]" : "\n  ]";
  return out;
}

}  // namespace mtp::telemetry
