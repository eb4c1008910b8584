// mtp::telemetry — unified metrics registry (paper-evaluation observability).
//
// Components (queues, links, switches, transport endpoints, in-network
// devices) register a *provider*: a `component/instance` label pair plus a
// callback that appends the component's current counters and gauges. The
// registry never copies component state on the fast path — a snapshot walks
// the providers and samples live values, so registration costs one 48-B slot
// and a shared copy of its labels at construction time and nothing per
// packet.
//
// Naming scheme (see docs/telemetry.md):
//   component  — kind of thing: "queue", "link", "switch", "host", "mtp",
//                "tcp", "policer", "kvs_cache", ...
//   instance   — which one: the link/host name ("alice->tor", "sender")
//   metric     — snake_case measurement: "pkts_delivered", "len_bytes", ...
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mtp::telemetry {

enum class MetricKind : std::uint8_t {
  kCounter,  ///< monotone non-decreasing count
  kGauge,    ///< point-in-time sampled value
};

/// One metric appended by a provider callback. `name` must be a string with
/// static storage duration (metric names are compile-time constants).
struct MetricSample {
  const char* name;
  MetricKind kind;
  double value;
};
// One per metric point in a snapshot; docs/perf.md quotes the size.
static_assert(sizeof(MetricSample) == 24, "MetricSample changed size; update docs/perf.md");

/// One schema entry of a snapshot: a metric's static name and its kind.
struct MetricName {
  const char* name;
  MetricKind kind;
};

/// Provider callback: append the component's current samples.
using MetricFn = std::function<void(std::vector<MetricSample>&)>;

class MetricRegistry;

/// RAII provider handle: deregisters on destruction. Movable, not copyable.
class Registration {
 public:
  Registration() = default;
  Registration(Registration&& o) noexcept : reg_(o.reg_), id_(o.id_) {
    o.reg_ = nullptr;
  }
  Registration& operator=(Registration&& o) noexcept {
    if (this != &o) {
      reset();
      reg_ = o.reg_;
      id_ = o.id_;
      o.reg_ = nullptr;
    }
    return *this;
  }
  ~Registration() { reset(); }

  void reset();
  bool active() const { return reg_ != nullptr; }

 private:
  friend class MetricRegistry;
  Registration(MetricRegistry* reg, std::uint64_t id) : reg_(reg), id_(id) {}
  MetricRegistry* reg_ = nullptr;
  std::uint64_t id_ = 0;
};

/// A snapshot's read-only view of one provider: its labels and its metrics
/// in the order the callback appended them (`metrics[i]` names `values[i]`).
/// It points into the snapshot, so it is valid while the snapshot lives.
struct ProviderView {
  std::string_view component;
  std::string_view instance;
  std::span<const MetricName> metrics;
  std::span<const double> values;
};

/// Point-in-time capture of every registered provider. Benches stash one in
/// their result structs (the providers deregister when the rig is destroyed,
/// so the snapshot must be taken while the scenario is alive). A snapshot
/// owns its labels and its metric names are static, so it outlives its
/// providers, its registry and the thread that took it.
///
/// Layout: one 16-B row per provider, one exactly sized array of values
/// (8 B a point), one copy of each registry label it uses, and a table of
/// schemas. A schema is one provider's list of metric names and kinds;
/// every provider that appends the same list shares one.
class RegistrySnapshot {
 public:
  bool empty() const { return rows_.empty(); }
  /// Providers, in registration order.
  std::size_t size() const { return rows_.size(); }
  /// Metric points over all providers.
  std::size_t point_count() const { return values_.size(); }
  ProviderView provider(std::size_t i) const;

  /// Look up one metric; nullopt if the provider or metric is absent.
  std::optional<double> value(std::string_view component, std::string_view instance,
                              std::string_view metric) const;

  /// Sum `metric` over every instance of `component` (e.g. total ECN marks
  /// across all queues).
  double total(std::string_view component, std::string_view metric) const;

  std::string to_json() const;

 private:
  friend class MetricRegistry;
  struct Row {
    std::uint32_t component;    ///< label id
    std::uint32_t instance;     ///< label id
    std::uint32_t schema;       ///< index into schemas_
    std::uint32_t first_value;  ///< index into values_
  };
  struct Schema {
    std::uint32_t first;  ///< index into names_
    std::uint32_t count;
  };

  std::string_view label(std::uint32_t id) const {
    const std::uint32_t begin = id == 0 ? 0 : label_ends_[id - 1];
    return std::string_view(labels_).substr(begin, label_ends_[id] - begin);
  }
  std::span<const MetricName> names(const Row& r) const {
    const Schema& s = schemas_[r.schema];
    return std::span<const MetricName>(names_).subspan(s.first, s.count);
  }

  std::vector<Row> rows_;
  std::vector<double> values_;
  std::string labels_;                     ///< the labels it uses, back to back
  std::vector<std::uint32_t> label_ends_;  ///< label i ends at label_ends_[i]
  std::vector<Schema> schemas_;
  std::vector<MetricName> names_;  ///< the schemas' entries, schema after schema
};

class MetricRegistry {
 public:
  /// The registry components on the calling thread register with. Thread-
  /// local rather than process-wide: each sim::ParallelSweep worker gets a
  /// private registry, so concurrent scenarios neither race on the provider
  /// list nor see each other's instances. Providers deregister via RAII when
  /// a scenario's rig is destroyed, so a worker thread starts every job with
  /// an empty registry. Snapshot inside the job, while the rig is alive.
  static MetricRegistry& global();

  /// The registry keeps one copy of each component label, however many
  /// providers use it, and a link's `link` and `queue` providers share
  /// one copy of their instance label.
  [[nodiscard]] Registration add(std::string_view component, std::string_view instance,
                                 MetricFn fn);

  RegistrySnapshot snapshot() const;
  std::size_t provider_count() const { return providers_.size() - dead_; }
  /// Heap bytes the label storage holds (characters, records, free lists).
  std::size_t label_bytes() const { return labels_.heap_bytes(); }

 private:
  friend class Registration;
  void remove(std::uint64_t id);

  /// Provider labels, each stored once in one character buffer and
  /// reference-counted by the providers that use it. A component label is
  /// looked up among the live ones (a fabric has a handful). An instance
  /// label is shared with the previous instance label when the two match,
  /// as a link's `link` and `queue` providers do; otherwise it is a new
  /// copy. A label nobody uses is freed at once, and the buffer is packed
  /// when freed characters outnumber live ones (and pass 64 KiB).
  class LabelTable {
   public:
    std::uint32_t acquire_component(std::string_view s);
    std::uint32_t acquire_instance(std::string_view s);
    void release(std::uint32_t id);
    std::string_view view(std::uint32_t id) const {
      return {chars_.data() + entries_[id].offset, entries_[id].len};
    }
    std::size_t id_bound() const { return entries_.size(); }
    std::size_t heap_bytes() const {
      return chars_.capacity() + entries_.capacity() * sizeof(Entry) +
             (free_.capacity() + components_.capacity()) * sizeof(std::uint32_t);
    }

   private:
    static constexpr std::uint32_t kNone = 0xffffffff;
    struct Entry {
      std::uint32_t offset;
      std::uint32_t len;
      std::uint32_t refs;  ///< 0: free, on free_
    };
    std::uint32_t make(std::string_view s);

    std::string chars_;
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> free_;        ///< ids of free entries
    std::vector<std::uint32_t> components_;  ///< ids of the live component labels
    std::uint32_t last_instance_ = kNone;    ///< the latest instance label, while live
    std::size_t dead_chars_ = 0;             ///< characters of freed labels in chars_
  };

  struct Provider {
    std::uint64_t id;
    std::uint32_t component;  ///< label id
    std::uint32_t instance;   ///< label id
    MetricFn fn;              ///< empty once removed (the slot waits for compaction)
  };
  // docs/perf.md quotes the size: two label ids beside the id, no strings.
  static_assert(sizeof(Provider) == 16 + sizeof(MetricFn), "Provider grew; update docs/perf.md");

  std::vector<Provider> providers_;  ///< registration order, ascending id
  std::size_t dead_ = 0;             ///< removed slots still in providers_
  std::uint64_t next_id_ = 0;
  LabelTable labels_;
};

/// Escape a string for embedding in a JSON document (shared by the trace and
/// report writers).
std::string json_escape(std::string_view s);

}  // namespace mtp::telemetry
