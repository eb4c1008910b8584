// mtp::telemetry — unified metrics registry (paper-evaluation observability).
//
// Components (queues, links, switches, transport endpoints, in-network
// devices) register a *provider*: a `component/instance` label pair plus a
// callback that appends the component's current counters and gauges. The
// registry never copies component state on the fast path — a snapshot walks
// the providers and samples live values, so registration costs a few
// allocations at construction time and nothing per packet.
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

/// One provider's samples at snapshot time. The names stay the static
/// strings the provider appended: a snapshot copies no metric name, so a
/// point costs 24 B however long its name is.
struct ProviderSnapshot {
  std::string component;
  std::string instance;
  std::vector<MetricSample> metrics;  ///< sized exactly
};

/// Point-in-time capture of every registered provider. Benches stash one in
/// their result structs (the providers deregister when the rig is destroyed,
/// so the snapshot must be taken while the scenario is alive).
class RegistrySnapshot {
 public:
  std::vector<ProviderSnapshot> providers;

  bool empty() const { return providers.empty(); }

  /// Look up one metric; nullopt if the provider or metric is absent.
  std::optional<double> value(std::string_view component, std::string_view instance,
                              std::string_view metric) const;

  /// Sum `metric` over every instance of `component` (e.g. total ECN marks
  /// across all queues).
  double total(std::string_view component, std::string_view metric) const;

  std::string to_json() const;
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

  [[nodiscard]] Registration add(std::string component, std::string instance,
                                 MetricFn fn);

  RegistrySnapshot snapshot() const;
  std::size_t provider_count() const { return providers_.size() - dead_; }

 private:
  friend class Registration;
  void remove(std::uint64_t id);

  struct Provider {
    std::uint64_t id;
    std::string component;
    std::string instance;
    MetricFn fn;  ///< empty once removed (the slot waits for compaction)
  };
  std::vector<Provider> providers_;  ///< registration order, ascending id
  std::size_t dead_ = 0;             ///< removed slots still in providers_
  std::uint64_t next_id_ = 0;
};

/// Escape a string for embedding in a JSON document (shared by the trace and
/// report writers).
std::string json_escape(std::string_view s);

}  // namespace mtp::telemetry
