// Egress queues.
//
// A Link owns one Queue. DropTailQueue implements the paper's switch model:
// bounded capacity in packets with an ECN marking threshold (Fig 5 uses
// capacity 128 pkts, K = 20 pkts). Subclasses elsewhere add approximate fair
// dropping (Fig 7) and NDP-style packet trimming.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace mtp::telemetry {
struct MetricSample;
}

namespace mtp::net {

/// Counters every queue maintains; exposed for tests and experiment probes.
/// A drop is counted by its cause (tail / policer); dropped() is their sum.
struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t bytes_dropped = 0;
  std::uint64_t tail_dropped = 0;     ///< queue full at enqueue
  std::uint64_t policer_dropped = 0;  ///< fair-share policer verdict at ingress

  std::uint64_t dropped() const { return tail_dropped + policer_dropped; }
};

/// Abstract egress queue. enqueue() may mutate the packet (ECN marking,
/// trimming) and returns false if the packet was dropped entirely; a dropped
/// packet is left in `pkt` (the Link traces it from there).
///
/// An accepted packet moves into a slot of the queue's PacketPool and the
/// queue keeps only its 4-byte handle (docs/perf.md, "Where packets wait").
/// A Link binds its queue to the link's pool; a queue used on its own makes
/// a private pool on first use.
class Queue {
 public:
  virtual ~Queue() = default;

  virtual bool enqueue(Packet&& pkt) = 0;

  /// Unlink the next packet and return its pool handle, or kNoPacket if the
  /// queue is empty. The packet stays in its slot; the caller now owns the
  /// handle and must release it. The Link's serializer drains through this,
  /// so a packet is not moved between enqueue and delivery.
  virtual PacketHandle dequeue_handle() = 0;

  /// Unlink the next packet and move it out of the pool.
  std::optional<Packet> dequeue() {
    const PacketHandle h = dequeue_handle();
    if (h == kNoPacket) return std::nullopt;
    return pool_->take(h);
  }

  /// Keep packets in `pool` from now on. Only an empty queue may be bound.
  void bind_pool(PacketPool& pool);

  virtual std::size_t len_pkts() const = 0;
  virtual std::int64_t len_bytes() const = 0;
  bool empty() const { return len_pkts() == 0; }

  /// True if packets leave in arrival order. A Link over a FIFO queue
  /// settles serialization ends lazily instead of scheduling one event per
  /// packet (net/link.hpp); every other queue keeps its finish events.
  virtual bool fifo() const { return false; }

  const QueueStats& stats() const { return stats_; }

  /// Telemetry provider: append this queue's counters and occupancy gauges.
  /// The owning Link registers it under component "queue" with the link's
  /// name, so every queue in a topology is queryable from the registry.
  /// Subclasses with extra state may override and call the base first.
  /// Defined out of line (queue.cpp) so this header — included by every hot
  /// queue implementation — does not pull in the telemetry headers.
  virtual void append_metrics(std::vector<telemetry::MetricSample>& out) const;

  /// Attribute a drop decided *outside* the queue (the ingress policer's
  /// verdict) to this egress queue's loss accounting. The packet never
  /// entered the queue.
  void note_policer_drop(const Packet& pkt) {
    ++stats_.policer_dropped;
    stats_.bytes_dropped += pkt.size_bytes();
  }

 protected:
  /// Queue-full drop at enqueue.
  void note_tail_drop(const Packet& pkt) {
    ++stats_.tail_dropped;
    stats_.bytes_dropped += pkt.size_bytes();
  }

  /// Move an accepted packet into the pool; the subclass keeps the handle.
  PacketHandle store(Packet&& pkt) {
    return (pool_ != nullptr ? *pool_ : make_private_pool()).put(std::move(pkt));
  }
  /// A stored packet. Valid for any handle the subclass holds.
  const Packet& stored(PacketHandle h) const { return (*pool_)[h]; }
  /// Discard every held packet. Subclass destructors call this so a shared
  /// pool gets their slots back.
  void discard_all() {
    while (dequeue()) {
    }
  }

  QueueStats stats_;

 private:
  PacketPool& make_private_pool();

  PacketPool* pool_ = nullptr;
  std::unique_ptr<PacketPool> own_pool_;  ///< set only for an unbound queue
};

/// FIFO tail-drop queue with instantaneous-queue-length ECN marking.
class DropTailQueue : public Queue {
 public:
  struct Config {
    std::size_t capacity_pkts = 128;
    /// Mark CE when the queue length at enqueue is >= this many packets.
    /// 0 disables marking.
    std::size_t ecn_threshold_pkts = 0;
  };

  explicit DropTailQueue(Config cfg) : cfg_(cfg) {}
  DropTailQueue() : DropTailQueue(Config{}) {}

  ~DropTailQueue() override { discard_all(); }

  bool enqueue(Packet&& pkt) override {
    if (q_.size() >= cfg_.capacity_pkts) {
      note_tail_drop(pkt);
      return false;
    }
    if (cfg_.ecn_threshold_pkts != 0 && q_.size() >= cfg_.ecn_threshold_pkts &&
        pkt.ecn != Ecn::kNotEct) {
      pkt.ecn = Ecn::kCe;
      ++stats_.ecn_marked;
    }
    bytes_ += pkt.size_bytes();
    q_.push_back(store(std::move(pkt)));
    ++stats_.enqueued;
    return true;
  }

  PacketHandle dequeue_handle() override {
    if (q_.empty()) return kNoPacket;
    const PacketHandle h = q_.pop_front();
    bytes_ -= stored(h).size_bytes();
    ++stats_.dequeued;
    return h;
  }

  std::size_t len_pkts() const override { return q_.size(); }
  std::int64_t len_bytes() const override { return bytes_; }
  bool fifo() const override { return true; }
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  sim::RingBuffer<PacketHandle> q_;
  std::int64_t bytes_ = 0;
};

}  // namespace mtp::net
