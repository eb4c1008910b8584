// Specialized egress queues for in-network policies.
//
// WfqQueue      — per-TC sub-queues with deficit-round-robin service: the
//                 "separate queues per tenant" baseline of Figure 7.
// TrimmingQueue — NDP-style: instead of tail-dropping an MTP data packet on
//                 overflow, trim its payload and forward the header in a
//                 high-priority lane so the receiver can NACK immediately.
#pragma once

#include <array>

#include "net/queue.hpp"

namespace mtp::innetwork {

/// Deficit-round-robin fair queue over traffic classes. Each TC gets its own
/// FIFO with its own capacity and ECN threshold; service alternates by byte
/// quantum so equal-demand TCs get equal bandwidth regardless of flow count.
class WfqQueue final : public net::Queue {
 public:
  /// Bytes of deficit each active class earns per round.
  static constexpr std::int64_t kQuantumBytes = 1500;

  struct Config {
    std::size_t per_tc_capacity_pkts = 128;
    std::size_t ecn_threshold_pkts = 0;
  };

  explicit WfqQueue(Config cfg) : cfg_(cfg) {}
  ~WfqQueue() override { discard_all(); }

  bool enqueue(net::Packet&& pkt) override {
    auto& q = queues_[pkt.tc];
    if (q.pkts.size() >= cfg_.per_tc_capacity_pkts) {
      note_tail_drop(pkt);
      return false;
    }
    if (cfg_.ecn_threshold_pkts != 0 && q.pkts.size() >= cfg_.ecn_threshold_pkts &&
        pkt.ecn != net::Ecn::kNotEct) {
      pkt.ecn = net::Ecn::kCe;
      ++stats_.ecn_marked;
    }
    q.bytes += pkt.size_bytes();
    bytes_ += pkt.size_bytes();
    ++pkts_;
    q.pkts.push_back(store(std::move(pkt)));
    ++stats_.enqueued;
    return true;
  }

  net::PacketHandle dequeue_handle() override {
    if (pkts_ == 0) return net::kNoPacket;
    // DRR sweep: find the next TC whose deficit covers its head packet.
    for (int sweep = 0; sweep < 2 * 256; ++sweep) {
      TcQueue& q = queues_[rr_];
      if (q.pkts.empty()) {
        q.deficit = 0;  // inactive classes accumulate nothing
        rr_ = static_cast<std::uint8_t>(rr_ + 1);
        continue;
      }
      if (!q.fresh_round) {
        q.deficit += kQuantumBytes;
        q.fresh_round = true;
      }
      const auto head_size = stored(q.pkts.front()).size_bytes();
      if (q.deficit >= head_size) {
        q.deficit -= head_size;
        const net::PacketHandle h = q.pkts.pop_front();
        q.bytes -= head_size;
        bytes_ -= head_size;
        --pkts_;
        ++stats_.dequeued;
        if (q.pkts.empty()) q.deficit = 0;
        return h;
      }
      q.fresh_round = false;
      rr_ = static_cast<std::uint8_t>(rr_ + 1);
    }
    // No head packet fit within two quanta (jumbo packets): serve the
    // current class anyway rather than deadlock.
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      TcQueue& q = queues_[(rr_ + i) % queues_.size()];
      if (!q.pkts.empty()) {
        const net::PacketHandle h = q.pkts.pop_front();
        const auto size = stored(h).size_bytes();
        q.bytes -= size;
        bytes_ -= size;
        --pkts_;
        ++stats_.dequeued;
        return h;
      }
    }
    return net::kNoPacket;
  }

  std::size_t len_pkts() const override { return pkts_; }
  std::int64_t len_bytes() const override { return bytes_; }
  std::size_t tc_len_pkts(proto::TrafficClassId tc) const { return queues_[tc].pkts.size(); }

 private:
  struct TcQueue {
    sim::RingBuffer<net::PacketHandle> pkts;
    std::int64_t bytes = 0;
    std::int64_t deficit = 0;
    bool fresh_round = false;
  };

  Config cfg_;
  std::array<TcQueue, 256> queues_;
  std::size_t pkts_ = 0;
  std::int64_t bytes_ = 0;
  std::uint8_t rr_ = 0;
};

/// NDP-style trimming queue: when the data queue is full, an arriving MTP
/// data packet loses its payload (header survives) and joins the control
/// lane, which is always served first. Receivers NACK trimmed packets so
/// senders retransmit in one RTT instead of waiting out an RTO.
class TrimmingQueue final : public net::Queue {
 public:
  struct Config {
    std::size_t capacity_pkts = 128;
    std::size_t ecn_threshold_pkts = 0;
  };
  /// Header-only packets (trimmed data, ACKs, NACKs) queued ahead of data.
  static constexpr std::size_t kControlCapacityPkts = 1024;

  explicit TrimmingQueue(Config cfg) : cfg_(cfg) {}
  ~TrimmingQueue() override { discard_all(); }

  bool enqueue(net::Packet&& pkt) override {
    if (pkt.payload_bytes != 0 && data_.size() >= cfg_.capacity_pkts) {
      if (!pkt.is_mtp() || pkt.mtp().is_ack()) {
        note_tail_drop(pkt);
        return false;
      }
      // Trim: drop the payload, keep the header, jump the queue.
      pkt.payload_bytes = 0;
      ++trimmed_;
    }
    const bool control = pkt.payload_bytes == 0;
    if (control && control_.size() >= kControlCapacityPkts) {
      note_tail_drop(pkt);
      return false;
    }
    if (!control && cfg_.ecn_threshold_pkts != 0 && data_.size() >= cfg_.ecn_threshold_pkts &&
        pkt.ecn != net::Ecn::kNotEct) {
      pkt.ecn = net::Ecn::kCe;
      ++stats_.ecn_marked;
    }
    bytes_ += pkt.size_bytes();
    (control ? control_ : data_).push_back(store(std::move(pkt)));
    ++stats_.enqueued;
    return true;
  }

  net::PacketHandle dequeue_handle() override {
    auto take = [this](sim::RingBuffer<net::PacketHandle>& q) {
      const net::PacketHandle h = q.pop_front();
      bytes_ -= stored(h).size_bytes();
      ++stats_.dequeued;
      return h;
    };
    if (!control_.empty()) return take(control_);
    if (!data_.empty()) return take(data_);
    return net::kNoPacket;
  }

  std::size_t len_pkts() const override { return data_.size() + control_.size(); }
  std::int64_t len_bytes() const override { return bytes_; }
  std::uint64_t trimmed() const { return trimmed_; }

 private:
  Config cfg_;
  sim::RingBuffer<net::PacketHandle> data_;
  sim::RingBuffer<net::PacketHandle> control_;
  std::int64_t bytes_ = 0;
  std::uint64_t trimmed_ = 0;
};

}  // namespace mtp::innetwork
