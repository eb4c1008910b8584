// In-network key-value cache (NetCache-style, paper Fig 1 (1) and §4).
//
// Sits at a switch between clients and a KVS backend. GET requests are MTP
// messages whose AppData key is the requested key and whose header names the
// backend's service port. On a hit, the cache terminates the request
// in-network — ACKs it and injects the response message directly — so the
// backend never sees it. On a miss, the request passes through untouched and
// the cache (optionally) learns the key when the backend's response flows
// back through the switch.
//
// This is exactly the use case TCP forecloses (§2.2): it works because each
// request is an independent, self-describing message that the device can
// read and answer with bounded state.
#pragma once

#include <list>
#include <string>
#include <unordered_map>

#include "innetwork/device_endpoint.hpp"
#include "mtp/overload/shed_guard.hpp"
#include "net/switch.hpp"

namespace mtp::innetwork {

class KvsCache final : public net::IngressProcessor {
 public:
  struct Config {
    /// Backend node and service port this cache fronts.
    net::NodeId backend = net::kInvalidNode;
    proto::PortNum service_port = 80;
    std::size_t capacity_entries = 1024;
    /// Learn keys from responses flowing back through the switch.
    bool learn_from_responses = true;
    /// Overload shedding: bounded work queue + busy-rejects (off by default).
    overload::ShedConfig shed;
  };

  KvsCache(net::Switch& sw, Config cfg)
      : sw_(sw), cfg_(cfg), rx_(sw, {}), tx_(sw), guard_(cfg.shed) {
    metrics_ = telemetry::MetricRegistry::global().add(
        "kvs_cache", sw_.name(), [this](std::vector<telemetry::MetricSample>& out) {
          using telemetry::MetricKind;
          out.push_back({"hits", MetricKind::kCounter, static_cast<double>(hits_)});
          out.push_back({"misses", MetricKind::kCounter, static_cast<double>(misses_)});
          out.push_back({"entries", MetricKind::kGauge, static_cast<double>(map_.size())});
          out.push_back({"crashes", MetricKind::kCounter, static_cast<double>(crashes_)});
          guard_.append_metrics(out);
        });
  }

  /// Crash with state wipe: the cache forgets everything and stops
  /// intercepting. Requests miss through to the backend until restart() —
  /// the failure mode the paper's bounded-state design makes survivable.
  void crash() {
    ++crashes_;
    online_ = false;
    map_.clear();
    lru_.clear();
    rx_.clear();
    tx_.abandon_all();
  }

  /// Come back empty; the cache re-warms from responses (if learning is on).
  void restart() { online_ = true; }

  bool online() const { return online_; }
  std::uint64_t crashes() const { return crashes_; }
  const DeviceReceiver& receiver() const { return rx_; }
  const core::MtpEndpoint& sender() const { return tx_; }
  const overload::ShedGuard& shed_guard() const { return guard_; }

  /// Preload a key (value modelled by size; contents by the string).
  void put(const std::string& key, std::string value, std::int64_t value_bytes) {
    touch(key, Entry{std::move(value), value_bytes});
  }

  bool contains(const std::string& key) const { return map_.contains(key); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t entries() const { return map_.size(); }

  bool process(net::Packet& pkt, net::Switch&) override {
    if (!online_) return false;  // crashed: everything misses through
    if (!pkt.is_mtp()) return false;
    const auto& hdr = pkt.mtp();

    // ACKs of our responses reach tx_ through the switch.
    if (hdr.is_ack()) return false;

    // Backend responses flowing back: learn hot keys, pass through. Never
    // learn from a corrupted response — a poisoned entry would be served to
    // every future requester.
    if (cfg_.learn_from_responses && pkt.src == cfg_.backend && pkt.app &&
        !pkt.app->key.empty() && pkt.checksum_ok()) {
      if (!map_.contains(pkt.app->key)) {
        touch(pkt.app->key,
              Entry{pkt.app->value, static_cast<std::int64_t>(hdr.msg_len_bytes)});
      }
      return false;
    }

    // GET requests toward the backend service. Adoption happens on packet 0
    // (where the AppData key rides); later packets of adopted requests keep
    // flowing into the reassembly below.
    if (pkt.dst != cfg_.backend || hdr.dst_port != cfg_.service_port) return false;
    // Retransmission of a shed request: re-reject (never silently drop, never
    // adopt — a rejected message must not also be delivered).
    if (rx_.rejected(pkt.src, hdr.msg_id)) {
      rx_.busy_reject(pkt, proto::kOverloadBusy);
      return true;
    }
    if (!rx_.tracking(pkt.src, hdr.msg_id)) {
      // Overload shed before any service: expired requests are refused even
      // if they would miss through (serving them downstream is wasted work),
      // and past the watermark low-priority fresh requests are busy-rejected.
      const std::uint8_t shed =
          guard_.decide(rx_.partials() + tx_.outstanding_messages(), hdr.priority,
                        hdr.deadline_ns(), sw_.simulator().now());
      if (shed != 0) {
        rx_.busy_reject(pkt, shed);
        return true;
      }
      if (hdr.pkt_num != 0) return false;
      if (!pkt.app || pkt.app->key.empty()) return false;
      if (!rx_.admissible(hdr)) return false;  // oversized request: not ours
      if (!map_.contains(pkt.app->key)) {
        ++misses_;
        return false;  // backend will answer
      }
    }

    // Hit. Consume the request message (ACK + reassemble; answer on the
    // final packet so multi-packet requests work too).
    auto done = rx_.on_data(pkt);
    if (done) {
      auto it = map_.find(done->app ? done->app->key : "");
      if (it == map_.end()) return true;  // evicted while the request flowed in
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      core::MessageOptions opts;
      opts.tc = done->tc;
      opts.priority = done->priority;
      opts.src_port = cfg_.service_port;
      opts.dst_port = done->src_port;  // reply to the requester's port
      // RPC transparency: if the request carried a correlation tag in its
      // AppData value (the RpcClient convention), echo it as the reply key —
      // exactly what the real backend's RpcServer would do.
      const std::string reply_key =
          !done->app->value.empty() ? done->app->value : done->app->key;
      opts.app = net::AppData{reply_key, it->second.entry.value};
      tx_.send_message(done->src, std::max<std::int64_t>(1, it->second.entry.value_bytes),
                       std::move(opts));
    }
    return true;
  }

 private:
  struct Entry {
    std::string value;
    std::int64_t value_bytes = 0;
  };
  struct Slot {
    Entry entry;
    std::list<std::string>::iterator lru_pos;
  };

  void touch(const std::string& key, Entry e) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.entry = std::move(e);
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return;
    }
    lru_.push_front(key);
    map_.emplace(key, Slot{std::move(e), lru_.begin()});
    while (map_.size() > cfg_.capacity_entries) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  net::Switch& sw_;
  Config cfg_;
  DeviceReceiver rx_;
  core::MtpEndpoint tx_;
  overload::ShedGuard guard_;
  std::unordered_map<std::string, Slot> map_;
  std::list<std::string> lru_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t crashes_ = 0;
  bool online_ = true;
  telemetry::Registration metrics_;
};

}  // namespace mtp::innetwork
