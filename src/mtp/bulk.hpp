// Bulk ("blob") transfer mode (paper §3.1.2).
//
// The second way applications generate MTP messages: a blob of data is sent
// as many single-packet messages, so the network can multiplex, reorder and
// load-balance them freely (each message is independent). "A layer beneath
// the application in a library or OS service is responsible for reassembling
// the blob and reliably handling any packet loss and reordering of
// messages" — these classes are that layer.
//
// Per-message reliability already lives in MtpEndpoint; the bulk layer adds
// blob-level bookkeeping: chunk identification (blob id + offset ride in
// AppData), completion detection on both ends, and out-of-order tolerance.
#pragma once

#include <charconv>
#include <functional>
#include <string>
#include <unordered_map>

#include "mtp/endpoint.hpp"

namespace mtp::core {

/// Splits blobs into single-packet messages.
class BulkSender {
 public:
  using DoneFn = std::function<void(std::uint64_t blob_id, sim::SimTime elapsed)>;

  BulkSender(MtpEndpoint& ep, net::NodeId dst, proto::PortNum dst_port,
             proto::TrafficClassId tc = 0)
      : ep_(ep), dst_(dst), dst_port_(dst_port), tc_(tc) {}

  /// Send `bytes` as ceil(bytes/mss) independent messages. Completion fires
  /// when every chunk message is acknowledged.
  std::uint64_t send_blob(std::int64_t bytes, DoneFn done = {}) {
    const std::uint64_t blob = next_blob_++;
    const std::uint32_t mss = ep_.config().mss;
    const auto chunks = static_cast<std::uint32_t>((bytes + mss - 1) / mss);
    auto state = std::make_shared<BlobState>();
    state->remaining = chunks;
    state->started = ep_.node().simulator().now();
    state->done = std::move(done);
    for (std::uint32_t c = 0; c < chunks; ++c) {
      const std::int64_t off = static_cast<std::int64_t>(c) * mss;
      const std::int64_t len = std::min<std::int64_t>(mss, bytes - off);
      MessageOptions opts;
      opts.tc = tc_;
      opts.dst_port = dst_port_;
      opts.app = net::AppData{
          "blob:" + std::to_string(blob),
          std::to_string(off) + "/" + std::to_string(bytes)};
      auto* simulator = &ep_.node().simulator();
      ep_.send_message(dst_, len, std::move(opts),
                       [state, blob, simulator](proto::MsgId, sim::SimTime) {
                         if (--state->remaining == 0 && state->done) {
                           state->done(blob, simulator->now() - state->started);
                         }
                       });
    }
    return blob;
  }

  std::uint64_t blobs_sent() const { return next_blob_ - 1; }

 private:
  struct BlobState {
    std::uint32_t remaining = 0;
    sim::SimTime started;
    DoneFn done;
  };

  MtpEndpoint& ep_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  proto::TrafficClassId tc_;
  std::uint64_t next_blob_ = 1;
};

/// Reassembles blobs on the receiving host.
class BulkReceiver {
 public:
  /// Fires once per completed blob with (source, blob id, total bytes,
  /// time from first chunk to completion).
  using BlobFn = std::function<void(net::NodeId src, std::uint64_t blob_id,
                                    std::int64_t bytes, sim::SimTime elapsed)>;

  BulkReceiver(MtpEndpoint& ep, proto::PortNum port, BlobFn on_blob)
      : ep_(ep), on_blob_(std::move(on_blob)) {
    ep_.listen(port, [this](const ReceivedMessage& m) { on_chunk(m); });
  }

  std::size_t blobs_in_progress() const { return blobs_.size(); }
  std::uint64_t blobs_completed() const { return completed_; }

 private:
  struct Blob {
    std::int64_t total = 0;
    std::int64_t received = 0;
    sim::SimTime first_chunk;
  };
  struct Key {
    net::NodeId src;
    std::uint64_t blob;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.src) << 32) ^ k.blob);
    }
  };

  void on_chunk(const ReceivedMessage& m) {
    if (!m.app || m.app->key.rfind("blob:", 0) != 0) return;
    std::uint64_t blob_id = 0;
    {
      const std::string& s = m.app->key;
      std::from_chars(s.data() + 5, s.data() + s.size(), blob_id);
    }
    std::int64_t total = 0;
    {
      const std::string& v = m.app->value;
      const auto slash = v.find('/');
      if (slash == std::string::npos) return;
      std::from_chars(v.data() + slash + 1, v.data() + v.size(), total);
    }
    const Key key{m.src, blob_id};
    auto [it, fresh] = blobs_.try_emplace(key);
    if (fresh) {
      it->second.total = total;
      it->second.first_chunk = m.first_pkt_at;
    }
    it->second.received += m.bytes;
    if (it->second.received >= it->second.total) {
      ++completed_;
      if (on_blob_) {
        on_blob_(m.src, blob_id, it->second.total, m.completed_at - it->second.first_chunk);
      }
      blobs_.erase(it);
    }
  }

  MtpEndpoint& ep_;
  BlobFn on_blob_;
  std::unordered_map<Key, Blob, KeyHash> blobs_;
  std::uint64_t completed_ = 0;
};

}  // namespace mtp::core
