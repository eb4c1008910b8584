// Small reusable TCP applications: bulk source, counting sink, and a
// request generator that opens one connection per message (the paper's
// "one message per flow" anti-pattern, Fig 3).
#pragma once

#include <functional>
#include <memory>

#include "stats/stats.hpp"
#include "transport/tcp.hpp"

namespace mtp::transport {

/// Accepts connections on a port and counts delivered bytes into an optional
/// ThroughputMeter. One sink can serve many connections. It keeps none of
/// them: the stack owns each connection until it closes, so a long run of
/// short connections does not accumulate closed ones.
class TcpSink {
 public:
  TcpSink(TcpStack& stack, proto::PortNum port, stats::ThroughputMeter* meter = nullptr)
      : meter_(meter) {
    stack.listen(port, [this, &stack](std::shared_ptr<TcpConnection> conn) {
      ++accepted_;
      conn->on_data = [this, &stack](std::int64_t bytes) {
        total_ += bytes;
        if (meter_) meter_->record(stack.host().simulator().now(), bytes);
      };
    });
  }

  std::int64_t bytes_received() const { return total_; }
  std::size_t connections_accepted() const { return accepted_; }

 private:
  stats::ThroughputMeter* meter_;
  std::int64_t total_ = 0;
  std::size_t accepted_ = 0;
};

/// Opens one connection and streams `bytes` (or endless data when bytes < 0).
class TcpBulkSource {
 public:
  TcpBulkSource(TcpStack& stack, net::NodeId dst, proto::PortNum dst_port,
                std::int64_t bytes = -1)
      : stack_(stack) {
    conn_ = stack.connect(dst, dst_port);
    conn_->on_established = [this, bytes] {
      if (bytes < 0) {
        endless_ = true;
        top_up();
        conn_->on_send_progress = [this] { top_up(); };
      } else {
        conn_->send(bytes);
        conn_->close();
      }
    };
  }

  TcpConnection& connection() { return *conn_; }

 private:
  // Endless mode: keep a generous backlog queued so the connection is always
  // application-limited never; 64 MB re-upped as it drains.
  void top_up() {
    constexpr std::int64_t kBacklog = 64 << 20;
    if (endless_ && conn_->send_buffer_bytes() < kBacklog / 2) {
      conn_->send(kBacklog);
    }
  }

  TcpStack& stack_;
  std::shared_ptr<TcpConnection> conn_;
  bool endless_ = false;
};

/// The Fig 3 anti-pattern: every message gets a brand-new TCP connection
/// (handshake + slow start from scratch), closed after the transfer.
class TcpPerMessageClient {
 public:
  using DoneFn = std::function<void(sim::SimTime fct, std::int64_t bytes)>;

  TcpPerMessageClient(TcpStack& stack, net::NodeId dst, proto::PortNum dst_port)
      : stack_(stack), dst_(dst), dst_port_(dst_port) {}

  void send_message(std::int64_t bytes, DoneFn done = {}) {
    auto conn = stack_.connect(dst_, dst_port_);
    const sim::SimTime start = stack_.host().simulator().now();
    auto* raw = conn.get();
    conn->on_established = [raw, bytes] {
      raw->send(bytes);
      raw->close();
    };
    conn->on_closed = [this, conn, start, bytes, done = std::move(done)]() mutable {
      ++completed_;
      if (done) done(stack_.host().simulator().now() - start, bytes);
      conn.reset();
    };
  }

  std::uint64_t completed() const { return completed_; }

 private:
  TcpStack& stack_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  std::uint64_t completed_ = 0;
};

}  // namespace mtp::transport
