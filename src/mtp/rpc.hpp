// Request/response RPC layer over MTP messages (paper §3.1.2: "To
// facilitate RPCs, all of the packets for the RPC are placed in the same
// message, and each RPC generated by the application is placed in a
// separate message").
//
// RpcClient sends each call as one message carrying a correlation id; the
// server's reply is another independent message carrying the same id. There
// is no connection: calls to different servers, or load-balanced to
// different replicas, need no extra state, and in-network devices (caches,
// balancers) can interpose on individual calls.
//
// mtp::overload extensions (all opt-in, defaults preserve old behaviour):
//   - Retry budgets: a token bucket caps retries at a fraction of successful
//     calls, so a failed dependency degrades gracefully instead of
//     amplifying offered load into a metastable retry storm.
//   - Deadline propagation: calls carry an absolute deadline in the MTP
//     header; devices and servers shed expired work *before* service.
//   - Busy fast-fail: an explicit kBusy reject from the receiver aborts the
//     attempt immediately (no timeout burn); the call retries after backoff
//     if the budget allows, else fails with rejected=true.
//   - RpcServer service model: bounded queue + service time per request,
//     priority-aware dispatch, expired work shed at dequeue (kShed), and
//     crash()/restart() for chaos harnesses.
#pragma once

#include <algorithm>
#include <charconv>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mtp/endpoint.hpp"
#include "mtp/overload/retry_budget.hpp"
#include "sim/random.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace mtp::core {

/// One completed RPC as seen by the caller.
struct RpcReply {
  bool ok = false;            ///< false = timed out or rejected
  bool rejected = false;      ///< failed on an explicit busy-reject
  std::int64_t bytes = 0;     ///< response payload size
  std::string body;           ///< response AppData value
  net::NodeId responder = net::kInvalidNode;  ///< may be an in-network device
  sim::SimTime latency;
};

class RpcClient {
 public:
  using ReplyFn = std::function<void(const RpcReply&)>;

  /// Uniform jitter fraction applied to each retry timeout (decorrelates
  /// clients that timed out against the same dead resource).
  static constexpr double kRetryJitter = 0.1;

  struct Config {
    proto::PortNum reply_port = 9000;
    sim::SimTime timeout = sim::SimTime::milliseconds(10);
    proto::TrafficClassId tc = 0;
    /// Opt-in bounded retries: 0 (default) preserves the old fail-on-first-
    /// timeout behaviour. A retry re-sends the same correlation id, so a late
    /// reply to any attempt completes the call and duplicates are dropped —
    /// the callback fires exactly once either way.
    int max_retries = 0;
    /// Per-attempt timeout doubles up to this cap (capped exponential backoff).
    sim::SimTime retry_backoff_cap = sim::SimTime::milliseconds(80);
    std::uint64_t retry_seed = 1;
    /// Retry budget: each success accrues `ratio` tokens, each retry spends
    /// one. 0 (default) = unlimited retries up to max_retries.
    double retry_budget_ratio = 0.0;
    double retry_budget_burst = 10.0;
    /// Per-call deadline (relative to call time) stamped into the MTP
    /// header so every hop can shed expired work. Zero = none.
    sim::SimTime deadline;
  };

  RpcClient(MtpEndpoint& ep, Config cfg) : ep_(ep), cfg_(cfg), rng_(cfg.retry_seed) {
    ep_.listen(cfg_.reply_port, [this](const ReceivedMessage& m) { on_reply(m); });
    if (cfg_.retry_budget_ratio > 0) {
      budget_.emplace(overload::RetryBudget::Config{cfg_.retry_budget_ratio,
                                                    cfg_.retry_budget_burst});
    }
    // Chain onto the endpoint's reject hook (several clients may share one
    // endpoint): busy-rejects map back to calls via the attempt's msg id.
    auto prev = std::move(ep_.on_rejected);
    ep_.on_rejected = [this, prev = std::move(prev)](
                          proto::MsgId mid, net::NodeId dst, bool expired) {
      on_msg_rejected(mid, expired);
      if (prev) prev(mid, dst, expired);
    };
    metrics_ = telemetry::MetricRegistry::global().add(
        "rpc_client", ep_.node().name() + ":" + std::to_string(cfg_.reply_port),
        [this](std::vector<telemetry::MetricSample>& out) {
          using telemetry::MetricKind;
          out.push_back({"completed", MetricKind::kCounter,
                         static_cast<double>(completed_)});
          out.push_back({"timed_out", MetricKind::kCounter,
                         static_cast<double>(timeouts_)});
          out.push_back({"retries", MetricKind::kCounter,
                         static_cast<double>(retries_)});
          out.push_back({"rejected", MetricKind::kCounter,
                         static_cast<double>(rejected_)});
          if (budget_) {
            out.push_back({"retry_budget_tokens", MetricKind::kGauge,
                           budget_->tokens()});
            out.push_back({"retry_budget_exhausted", MetricKind::kCounter,
                           static_cast<double>(budget_->exhausted())});
          }
        });
  }

  /// Issue a call: `method` rides in AppData.key (visible to in-network
  /// devices), `request_bytes` models the serialized argument size.
  void call(net::NodeId server, proto::PortNum service_port, const std::string& method,
            std::int64_t request_bytes, ReplyFn on_reply, std::uint8_t priority = 0) {
    const std::uint64_t id = next_call_++;
    auto& sim = ep_.node().simulator();
    Pending p;
    p.fn = std::move(on_reply);
    p.started = sim.now();
    p.server = server;
    p.service_port = service_port;
    p.method = method;
    p.request_bytes = request_bytes;
    p.priority = priority;
    if (cfg_.deadline.ns() > 0) p.deadline = sim.now() + cfg_.deadline;
    p.timeout = sim.schedule(cfg_.timeout, [this, id] { expire(id); });
    pending_.emplace(id, std::move(p));
    issue(id);
  }

  std::size_t inflight() const { return pending_.size(); }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t timed_out() const { return timeouts_; }
  std::uint64_t retries() const { return retries_; }
  /// Calls failed on an explicit busy-reject (never waited out the timeout).
  std::uint64_t rejected() const { return rejected_; }
  const overload::RetryBudget* retry_budget() const {
    return budget_ ? &*budget_ : nullptr;
  }

 private:
  struct Pending {
    ReplyFn fn;
    sim::SimTime started;
    sim::SimTime deadline;  ///< absolute; zero = none
    sim::EventId timeout;
    net::NodeId server = net::kInvalidNode;
    proto::PortNum service_port = 0;
    std::string method;
    std::int64_t request_bytes = 0;
    std::uint8_t priority = 0;
    int attempt = 0;
    std::vector<proto::MsgId> msg_ids;  ///< one per attempt (reject lookup)
  };
  using PendingIt = std::unordered_map<std::uint64_t, Pending>::iterator;

  /// (Re)send the request message for a pending call. Every attempt carries
  /// the same "rpc:<id>" correlation tag; the reply path can't tell a retry
  /// from the original, which is what makes replies idempotent here.
  void issue(std::uint64_t id) {
    Pending& p = pending_.at(id);
    MessageOptions opts;
    opts.priority = p.priority;
    opts.tc = cfg_.tc;
    opts.src_port = cfg_.reply_port;
    opts.dst_port = p.service_port;
    opts.deadline = p.deadline;
    opts.app = net::AppData{p.method, "rpc:" + std::to_string(id)};
    const proto::MsgId mid = ep_.send_message(
        p.server, std::max<std::int64_t>(1, p.request_bytes), std::move(opts));
    p.msg_ids.push_back(mid);
    msg_to_call_.emplace(mid, id);
  }

  static std::uint64_t parse_call_id(const std::string& tag) {
    if (tag.rfind("rpc:", 0) != 0) return 0;
    std::uint64_t id = 0;
    std::from_chars(tag.data() + 4, tag.data() + tag.size(), id);
    return id;
  }

  sim::SimTime backoff_wait(int attempt) {
    // Capped exponential backoff with seeded jitter: attempt k waits
    // min(timeout * 2^k, cap) * (1 + jitter * U[0,1)).
    sim::SimTime wait = cfg_.timeout;
    for (int k = 0; k < attempt && wait < cfg_.retry_backoff_cap; ++k) {
      wait = wait * 2;
    }
    wait = std::min(wait, cfg_.retry_backoff_cap);
    return wait.scaled(1.0 + kRetryJitter * rng_.uniform());
  }

  void forget_msgs(const Pending& p) {
    for (const proto::MsgId mid : p.msg_ids) msg_to_call_.erase(mid);
  }

  void finish_fail(PendingIt it, bool rejected) {
    auto& sim = ep_.node().simulator();
    Pending& p = it->second;
    sim.cancel(p.timeout);
    RpcReply r;
    r.ok = false;
    r.rejected = rejected;
    r.latency = sim.now() - p.started;
    auto fn = std::move(p.fn);
    forget_msgs(p);
    pending_.erase(it);
    if (rejected) {
      ++rejected_;
    } else {
      ++timeouts_;
    }
    if (fn) fn(r);
  }

  void on_reply(const ReceivedMessage& m) {
    if (!m.app) return;
    const std::uint64_t id = parse_call_id(m.app->key);
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // late reply after timeout: drop
    auto& sim = ep_.node().simulator();
    sim.cancel(it->second.timeout);
    if (budget_) budget_->on_success();
    RpcReply r;
    r.ok = true;
    r.bytes = m.bytes;
    r.body = m.app->value;
    r.responder = m.src;
    r.latency = sim.now() - it->second.started;
    auto fn = std::move(it->second.fn);
    forget_msgs(it->second);
    pending_.erase(it);
    ++completed_;
    if (fn) fn(r);
  }

  void expire(std::uint64_t id) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    Pending& p = it->second;
    const sim::SimTime now = ep_.node().simulator().now();
    const bool dead = p.deadline.ns() > 0 && now >= p.deadline;
    if (p.attempt < cfg_.max_retries && !dead && (!budget_ || budget_->try_spend())) {
      ++p.attempt;
      ++retries_;
      p.timeout =
          ep_.node().simulator().schedule(backoff_wait(p.attempt), [this, id] {
            expire(id);
          });
      issue(id);
      return;
    }
    finish_fail(it, /*rejected=*/false);
  }

  /// An attempt was busy-rejected (receiver or device said kBusy). Fail the
  /// attempt immediately; retry the *call* after backoff if the budget and
  /// deadline allow, else surface the reject to the caller right now.
  void on_msg_rejected(proto::MsgId mid, bool expired) {
    auto mit = msg_to_call_.find(mid);
    if (mit == msg_to_call_.end()) return;
    const std::uint64_t id = mit->second;
    msg_to_call_.erase(mit);
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    Pending& p = it->second;
    auto& sim = ep_.node().simulator();
    const bool dead =
        expired || (p.deadline.ns() > 0 && sim.now() >= p.deadline);
    const bool can_retry = !dead && p.attempt < cfg_.max_retries &&
                           (!budget_ || budget_->tokens() >= 1.0);
    if (!can_retry) {
      finish_fail(it, /*rejected=*/true);
      return;
    }
    // Wait out the backoff before re-offering work to a busy receiver; the
    // rescheduled expiry performs the actual (budget-charged) reissue.
    sim.cancel(p.timeout);
    p.timeout = sim.schedule(backoff_wait(p.attempt + 1), [this, id] { expire(id); });
  }

  MtpEndpoint& ep_;
  Config cfg_;
  sim::Rng rng_;
  std::optional<overload::RetryBudget> budget_;
  telemetry::Registration metrics_;
  std::uint64_t next_call_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_map<proto::MsgId, std::uint64_t> msg_to_call_;
  std::uint64_t completed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Server side: register method handlers; each handler returns the response
/// (body + size), sent back as an independent message tagged with the
/// caller's correlation id.
class RpcServer {
 public:
  struct Response {
    std::int64_t bytes = 1;
    std::string body;
  };
  /// Handler: (method, request size, caller) -> response.
  using HandlerFn =
      std::function<Response(const std::string& method, std::int64_t request_bytes,
                             net::NodeId caller)>;

  /// What the server knows about a queued request.
  struct RequestContext {
    std::string method;
    std::int64_t request_bytes = 0;
    net::NodeId caller = net::kInvalidNode;
    std::uint8_t priority = 0;
    sim::SimTime deadline;  ///< absolute, propagated from the caller; 0 = none
  };

  /// Optional service model: without one (default), requests are answered
  /// instantly on arrival (old behaviour). With one, each request costs
  /// `service_time` of a single server thread, waits in a bounded queue
  /// (high priorities first), and — when shed_expired is on — is discarded
  /// at *dequeue* if its propagated deadline has passed: serving work whose
  /// caller already gave up is the waste that sustains metastable collapse.
  struct ServiceModel {
    sim::SimTime service_time;
    std::size_t queue_limit = 64;
    bool shed_expired = false;
  };

  RpcServer(MtpEndpoint& ep, proto::PortNum service_port) : ep_(ep) {
    ep_.listen(service_port, [this](const ReceivedMessage& m) { on_request(m); });
  }

  /// Register a handler for `method`; empty string = default handler.
  void handle(const std::string& method, HandlerFn fn) {
    handlers_[method] = std::move(fn);
  }

  void set_service_model(ServiceModel m) { model_ = m; }

  /// Application crash: wipe the queue and drop arriving requests on the
  /// floor (the transport still ACKs them — the app is gone, not the host).
  /// Clients see timeouts, which is what lights a retry storm.
  void crash() {
    ++crashes_;
    online_ = false;
    ++epoch_;  // orphan any in-service completion event
    hi_.clear();
    lo_.clear();
    busy_ = false;
  }
  void restart() { online_ = true; }
  bool online() const { return online_; }

  std::uint64_t requests_served() const { return served_; }
  std::uint64_t shed_expired() const { return shed_expired_; }
  std::uint64_t queue_drops() const { return queue_drops_; }
  std::uint64_t crashes() const { return crashes_; }
  std::size_t queue_len() const { return hi_.size() + lo_.size(); }

 private:
  struct Job {
    RequestContext ctx;
    std::string correlation;  ///< "rpc:<id>" echoed into the reply
    proto::TrafficClassId tc = 0;
    proto::PortNum reply_src_port = 0;  ///< our service port
    proto::PortNum reply_dst_port = 0;  ///< caller's reply port
  };

  void on_request(const ReceivedMessage& m) {
    if (!online_) return;  // crashed app: request delivered, never answered
    if (!m.app || m.app->value.rfind("rpc:", 0) != 0) return;  // not an RPC
    Job job;
    job.ctx = RequestContext{m.app->key, m.bytes, m.src, m.priority, m.deadline};
    job.correlation = m.app->value;
    job.tc = m.tc;
    job.reply_src_port = m.dst_port;
    job.reply_dst_port = m.src_port;
    if (!model_) {
      serve(job);
      return;
    }
    if (queue_len() >= model_->queue_limit) {
      ++queue_drops_;  // app queue overflow: caller times out and retries
      return;
    }
    (job.ctx.priority > 0 ? hi_ : lo_).push_back(std::move(job));
    dispatch();
  }

  void dispatch() {
    if (busy_ || !online_) return;
    auto& sim = ep_.node().simulator();
    while (!hi_.empty() || !lo_.empty()) {
      auto& q = hi_.empty() ? lo_ : hi_;
      Job job = std::move(q.front());
      q.pop_front();
      if (model_->shed_expired && job.ctx.deadline.ns() > 0 &&
          sim.now() >= job.ctx.deadline) {
        ++shed_expired_;  // caller already gave up: don't burn service time
        if (telemetry::TraceSink::enabled()) {
          telemetry::TraceEvent ev;
          ev.t = sim.now();
          ev.type = telemetry::TraceEventType::kShed;
          ev.component = ep_.node().name();
          ev.src = job.ctx.caller;
          ev.dst = ep_.node().id();
          ev.bytes = static_cast<std::uint32_t>(job.ctx.request_bytes);
          ev.tc = job.tc;
          telemetry::trace().record(ev);
        }
        continue;
      }
      busy_ = true;
      const std::uint64_t epoch = epoch_;
      sim.schedule(model_->service_time,
                   [this, epoch, job = std::move(job)]() mutable {
                     if (epoch != epoch_) return;  // crashed mid-service
                     busy_ = false;
                     serve(job);
                     dispatch();
                   });
      return;
    }
  }

  void serve(const Job& job) {
    auto it = handlers_.find(job.ctx.method);
    if (it == handlers_.end()) it = handlers_.find("");
    if (it == handlers_.end()) return;  // unknown method
    const Response resp = it->second(job.ctx.method, job.ctx.request_bytes, job.ctx.caller);
    ++served_;
    MessageOptions opts;
    opts.tc = job.tc;
    opts.priority = job.ctx.priority;
    opts.src_port = job.reply_src_port;
    opts.dst_port = job.reply_dst_port;  // back to the caller's reply port
    opts.app = net::AppData{job.correlation, resp.body};  // echo correlation id
    ep_.send_message(job.ctx.caller, std::max<std::int64_t>(1, resp.bytes),
                     std::move(opts));
  }

  MtpEndpoint& ep_;
  std::unordered_map<std::string, HandlerFn> handlers_;
  std::optional<ServiceModel> model_;
  std::deque<Job> hi_;
  std::deque<Job> lo_;
  bool busy_ = false;
  bool online_ = true;
  std::uint64_t epoch_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t shed_expired_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t crashes_ = 0;
};

}  // namespace mtp::core
