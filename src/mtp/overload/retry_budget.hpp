// mtp::overload — token-bucket retry budget.
//
// Retry storms are the engine of metastable failure: after a transient
// outage, every client retries, the retries alone exceed capacity, and the
// system stays collapsed long after the trigger is gone (Bronson et al.,
// "Metastable Failures in Distributed Systems"). The standard defense is to
// cap retries to a *fraction of successes*: tokens accrue per completed
// call and each retry spends one, so retry traffic can never
// exceed ratio x goodput in steady state. A small burst allowance covers
// cold start and isolated blips.
//
// Pure call-sequence state machine — no clocks, no RNG — so budgets are
// deterministic and shard-count invariant by construction.
#pragma once

#include <algorithm>
#include <cstdint>

namespace mtp::overload {

class RetryBudget {
 public:
  struct Config {
    /// Retry tokens earned per successful completion. 0.1 = at most one
    /// retry per ten successes once the burst allowance is spent.
    double ratio = 0.1;
    /// Bucket cap, and the cold-start balance: a fresh client may retry
    /// this many times before it has to earn tokens.
    double burst = 10.0;
  };

  explicit RetryBudget(Config cfg) : cfg_(cfg), tokens_(cfg.burst) {}
  RetryBudget() : RetryBudget(Config{}) {}

  /// A call completed successfully: accrue ratio tokens, capped at burst.
  void on_success() { tokens_ = std::min(cfg_.burst, tokens_ + cfg_.ratio); }

  /// Try to buy one retry. False = budget exhausted (fail fast).
  bool try_spend() {
    // Epsilon absorbs the accumulated float error of many ratio-increments;
    // the comparison must not deny a token the accrual math clearly earned.
    if (tokens_ + 1e-9 >= 1.0) {
      tokens_ -= 1.0;
      ++spent_;
      return true;
    }
    ++exhausted_;
    return false;
  }

  double tokens() const { return tokens_; }
  std::uint64_t spent() const { return spent_; }
  /// Denied try_spend() calls — the "retry converted to fail-fast" counter.
  std::uint64_t exhausted() const { return exhausted_; }
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  double tokens_;
  std::uint64_t spent_ = 0;
  std::uint64_t exhausted_ = 0;
};

}  // namespace mtp::overload
