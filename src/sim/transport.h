// The simulated network that both block gossip (chain::Network) and
// off-chain messages (core::MessageBus) can route through: SimTransport
// delivers `bytes` from one named endpoint to another by eventually invoking
// a closure, through a Scheduler with per-link latency/jitter/loss/bandwidth
// models, partitions with scheduled heals, and node crash/restart.
//
// With no transport bound, Network and MessageBus deliver synchronously,
// losslessly and with zero latency — the behaviour the repo had before
// src/sim/ existed.
//
// Endpoints are plain strings: node names for gossip ("producer",
// "replica0"), participant address hex for the message bus, and the
// reserved name "chain" for the protocol driver's transaction submissions.
//
// Fault semantics: loss, partitions and crashed endpoints are evaluated at
// SEND time (Deliver returns false — the sender may retry); a message
// already in flight when its receiver crashes is dropped at DELIVERY time
// (counted in dropped_crash, the sender is not informed — exactly the
// asymmetry that makes the challenge-period experiment interesting). A
// message in flight when a partition starts still arrives: partitions cut
// links, not packets already past them.

#ifndef ONOFFCHAIN_SIM_TRANSPORT_H_
#define ONOFFCHAIN_SIM_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/link.h"
#include "sim/scheduler.h"

namespace onoff::sim {

class SimTransport {
 public:
  // All randomness (loss, jitter) derives from `seed`; per-link streams are
  // keyed by the endpoint names, so adding a link never reshuffles another
  // link's draws.
  SimTransport(Scheduler* scheduler, uint64_t seed);

  // The link model used for any (from, to) pair without an explicit link.
  void SetDefaultLink(const LinkConfig& config);
  // Overrides one directed link.
  void SetLink(const std::string& from, const std::string& to,
               const LinkConfig& config);

  // ---- Fault injection ----
  // Splits the world into `island` vs everyone else: messages may only
  // cross between endpoints on the same side. Replaces any prior partition.
  void Partition(const std::vector<std::string>& island);
  void Heal();
  // Schedules Partition(island) at `at_ms` and Heal() at `heal_ms` on the
  // virtual clock (heal_ms <= at_ms means no automatic heal).
  void SchedulePartition(uint64_t at_ms, std::vector<std::string> island,
                         uint64_t heal_ms);
  bool partitioned() const { return partition_active_; }

  // A crashed endpoint neither sends nor receives; messages in flight to it
  // are dropped on arrival. Restart makes it reachable again — catching up
  // on missed state is the caller's job (chain::Network::CatchUp).
  void Crash(const std::string& endpoint);
  void Restart(const std::string& endpoint);
  void ScheduleCrash(uint64_t at_ms, std::string endpoint, uint64_t restart_ms);
  bool crashed(const std::string& endpoint) const {
    return crashed_.count(endpoint) > 0;
  }

  // ---- Accounting (virtual-time quantities: deterministic per seed) ----
  struct Stats {
    uint64_t sent = 0;
    uint64_t delivered = 0;
    uint64_t dropped_loss = 0;
    uint64_t dropped_partition = 0;
    uint64_t dropped_crash = 0;
    uint64_t delay_ms_sum = 0;  // over delivered messages

    uint64_t dropped_total() const {
      return dropped_loss + dropped_partition + dropped_crash;
    }
  };
  const Stats& stats() const { return stats_; }

  // Routes one message of `bytes` payload from `from` to `to`; `deliver`
  // runs when (and if) the message arrives. Returns true when the message
  // was delivered or scheduled for delivery, false when it was dropped at
  // send time (loss, partition, crashed endpoint).
  bool Deliver(const std::string& from, const std::string& to, size_t bytes,
               std::function<void()> deliver);

 private:
  Link& LinkFor(const std::string& from, const std::string& to);
  bool SameSide(const std::string& from, const std::string& to) const;
  void CountDrop(const std::string& from, const std::string& to,
                 uint64_t* stat, const char* reason);

  Scheduler* scheduler_;
  uint64_t seed_;
  LinkConfig default_link_;
  std::map<std::pair<std::string, std::string>, Link> links_;
  bool partition_active_ = false;
  uint64_t partition_started_ms_ = 0;
  std::set<std::string> island_;
  std::set<std::string> crashed_;
  Stats stats_;
};

}  // namespace onoff::sim

#endif  // ONOFFCHAIN_SIM_TRANSPORT_H_
