// A Whisper-like off-chain message channel between participants.
//
// The paper uses Ethereum Whisper only to exchange signed copies of the
// off-chain contract; any broadcast channel works. This in-process bus adds
// adversarial hooks (drop / tamper) so tests and benches can exercise the
// protocol's behaviour under a faulty or hostile network, and optionally
// routes every message through a sim::SimTransport so delivery follows the
// simulated network's virtual clock (latency, loss, partitions). Without a
// transport, delivery is synchronous — the zero-latency special case.

#ifndef ONOFFCHAIN_ONOFF_MESSAGE_BUS_H_
#define ONOFFCHAIN_ONOFF_MESSAGE_BUS_H_

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/transport.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"

namespace onoff::core {

struct Message {
  Address from;
  Address to;
  std::string topic;
  Bytes payload;
};

class MessageBus {
 public:
  // Routes deliveries through `transport` (endpoints are participant
  // address hex strings, Address::ToHex()). nullptr restores synchronous
  // delivery.
  void SetTransport(sim::SimTransport* transport) { transport_ = transport; }

  // Delivers to the recipient's inbox (or drops/tampers per the hooks and
  // the transport's fault models). With a transport the message lands when
  // the scheduler runs its delivery event.
  void Send(Message message);
  // Broadcast helper: one copy per recipient.
  void Broadcast(const Address& from, const std::vector<Address>& recipients,
                 const std::string& topic, const Bytes& payload);

  // Pops the oldest message for `addr` with `topic` (NotFound when empty).
  Result<Message> Receive(const Address& addr, const std::string& topic);
  size_t PendingFor(const Address& addr) const;

  // ---- Adversarial hooks ----
  // Called per message at send time; return true to drop it.
  using DropFn = std::function<bool(const Message&)>;
  // Called per message at delivery time; may mutate the payload in flight.
  using TamperFn = std::function<void(Message&)>;
  void set_drop_hook(DropFn fn) { drop_ = std::move(fn); }
  void set_tamper_hook(TamperFn fn) { tamper_ = std::move(fn); }

  // ---- Accounting (for the privacy/overhead benches) ----
  // Offered load vs delivered load: sent counts everything offered to the
  // bus; dropped counts messages lost to the drop hook or rejected by the
  // transport at send time (messages lost in flight to a crashed receiver
  // are only visible in the transport's own stats); tampered counts
  // messages the tamper hook touched.
  size_t messages_sent() const { return messages_sent_; }
  size_t bytes_sent() const { return bytes_sent_; }
  size_t messages_dropped() const { return messages_dropped_; }
  size_t bytes_dropped() const { return bytes_dropped_; }
  size_t messages_tampered() const { return messages_tampered_; }

 private:
  // Applies the tamper hook and lands `message` in the recipient's inbox.
  void DeliverNow(Message message);
  void CountDrop(size_t payload_bytes);

  std::unordered_map<Address, std::deque<Message>> inboxes_;
  sim::SimTransport* transport_ = nullptr;
  DropFn drop_;
  TamperFn tamper_;
  size_t messages_sent_ = 0;
  size_t bytes_sent_ = 0;
  size_t messages_dropped_ = 0;
  size_t bytes_dropped_ = 0;
  size_t messages_tampered_ = 0;
};

}  // namespace onoff::core

#endif  // ONOFFCHAIN_ONOFF_MESSAGE_BUS_H_
