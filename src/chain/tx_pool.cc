#include "chain/tx_pool.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "support/bytes.h"
#include "trace/trace.h"

namespace onoff::chain {

namespace {

std::string HashKey(const Hash32& h) {
  return std::string(reinterpret_cast<const char*>(h.data()), h.size());
}

void UpdateDepthGauge(size_t depth) {
  static obs::Gauge* gauge = obs::GetGaugeOrNull("txpool.depth");
  if (gauge != nullptr) gauge->Set(static_cast<int64_t>(depth));
}

}  // namespace

Status TxPool::Add(const Transaction& tx, const Address& sender,
                   const Hash32& hash) {
  Entry entry{tx, HashKey(hash), sender};
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_hashes_.count(entry.key) > 0) {
      static obs::Counter* dups = obs::GetCounterOrNull("txpool.duplicates");
      if (dups != nullptr) dups->Inc();
      return Status::AlreadyExists("transaction already in pool");
    }
    if (recent_taken_.count(entry.key) > 0) {
      static obs::Counter* retaken =
          obs::GetCounterOrNull("txpool.retaken_rejected");
      if (retaken != nullptr) retaken->Inc();
      return Status::AlreadyExists(
          "transaction was recently taken (in flight or mined)");
    }
    pending_hashes_.insert(entry.key);
    queue_.push_back(std::move(entry));
    depth = pending_hashes_.size();
  }
  static obs::Counter* added = obs::GetCounterOrNull("txpool.added");
  if (added != nullptr) added->Inc();
  UpdateDepthGauge(depth);
  trace::TraceContext ctx;
  if (trace::Tracer* tracer = trace::Tracer::Global()) {
    ctx = tracer->ContextForTx(hash);
    tracer->Event(ctx, "pool.admit", "chain",
                  {{"depth", std::to_string(depth)}});
  }
  if (obs::FlightRecorder::Global() != nullptr) {
    obs::FlightRecord(obs::FlightKind::kPoolAdmit, ctx.trace_id, tx.nonce,
                      depth, ToHex0x(BytesView(hash.data(), 8)));
  }
  return Status::OK();
}

std::vector<Transaction> TxPool::Take(size_t max_count, uint64_t gas_budget) {
  // The lock is held only to drain the queue and to put deferred entries
  // back, so Adds keep flowing while we pack (their entries queue behind
  // this batch and simply miss it).
  std::vector<Entry> staged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    staged.swap(queue_);
  }

  // Slot-preserving per-sender nonce sort: collect each sender's entry
  // indices (their slots, in submission order) and reassign that sender's
  // transactions to those slots in ascending nonce order. Applying the
  // transform to an already-ordered sequence is the identity, which is what
  // makes Blockchain::ImportBlock reproduce the producer's order.
  std::vector<size_t> order(staged.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::map<Address, std::vector<size_t>> by_sender;
  for (size_t i = 0; i < staged.size(); ++i) {
    by_sender[staged[i].sender].push_back(i);
  }
  std::map<Address, uint64_t> min_nonce;
  for (auto& [sender, slots] : by_sender) {
    uint64_t lowest = UINT64_MAX;
    for (size_t i : slots) lowest = std::min(lowest, staged[i].tx.nonce);
    min_nonce[sender] = lowest;
    if (slots.size() < 2) continue;
    std::vector<size_t> sorted = slots;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&staged](size_t a, size_t b) {
                       return staged[a].tx.nonce < staged[b].tx.nonce;
                     });
    for (size_t j = 0; j < slots.size(); ++j) order[slots[j]] = sorted[j];
  }

  // Greedy packing under the count and gas budgets. An entry that does not
  // fit the remaining budget blocks only the rest of its own sender's nonce
  // sequence (skipping ahead within one sender would reorder nonces);
  // packing continues with other senders. A sender's entries are only
  // taken while contiguous from the base nonce: gapped entries stay
  // pending, already-consumed nonces are dropped as unminable.
  enum class Fate : char { kDefer, kTake, kDrop };
  std::vector<Fate> fate(staged.size(), Fate::kDefer);
  struct SenderState {
    uint64_t expected = 0;
    bool blocked = false;
  };
  std::map<Address, SenderState> senders;
  uint64_t budget = gas_budget;
  std::vector<Transaction> out;
  for (size_t pos = 0; pos < order.size() && out.size() < max_count; ++pos) {
    Entry& entry = staged[order[pos]];
    auto [it, first_seen] = senders.try_emplace(entry.sender);
    SenderState& ss = it->second;
    if (first_seen) {
      ss.expected = base_nonce_ ? base_nonce_(entry.sender)
                                : min_nonce[entry.sender];
    }
    if (ss.blocked) continue;
    if (entry.tx.nonce < ss.expected) {
      fate[order[pos]] = Fate::kDrop;
      static obs::Counter* stale =
          obs::GetCounterOrNull("txpool.stale_dropped");
      if (stale != nullptr) stale->Inc();
      obs::FlightRecord(obs::FlightKind::kPoolDrop,
                        trace::CurrentContext().trace_id, entry.tx.nonce, 0,
                        "stale-nonce");
      continue;
    }
    if (entry.tx.nonce > ss.expected) {
      // Nonce gap: hold this and the rest of the sender's sequence until
      // the missing transaction arrives.
      ss.blocked = true;
      static obs::Counter* gaps = obs::GetCounterOrNull("txpool.gap_held");
      if (gaps != nullptr) gaps->Inc();
      continue;
    }
    if (entry.tx.gas_limit > budget) {
      ss.blocked = true;
      static obs::Counter* skips =
          obs::GetCounterOrNull("txpool.budget_skipped");
      if (skips != nullptr) skips->Inc();
      continue;
    }
    fate[order[pos]] = Fate::kTake;
    budget -= entry.tx.gas_limit;
    out.push_back(std::move(entry.tx));
    ++ss.expected;
  }

  // Deferred entries go back to the front of the queue, still ahead of
  // anything added while we packed; taken hashes enter the bounded
  // recently-taken window; dropped hashes are simply forgotten.
  std::vector<Entry> deferred;
  std::vector<std::string> taken_keys;
  std::vector<std::string> dropped_keys;
  for (size_t i = 0; i < staged.size(); ++i) {
    switch (fate[i]) {
      case Fate::kDefer:
        deferred.push_back(std::move(staged[i]));
        break;
      case Fate::kTake:
        taken_keys.push_back(std::move(staged[i].key));
        break;
      case Fate::kDrop:
        dropped_keys.push_back(std::move(staged[i].key));
        break;
    }
  }
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.begin(), std::make_move_iterator(deferred.begin()),
                  std::make_move_iterator(deferred.end()));
    for (const std::string& key : dropped_keys) pending_hashes_.erase(key);
    RememberTakenLocked(std::move(taken_keys));
    depth = pending_hashes_.size();
  }
  UpdateDepthGauge(depth);
  return out;
}

void TxPool::DropMined(const std::vector<Transaction>& mined) {
  std::unordered_set<std::string> mined_keys;
  std::map<Address, uint64_t> base_nonces;  // of the block's senders
  for (const Transaction& tx : mined) {
    mined_keys.insert(HashKey(tx.Hash()));
    Result<Address> sender = tx.Sender();
    if (sender.ok() && base_nonce_) {
      base_nonces.try_emplace(*sender, base_nonce_(*sender));
    }
  }
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(queue_, [&](const Entry& entry) {
      auto it = base_nonces.find(entry.sender);
      const bool drop =
          mined_keys.count(entry.key) > 0 ||
          (it != base_nonces.end() && entry.tx.nonce < it->second);
      if (drop) pending_hashes_.erase(entry.key);
      return drop;
    });
    RememberTakenLocked({mined_keys.begin(), mined_keys.end()});
    depth = pending_hashes_.size();
  }
  UpdateDepthGauge(depth);
}

void TxPool::RememberTakenLocked(std::vector<std::string> keys) {
  if (keys.empty()) return;
  for (const std::string& key : keys) {
    pending_hashes_.erase(key);
    recent_taken_.insert(key);
  }
  recent_batches_.push_back(std::move(keys));
  while (recent_batches_.size() > config_.recent_take_batches) {
    for (const std::string& key : recent_batches_.front()) {
      recent_taken_.erase(key);
    }
    recent_batches_.pop_front();
  }
}

size_t TxPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_hashes_.size();
}

bool TxPool::Contains(const Hash32& tx_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_hashes_.count(HashKey(tx_hash)) > 0;
}

bool TxPool::RecentlyTaken(const Hash32& tx_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  return recent_taken_.count(HashKey(tx_hash)) > 0;
}

}  // namespace onoff::chain
