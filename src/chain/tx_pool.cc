#include "chain/tx_pool.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "support/bytes.h"

namespace onoff::chain {

namespace {

void UpdateDepthGauge(size_t depth) {
  static obs::Gauge* gauge = obs::GetGaugeOrNull("txpool.depth");
  if (gauge != nullptr) gauge->Set(static_cast<int64_t>(depth));
}

}  // namespace

Status TxPool::Add(PendingTx entry) {
  const Hash32 hash = entry.hash;
  const trace::TraceContext ctx = entry.trace;
  const uint64_t nonce = entry.tx.nonce;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_hashes_.count(hash) > 0) {
      static obs::Counter* dups = obs::GetCounterOrNull("txpool.duplicates");
      if (dups != nullptr) dups->Inc();
      return Status::AlreadyExists("transaction already in pool");
    }
    if (recent_taken_.count(hash) > 0) {
      static obs::Counter* retaken =
          obs::GetCounterOrNull("txpool.retaken_rejected");
      if (retaken != nullptr) retaken->Inc();
      return Status::AlreadyExists(
          "transaction was recently taken (in flight or mined)");
    }
    pending_hashes_.insert(hash);
    queue_.push_back(std::move(entry));
    depth = pending_hashes_.size();
  }
  static obs::Counter* added = obs::GetCounterOrNull("txpool.added");
  if (added != nullptr) added->Inc();
  UpdateDepthGauge(depth);
  if (trace::Tracer* tracer = trace::Tracer::Global()) {
    tracer->Event(ctx, "pool.admit", "chain",
                  {{"depth", std::to_string(depth)}});
  }
  if (obs::FlightRecorder::Global() != nullptr) {
    obs::FlightRecord(obs::FlightKind::kPoolAdmit, ctx.trace_id, nonce, depth,
                      ToHex0x(BytesView(hash.data(), 8)));
  }
  return Status::OK();
}

std::vector<PendingTx> TxPool::Take(size_t max_count, uint64_t gas_budget) {
  // The lock is held only to drain the queue and to put deferred entries
  // back, so Adds keep flowing while we pack (their entries queue behind
  // this batch and simply miss it).
  std::vector<PendingTx> staged;
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
  for (auto& [sender, slots] : by_sender) {
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
  std::vector<PendingTx> out;
  std::vector<Hash32> taken_hashes;
  for (size_t pos = 0; pos < order.size() && out.size() < max_count; ++pos) {
    PendingTx& entry = staged[order[pos]];
    auto [it, first_seen] = senders.try_emplace(entry.sender);
    SenderState& ss = it->second;
    if (first_seen) ss.expected = base_nonce_(entry.sender);
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
    ++ss.expected;
    taken_hashes.push_back(entry.hash);
    out.push_back(std::move(entry));
  }

  // Deferred entries go back to the front of the queue, still ahead of
  // anything added while we packed; taken hashes enter the bounded
  // recently-taken window; dropped hashes are simply forgotten.
  std::vector<PendingTx> deferred;
  std::vector<Hash32> dropped_hashes;
  for (size_t i = 0; i < staged.size(); ++i) {
    switch (fate[i]) {
      case Fate::kDefer:
        deferred.push_back(std::move(staged[i]));
        break;
      case Fate::kTake:
        break;
      case Fate::kDrop:
        dropped_hashes.push_back(staged[i].hash);
        break;
    }
  }
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.begin(), std::make_move_iterator(deferred.begin()),
                  std::make_move_iterator(deferred.end()));
    for (const Hash32& hash : dropped_hashes) pending_hashes_.erase(hash);
    RememberTakenLocked(std::move(taken_hashes));
    depth = pending_hashes_.size();
  }
  UpdateDepthGauge(depth);
  return out;
}

void TxPool::DropMined(std::span<const PendingTx> mined) {
  HashSet mined_hashes;
  std::map<Address, uint64_t> base_nonces;  // of the block's senders
  for (const PendingTx& record : mined) {
    mined_hashes.insert(record.hash);
    base_nonces.try_emplace(record.sender, base_nonce_(record.sender));
  }
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(queue_, [&](const PendingTx& entry) {
      auto it = base_nonces.find(entry.sender);
      const bool drop =
          mined_hashes.count(entry.hash) > 0 ||
          (it != base_nonces.end() && entry.tx.nonce < it->second);
      if (drop) pending_hashes_.erase(entry.hash);
      return drop;
    });
    RememberTakenLocked({mined_hashes.begin(), mined_hashes.end()});
    depth = pending_hashes_.size();
  }
  UpdateDepthGauge(depth);
}

void TxPool::RememberTakenLocked(std::vector<Hash32> hashes) {
  if (hashes.empty()) return;
  for (const Hash32& hash : hashes) {
    pending_hashes_.erase(hash);
    recent_taken_.insert(hash);
  }
  recent_batches_.push_back(std::move(hashes));
  while (recent_batches_.size() > kRecentTakeBatches) {
    for (const Hash32& hash : recent_batches_.front()) {
      recent_taken_.erase(hash);
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
  return pending_hashes_.count(tx_hash) > 0;
}

bool TxPool::RecentlyTaken(const Hash32& tx_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  return recent_taken_.count(tx_hash) > 0;
}

}  // namespace onoff::chain
