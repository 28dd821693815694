#pragma once

// Per-selector storage access summaries (DESIGN §12). The dataflow engine
// produces, for every dispatchable selector and for the program as a
// whole, an over-approximation of the storage slots the code may read or
// write plus its externally-visible effects. The parallel executor turns
// these into static access hints: transactions whose summarized footprints
// are pairwise disjoint commit without dynamic conflict checks.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "analysis/taint.h"
#include "crypto/keccak.h"
#include "support/bytes.h"

namespace onoff::analysis {

// {slots} | ⊤. Unlike ValueSet this is unbounded below ⊤: summaries are
// computed once per code hash and cached, so precision wins over the few
// extra words. ⊤ means "any slot" (an unresolved SLOAD/SSTORE key).
struct SlotSet {
  bool top = false;
  std::set<U256> slots;

  void Add(const ValueSet& keys) {
    if (top) return;
    if (keys.top) {
      top = true;
      slots.clear();
      return;
    }
    slots.insert(keys.values.begin(), keys.values.end());
  }
  void Join(const SlotSet& other) {
    if (top) return;
    if (other.top) {
      top = true;
      slots.clear();
      return;
    }
    slots.insert(other.slots.begin(), other.slots.end());
  }
  bool empty() const { return !top && slots.empty(); }
  bool Disjoint(const SlotSet& other) const;

  std::string ToString() const;
};

// What one selector (or the whole program) may do to world state.
struct AccessSummary {
  SlotSet reads;
  SlotSet writes;
  // Union of effect:: bits over every reachable block (incl. dispatch).
  uint32_t effects = 0;
  // BALANCE / EXTCODESIZE / EXTCODECOPY: reads of *other* accounts' state
  // that the slot sets cannot express.
  bool external_reads = false;

  void Join(const AccessSummary& other) {
    reads.Join(other.reads);
    writes.Join(other.writes);
    effects |= other.effects;
    external_reads = external_reads || other.external_reads;
  }

  // True when the summary is precise enough to bound a transaction's
  // footprint (a known access hint): every storage key resolved to
  // constants, and no opcode that reaches beyond the executing contract's
  // own storage (calls, creates, selfdestruct, external reads). Such a
  // frame's dynamic accesses are provably contained in
  // {self} × (reads ∪ writes).
  bool StaticallySchedulable() const;

  std::string ToString() const;
};

struct SelectorAccess {
  uint32_t selector = 0;
  std::string name;  // from AnalysisOptions::function_names, may be empty
  AccessSummary access;
};

// Whole-contract result: the program-wide summary (sound for any entry,
// any calldata) plus per-selector refinements when dispatch was recovered.
struct ProgramAccess {
  AccessSummary program;
  std::vector<SelectorAccess> selectors;

  const AccessSummary* ForSelector(uint32_t selector) const {
    for (const SelectorAccess& s : selectors) {
      if (s.selector == selector) return &s.access;
    }
    return nullptr;
  }
};

// Process-wide summary cache keyed by code hash, mirroring
// evm::CodeAnalysisCache so the hint builder pays the dataflow cost once
// per contract, not once per transaction. Codes whose analysis reports
// errors yield a ⊤ summary (never schedulable, so an unknown hint).
class AccessSummaryCache {
 public:
  static AccessSummaryCache& Global();

  // `code` is only inspected on a miss.
  std::shared_ptr<const ProgramAccess> Get(const Hash32& code_hash,
                                           BytesView code);

  void Clear();

 private:
  static constexpr size_t kMaxEntries = 4096;

  std::mutex mu_;
  std::map<Hash32, std::shared_ptr<const ProgramAccess>> entries_;
};

}  // namespace onoff::analysis
