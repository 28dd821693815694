// The invariant-violation sink. Concrete invariants live next to the state
// they watch (chain/chain_audit.h); what lives here is the part every layer
// shares: the structured ViolationReport and the Auditor that collects
// reports, counts them into the metrics registry, triggers a flight-recorder
// triage dump for the first violation of each invariant, and — in fail-fast
// mode — aborts the process so CI turns a silent correctness bug into a red
// run with a bundle attached.

#ifndef ONOFFCHAIN_OBS_AUDIT_H_
#define ONOFFCHAIN_OBS_AUDIT_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace onoff::obs {

// One detected invariant violation, carrying enough to triage without
// re-running: which invariant, where (block / tx / trace), and the offending
// values as name→value string pairs.
struct ViolationReport {
  std::string invariant;  // "conservation", "nonce", "settlement", ...
  std::string message;
  uint64_t trace_id = 0;
  uint64_t block_height = 0;
  std::string tx_hash;  // "0x…" or "" when not transaction-scoped
  std::vector<std::pair<std::string, std::string>> values;
  uint64_t ts_us = 0;  // stamped by Auditor::Report from obs::Clock

  Json ToJson() const;
  std::string ToString() const;
};

struct AuditorConfig {
  // Abort the process after reporting (the CI posture: a violated invariant
  // is a consensus bug, not a log line). Tests run with this off.
  bool fail_fast = false;
  // Dump a flight-recorder triage bundle into $ONOFF_FLIGHTREC_DIR for the
  // first violation of each invariant (no-op when no recorder is
  // installed). A persistent fault is one bundle, not one per block.
  bool dump_flight = true;
};

class Auditor {
 public:
  explicit Auditor(AuditorConfig config = {});

  // Stamps, records, counts (audit.violations + audit.violations.<name>),
  // logs, dumps the triage bundle on its invariant's first violation, and
  // aborts under fail_fast.
  void Report(ViolationReport report);

  uint64_t violations() const;
  std::vector<ViolationReport> Reports() const;
  // Forgets the kept reports and the count; an invariant that has dumped
  // its bundle does not dump again.
  void Clear();

 private:
  AuditorConfig config_;
  mutable std::mutex mu_;
  std::vector<ViolationReport> reports_;
  uint64_t total_ = 0;
  std::set<std::string> seen_;  // invariants reported at least once
};

}  // namespace onoff::obs

#endif  // ONOFFCHAIN_OBS_AUDIT_H_
