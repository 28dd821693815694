// Chain verification: imports a block sequence into a fresh replica built
// from the genesis allocation, one Blockchain::ImportBlock per block. This
// is what an honest full node does when it syncs — and what makes the
// on-chain contract's state trustworthy to the protocol's participants
// without trusting the block producer.

#ifndef ONOFFCHAIN_CHAIN_VALIDATOR_H_
#define ONOFFCHAIN_CHAIN_VALIDATOR_H_

#include <utility>
#include <vector>

#include "chain/blockchain.h"
#include "support/status.h"

namespace onoff::chain {

// The genesis allocation a verifier starts from.
using GenesisAlloc = std::vector<std::pair<Address, U256>>;

struct VerifyOptions {
  // Pre-recover every transaction sender across all blocks on the shared
  // thread pool before replaying. The replay itself stays strictly serial
  // and deterministic: recoveries are memoized per transaction, so the
  // replay consumes identical values whether they were computed in
  // parallel up front or serially on demand (failed recoveries are never
  // cached and are re-derived — and re-rejected — serially).
  bool parallel_sender_recovery = true;
};

// Checks that block 0 is the genesis a Blockchain with `config` and `alloc`
// produces, then imports the rest into such a replica. Returns OK iff the
// whole chain is reproducible, else the first ImportBlock error.
Status VerifyChain(const std::vector<Block>& blocks, const GenesisAlloc& alloc,
                   const ChainConfig& config,
                   const VerifyOptions& options = VerifyOptions{});

// Convenience: verifies a live chain against its own config.
Status VerifyChain(const Blockchain& chain, const GenesisAlloc& alloc);

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_VALIDATOR_H_
