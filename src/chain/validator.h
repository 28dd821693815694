// Chain verification: imports a block sequence into a fresh replica built
// from the genesis allocation, one Blockchain::ImportBlock per block. This
// is what an honest full node does when it syncs — and what makes the
// on-chain contract's state trustworthy to the protocol's participants
// without trusting the block producer. Each import recovers its block's
// senders on ThreadPool::Shared() (batch admission), so VerifyChain must
// not run on a Shared() worker or inside the parallel executor's wave.

#ifndef ONOFFCHAIN_CHAIN_VALIDATOR_H_
#define ONOFFCHAIN_CHAIN_VALIDATOR_H_

#include <utility>
#include <vector>

#include "chain/blockchain.h"
#include "support/status.h"

namespace onoff::chain {

// The genesis allocation a verifier starts from.
using GenesisAlloc = std::vector<std::pair<Address, U256>>;

// Checks that block 0 is the genesis a Blockchain with `config` and `alloc`
// produces, then imports the rest into such a replica. Returns OK iff the
// whole chain is reproducible, else the first ImportBlock error.
Status VerifyChain(const std::vector<Block>& blocks, const GenesisAlloc& alloc,
                   const ChainConfig& config);

// Convenience: verifies a live chain against its own config.
Status VerifyChain(const Blockchain& chain, const GenesisAlloc& alloc);

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_VALIDATOR_H_
