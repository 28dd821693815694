// Blocks, headers and transaction receipts for the simulated chain.

#ifndef ONOFFCHAIN_CHAIN_BLOCK_H_
#define ONOFFCHAIN_CHAIN_BLOCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chain/transaction.h"
#include "crypto/keccak.h"
#include "evm/evm.h"
#include "support/address.h"
#include "support/bytes.h"

namespace onoff::chain {

struct BlockHeader {
  Hash32 parent_hash{};
  uint64_t number = 0;
  uint64_t timestamp = 0;
  Address coinbase;
  Hash32 state_root{};
  Hash32 tx_root{};       // trie root over RLP-indexed transactions
  Hash32 receipt_root{};  // trie root over RLP-indexed receipts
  uint64_t gas_used = 0;
  uint64_t gas_limit = 0;

  // keccak of the RLP-encoded header — the block hash.
  Hash32 Hash() const;
  Bytes Encode() const;
};

// The outcome of one included transaction.
struct Receipt {
  Hash32 tx_hash{};
  uint64_t block_number = 0;
  bool success = false;
  // Gas consumed by this transaction alone, and cumulative within the block.
  uint64_t gas_used = 0;
  uint64_t cumulative_gas_used = 0;
  std::vector<evm::LogEntry> logs;
  // Set for contract-creation transactions.
  Address contract_address;
  // REVERT reason bytes or return data, for debugging/tests.
  Bytes output;

  Bytes Encode() const;
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  Hash32 Hash() const { return header.Hash(); }
};

// Trie root over RLP(index) -> payload: the shape of the header's tx and
// receipt roots, computed by MineBlock and recomputed by the receipt_root
// invariant.
Hash32 IndexedRoot(const std::vector<Bytes>& payloads);

// Human-readable multi-line receipt summary (status, gas, contract address,
// every LOG0–LOG4 entry with topics and data) — the CLI's receipt output.
std::string DescribeReceipt(const Receipt& receipt);

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_BLOCK_H_
