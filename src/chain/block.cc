#include "chain/block.h"

#include <algorithm>

#include "rlp/rlp.h"
#include "storage/shared_trie.h"

namespace onoff::chain {

Bytes BlockHeader::Encode() const {
  Bytes out;
  rlp::Writer w(&out);
  const size_t list = w.BeginList();
  w.String(parent_hash);
  w.Scalar(number);
  w.Scalar(timestamp);
  w.String(coinbase.view());
  w.String(state_root);
  w.String(tx_root);
  w.String(receipt_root);
  w.Scalar(gas_used);
  w.Scalar(gas_limit);
  w.EndList(list);
  return out;
}

Hash32 BlockHeader::Hash() const { return Keccak256(Encode()); }

Bytes Receipt::Encode() const {
  Bytes out;
  rlp::Writer w(&out);
  const size_t list = w.BeginList();
  w.String(tx_hash);
  w.Scalar(uint64_t{success ? 1u : 0u});
  w.Scalar(cumulative_gas_used);
  const size_t log_list = w.BeginList();
  for (const auto& log : logs) {
    const size_t entry = w.BeginList();
    w.String(log.address.view());
    const size_t topics = w.BeginList();
    for (const U256& t : log.topics) w.String(t.ToBigEndian());
    w.EndList(topics);
    w.String(log.data);
    w.EndList(entry);
  }
  w.EndList(log_list);
  w.EndList(list);
  return out;
}

Hash32 IndexedRoot(const std::vector<Bytes>& payloads) {
  // Keyed by RLP(i), folded into an empty trie in key order.
  std::vector<Bytes> keys(payloads.size());
  std::vector<storage::TrieWrite> writes;
  writes.reserve(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    rlp::Writer(&keys[i]).Scalar(uint64_t{i});
    writes.push_back({keys[i], payloads[i]});
  }
  std::sort(writes.begin(), writes.end(), storage::TrieWrite::KeyLess);
  storage::SharedTrie trie;
  trie.PutSorted(writes);
  return trie.RootHash();
}

std::string DescribeReceipt(const Receipt& receipt) {
  std::string out;
  out += "tx " + ToHex0x(BytesView(receipt.tx_hash.data(),
                                   receipt.tx_hash.size()));
  out += "\n  status:   ";
  out += receipt.success ? "success" : "failed";
  out += "\n  block:    " + std::to_string(receipt.block_number);
  out += "\n  gas used: " + std::to_string(receipt.gas_used);
  out += " (cumulative " + std::to_string(receipt.cumulative_gas_used) + ")";
  if (receipt.contract_address != Address()) {
    out += "\n  contract: " + receipt.contract_address.ToHex();
  }
  if (!receipt.output.empty()) {
    out += "\n  output:   " + ToHex0x(receipt.output);
  }
  out += "\n  logs:     " + std::to_string(receipt.logs.size());
  for (size_t i = 0; i < receipt.logs.size(); ++i) {
    const evm::LogEntry& log = receipt.logs[i];
    out += "\n    log[" + std::to_string(i) + "] " + log.address.ToHex();
    for (const U256& topic : log.topics) {
      out += "\n      topic " + topic.ToHexFull();
    }
    out += "\n      data  ";
    out += log.data.empty() ? "(empty)" : ToHex0x(log.data);
  }
  return out;
}

}  // namespace onoff::chain
