#include "chain/block.h"

#include "rlp/rlp.h"
#include "storage/shared_trie.h"

namespace onoff::chain {

namespace {

rlp::Item HashItem(const Hash32& h) {
  return rlp::Item::String(BytesView(h.data(), h.size()));
}

}  // namespace

Bytes BlockHeader::Encode() const {
  std::vector<rlp::Item> fields;
  fields.push_back(HashItem(parent_hash));
  fields.push_back(rlp::Item::Scalar(number));
  fields.push_back(rlp::Item::Scalar(timestamp));
  fields.push_back(rlp::Item::String(coinbase.view()));
  fields.push_back(HashItem(state_root));
  fields.push_back(HashItem(tx_root));
  fields.push_back(HashItem(receipt_root));
  fields.push_back(rlp::Item::Scalar(gas_used));
  fields.push_back(rlp::Item::Scalar(gas_limit));
  return rlp::Encode(rlp::Item::List(std::move(fields)));
}

Hash32 BlockHeader::Hash() const { return Keccak256(Encode()); }

Bytes Receipt::Encode() const {
  std::vector<rlp::Item> fields;
  fields.push_back(HashItem(tx_hash));
  fields.push_back(rlp::Item::Scalar(success ? 1 : 0));
  fields.push_back(rlp::Item::Scalar(cumulative_gas_used));
  std::vector<rlp::Item> log_items;
  for (const auto& log : logs) {
    std::vector<rlp::Item> topics;
    for (const auto& t : log.topics) {
      topics.push_back(rlp::Item::String(t.ToBytes()));
    }
    std::vector<rlp::Item> entry;
    entry.push_back(rlp::Item::String(log.address.view()));
    entry.push_back(rlp::Item::List(std::move(topics)));
    entry.push_back(rlp::Item::String(log.data));
    log_items.push_back(rlp::Item::List(std::move(entry)));
  }
  fields.push_back(rlp::Item::List(std::move(log_items)));
  return rlp::Encode(rlp::Item::List(std::move(fields)));
}

Hash32 IndexedRoot(const std::vector<Bytes>& payloads) {
  storage::SharedTrie trie;
  for (size_t i = 0; i < payloads.size(); ++i) {
    Bytes key = rlp::Encode(rlp::Item::Scalar(static_cast<uint64_t>(i)));
    trie.Put(key, payloads[i]);
  }
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
