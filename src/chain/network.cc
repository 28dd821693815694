#include "chain/network.h"

#include <memory>

#include "obs/metrics.h"

namespace onoff::chain {

Node::Node(std::string name, ChainConfig config, const GenesisAlloc& alloc)
    : name_(std::move(name)), chain_(std::move(config)) {
  for (const auto& [addr, amount] : alloc) {
    chain_.FundAccount(addr, amount);
  }
}

Status Node::AcceptBlock(const Block& block) {
  static obs::Histogram* accept_us = obs::GetHistogramOrNull(
      "net.accept_block_us", obs::DefaultTimeBucketsUs());
  static obs::Counter* accepted_count =
      obs::GetCounterOrNull("net.blocks_accepted");
  static obs::Counter* rejected_count =
      obs::GetCounterOrNull("net.blocks_rejected");
  obs::ScopedTimer accept_span(accept_us);
  Status st = chain_.ImportBlock(block);
  if (!st.ok()) ++rejected_;
  if (obs::Counter* outcome = st.ok() ? accepted_count : rejected_count) {
    outcome->Inc();
  }
  return st;
}

Status Node::SyncFrom(const std::vector<Block>& blocks) {
  for (size_t i = chain_.Height() + 1; i < blocks.size(); ++i) {
    ONOFF_RETURN_NOT_OK(AcceptBlock(blocks[i]));
  }
  return Status::OK();
}

size_t BlockWireSize(const Block& block) {
  size_t bytes = block.header.Encode().size();
  for (const Transaction& tx : block.transactions) {
    bytes += tx.Encode().size();
  }
  return bytes;
}

size_t Network::BroadcastBlock(const Node* from, const Block& block) {
  if (transport_ == nullptr) {
    size_t accepted = 0;
    for (Node* node : nodes_) {
      if (node == from) continue;
      if (node->AcceptBlock(block).ok()) ++accepted;
    }
    return accepted;
  }
  // One gossip message per peer; each delivery imports the block into the
  // receiving node whenever the transport says it arrives.
  auto accepted = std::make_shared<size_t>(0);
  const std::string origin = from != nullptr ? from->name() : "";
  const size_t wire_size = BlockWireSize(block);
  for (Node* node : nodes_) {
    if (node == from) continue;
    transport_->Deliver(origin, node->name(), wire_size,
                        [node, block, accepted] {
                          if (node->AcceptBlock(block).ok()) ++*accepted;
                        });
  }
  return *accepted;
}

size_t Network::ProduceAndBroadcast(Node* producer) {
  const Block& block = producer->ProduceBlock();
  return BroadcastBlock(producer, block);
}

Result<size_t> Network::CatchUp(Node* node, const Node& source) {
  static obs::Counter* catchups = obs::GetCounterOrNull("sim.sync_catchups");
  static obs::Counter* synced = obs::GetCounterOrNull("sim.sync_blocks");
  static obs::Histogram* span_us = obs::GetHistogramOrNull(
      "sim.sync_catchup_us", obs::DefaultTimeBucketsUs());
  obs::ScopedTimer span(span_us);
  uint64_t before = node->Height();
  ONOFF_RETURN_NOT_OK(node->SyncFrom(source.chain().blocks()));
  size_t applied = static_cast<size_t>(node->Height() - before);
  if (catchups != nullptr) catchups->Inc();
  if (synced != nullptr) synced->Inc(applied);
  return applied;
}

}  // namespace onoff::chain
