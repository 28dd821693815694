// A simulated peer-to-peer network: one block-producing authority node
// (Kovan was a PoA testnet) gossips blocks to replica nodes, each of which
// imports every block against its own head, executing it once
// (Blockchain::ImportBlock). Replicas therefore trust nothing but the
// genesis allocation and their own execution — the property that makes the
// on-chain contract's guarantees meaningful to the protocol's participants.
//
// Gossip optionally routes through a sim::SimTransport: with no transport
// set delivery is synchronous and lossless — identical to the pre-sim
// behaviour; with one every block travels the simulated network (latency,
// loss, partitions, crashes) and arrives when the virtual clock says it
// does.

#ifndef ONOFFCHAIN_CHAIN_NETWORK_H_
#define ONOFFCHAIN_CHAIN_NETWORK_H_

#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "chain/validator.h"
#include "sim/transport.h"

namespace onoff::chain {

class Node {
 public:
  Node(std::string name, ChainConfig config, const GenesisAlloc& alloc);

  // ---- Producer-side ----
  Result<Hash32> SubmitTransaction(const Transaction& tx) {
    return chain_.SubmitTransaction(tx);
  }
  // Mines the next block from the local pool; the caller gossips it.
  const Block& ProduceBlock() { return chain_.MineBlock(); }

  // ---- Replica-side ----
  // Imports `block` on top of the local head (Blockchain::ImportBlock) and
  // counts the outcome. A rejected block leaves the node unchanged.
  Status AcceptBlock(const Block& block);
  // Catches a fresh node up from a block history (initial sync).
  Status SyncFrom(const std::vector<Block>& blocks);

  // ---- Inspection ----
  const std::string& name() const { return name_; }
  Blockchain& chain() { return chain_; }
  const Blockchain& chain() const { return chain_; }
  uint64_t Height() const { return chain_.Height(); }
  Hash32 HeadHash() const { return chain_.blocks().back().Hash(); }
  size_t rejected_blocks() const { return rejected_; }

 private:
  std::string name_;
  Blockchain chain_;
  size_t rejected_ = 0;
};

// The gossip fabric: registered nodes receive every broadcast block.
class Network {
 public:
  void AddNode(Node* node) { nodes_.push_back(node); }

  // Routes block deliveries through `transport` (node names are the
  // endpoints). nullptr restores the synchronous zero-latency default.
  void SetTransport(sim::SimTransport* transport) { transport_ = transport; }

  // Delivers `block` to every node except `from`. Returns how many nodes
  // accepted it so far: with no transport that is the final count; with a
  // transport deliveries land as the scheduler runs, so the caller inspects
  // nodes (or obs counters) after driving the clock.
  size_t BroadcastBlock(const Node* from, const Block& block);

  // Convenience: `producer` mines one block and gossips it.
  size_t ProduceAndBroadcast(Node* producer);

  // Imports `source`'s blocks above `node`'s head (crash-restart or
  // late-join catch-up), bypassing the transport — sync is modelled as a
  // reliable bulk fetch. Returns the number of blocks applied.
  Result<size_t> CatchUp(Node* node, const Node& source);

 private:
  std::vector<Node*> nodes_;
  sim::SimTransport* transport_ = nullptr;
};

// Approximate gossip wire size of a block (header + transactions, RLP).
size_t BlockWireSize(const Block& block);

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_NETWORK_H_
