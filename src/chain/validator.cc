#include "chain/validator.h"

#include "obs/metrics.h"

namespace onoff::chain {

namespace {

Status VerifyChainImpl(const std::vector<Block>& blocks,
                       const GenesisAlloc& alloc, const ChainConfig& config) {
  if (blocks.empty()) {
    return Status::InvalidArgument("chain has no genesis block");
  }

  // Rebuild from genesis on a replica node.
  Blockchain replica(config);
  for (const auto& [addr, amount] : alloc) {
    replica.FundAccount(addr, amount);
  }
  if (replica.blocks()[0].Hash() != blocks[0].Hash()) {
    return Status::VerificationFailed(
        "genesis mismatch: wrong config or allocation");
  }

  static obs::Histogram* block_us = obs::GetHistogramOrNull(
      "validator.verify_block_us", obs::DefaultTimeBucketsUs());
  for (size_t i = 1; i < blocks.size(); ++i) {
    obs::ScopedTimer block_span(block_us);
    ONOFF_RETURN_NOT_OK(replica.ImportBlock(blocks[i]));
  }
  return Status::OK();
}

}  // namespace

Status VerifyChain(const std::vector<Block>& blocks, const GenesisAlloc& alloc,
                   const ChainConfig& config) {
  static obs::Histogram* replay_us = obs::GetHistogramOrNull(
      "validator.verify_replay_us", obs::DefaultTimeBucketsUs());
  static obs::Counter* ok_count =
      obs::GetCounterOrNull("validator.chains_verified");
  static obs::Counter* failed_count =
      obs::GetCounterOrNull("validator.verify_failures");
  obs::ScopedTimer replay_span(replay_us);
  Status st = VerifyChainImpl(blocks, alloc, config);
  if (obs::Counter* outcome = st.ok() ? ok_count : failed_count) {
    outcome->Inc();
  }
  return st;
}

Status VerifyChain(const Blockchain& chain, const GenesisAlloc& alloc) {
  return VerifyChain(chain.blocks(), alloc, chain.config());
}

}  // namespace onoff::chain
