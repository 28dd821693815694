// Memoized bytecode analysis for the EVM interpreter hot path.
//
// `Analyze` decodes a contract's bytecode once into (a) the classic
// jumpdest validity bitmap, (b) basic blocks carrying hoisted static gas
// and worst-case stack requirements, and (c) a flat instruction stream of
// fixed-size cells the threaded dispatcher (interp.cc) executes directly —
// including fused superinstructions for the sequences our easm codegen
// emits hottest (PUSH+JUMP, PUSH+JUMPI, DUP+MLOAD, PUSH+binop, and
// constant-folded PUSH+PUSH+binop).
//
// `CodeAnalysisCache` memoizes analyses process-wide, keyed by code hash:
// code is content-addressed, so entries never need invalidation — a
// redeploy at the same address has a different hash and simply misses.
// Retained analyses are held to a fixed byte budget, oldest evicted first.
// The cache is thread-safe (the parallel executor hits it from every
// worker) and hands out shared_ptr<const ...> so entries stay alive across
// concurrent frames regardless of eviction.
//
// Exactness contract (see DESIGN.md §11 for the argument): executing the
// cell stream must be byte-identical to the reference switch interpreter
// in every observable — outcome, gas accounting, state, logs, output, and
// per-opcode metric totals. The two load-bearing rules are
//   1. gas is hoisted only across ops without OpcodeInfo::dynamic_gas
//      (their whole charge is the table's static_gas, and they fail for no
//      reason but gas); every dynamic op that does not end its block is a
//      *checkpoint* whose handler replicates the switch sequence exactly,
//      so remaining gas at every checkpoint equals the switch
//      interpreter's; and
//   2. when a hoisted check fails (block entry or segment charge), no
//      effect of the covered ops has been applied yet, so the interpreter
//      re-enters the reference switch loop at that pc and lets it produce
//      the exact halt label, gas and counters (the frame is provably about
//      to halt, so the replay is O(block)).

#ifndef ONOFFCHAIN_EVM_ANALYSIS_CACHE_H_
#define ONOFFCHAIN_EVM_ANALYSIS_CACHE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/keccak.h"
#include "support/bytes.h"
#include "support/u256.h"

namespace onoff::evm {

// Handler identifiers for the threaded dispatcher, in one list of two
// parts. Each real-opcode handler runs the opcode of its name, except that
// R(name, first, last) runs the whole family first..last (PUSH1..PUSH32 and
// so on). The pseudo-ops are what the decoder synthesizes: block
// bookkeeping and fused superinstructions. The Handler enum, the
// computed-goto label table (interp.cc) and the opcode-to-handler map
// (analysis_cache.cc) all expand these lists.
#define ONOFF_EVM_OPCODE_HANDLERS(X, R)                                       \
  X(STOP) X(ADD) X(MUL) X(SUB) X(DIV) X(SDIV) X(MOD) X(SMOD) X(ADDMOD)        \
  X(MULMOD) X(EXP) X(SIGNEXTEND)                                              \
  X(LT) X(GT) X(SLT) X(SGT) X(EQ) X(ISZERO) X(AND) X(OR) X(XOR) X(NOT)        \
  X(BYTE) X(SHL) X(SHR) X(SAR)                                                \
  X(SHA3)                                                                     \
  X(ADDRESS) X(BALANCE) X(ORIGIN) X(CALLER) X(CALLVALUE) X(CALLDATALOAD)      \
  X(CALLDATASIZE) X(CALLDATACOPY) X(CODESIZE) X(CODECOPY) X(GASPRICE)         \
  X(EXTCODESIZE) X(EXTCODECOPY) X(RETURNDATASIZE) X(RETURNDATACOPY)           \
  X(BLOCKHASH) X(COINBASE) X(TIMESTAMP) X(NUMBER) X(DIFFICULTY) X(GASLIMIT)   \
  X(POP) X(MLOAD) X(MSTORE) X(MSTORE8) X(SLOAD) X(SSTORE) X(JUMP) X(JUMPI)    \
  X(PC) X(MSIZE) X(GAS)                                                       \
  R(PUSH, PUSH1, PUSH32) R(DUP, DUP1, DUP16) R(SWAP, SWAP1, SWAP16)           \
  R(LOG, LOG0, LOG4)                                                          \
  X(CREATE) X(CALL) X(CALLCODE) X(RETURN) X(DELEGATECALL) X(CREATE2)          \
  X(STATICCALL) X(REVERT) X(INVALID) X(SELFDESTRUCT)
#define ONOFF_EVM_PSEUDO_HANDLERS(X)                                          \
  X(BEGIN_BLOCK) X(CHARGE) X(IMPLICIT_STOP)                                   \
  X(PUSH_JUMP) X(PUSH_JUMP_BAD) X(PUSH_JUMPI) X(PUSH_JUMPI_BAD)               \
  X(DUP_MLOAD) X(PUSH_BINOP)
// Every handler in enum order, each as X(name) or X(name, first, last).
#define ONOFF_EVM_HANDLER_LIST(X) \
  ONOFF_EVM_OPCODE_HANDLERS(X, X) ONOFF_EVM_PSEUDO_HANDLERS(X)

enum class Handler : uint8_t {
#define ONOFF_EVM_H_ENUM(name, ...) name,
  ONOFF_EVM_HANDLER_LIST(ONOFF_EVM_H_ENUM)
#undef ONOFF_EVM_H_ENUM
      kCount,
};

// One decoded instruction. `imm` is overloaded per handler: constant-pool
// index (PUSH, PUSH_BINOP), target cell index (PUSH_JUMP*, PUSH_JUMPI*),
// block index (BEGIN_BLOCK), or a hoisted static-gas amount (CHARGE).
// `ops_end` is the count of original opcodes of the enclosing block whose
// execution has begun once this cell runs — the prefix of the block's
// opcode list to credit to the metrics counters if the cell halts the
// frame. `arg` carries the DUP/SWAP/LOG n or the folded binop Handler.
struct CodeCell {
  uint32_t imm = 0;
  uint32_t pc = 0;
  uint32_t ops_end = 0;
  uint8_t op = 0;  // a Handler value
  uint8_t arg = 0;
};

// One basic block. `base_gas` is the static gas of the ops before the
// first checkpoint (charged at block entry); later segments hang off
// CHARGE cells. `stack_req`/`stack_max` are the entry stack height the
// block needs and its worst-case net growth, both clamped to kMaxStack+1
// (an always-failing sentinel) when a pathological block exceeds them.
struct CodeBlock {
  uint64_t base_gas = 0;
  uint32_t start_pc = 0;
  uint32_t ops_begin = 0;
  uint32_t ops_count = 0;
  uint32_t agg_begin = 0;
  uint32_t agg_end = 0;
  uint16_t stack_req = 0;
  uint16_t stack_max = 0;
};

struct CodeAnalysis {
  // pc -> is a valid JUMPDEST (not inside PUSH immediate data).
  std::vector<bool> jumpdests;
  std::vector<CodeCell> cells;
  std::vector<CodeBlock> blocks;
  // Original opcode bytes per block (counter flushing on halt paths).
  std::vector<uint8_t> ops;
  // Aggregated (opcode, count) pairs per block (the fast flush).
  std::vector<std::pair<uint8_t, uint32_t>> agg;
  // PUSH immediates (zero-padded when truncated at end of code).
  std::vector<U256> pool;
  // pc -> BEGIN_BLOCK cell index for valid JUMPDESTs, -1 otherwise.
  std::vector<int32_t> jump_cell;
  // Set when the code defeats the u32 fields (multi-GB static segments);
  // such code must run on the reference switch interpreter.
  bool switch_only = false;
};

// Marks the positions of valid JUMPDESTs (not inside PUSH immediates).
// Shared with the reference interpreter and the static analyzer's CFG.
std::vector<bool> AnalyzeJumpdests(BytesView code);

// Full decode, superinstructions fused. A fused cell stands for several
// instructions, so a PUSH cell's immediate is not always the byte-level
// PUSH immediate at its pc (a folded PUSH+PUSH+binop leaves one PUSH cell
// holding the folded constant); byte-level consumers decode the bytes.
CodeAnalysis Analyze(const Bytes& code);

// The binop evaluation shared by the PUSH_BINOP handler, decode-time
// constant folding and (by construction) the switch interpreter: `a` is
// the first-popped (top) operand, exactly as the switch cases bind it.
U256 EvalBinop(Handler h, const U256& a, const U256& b);

// True for the static-cost binary ops PUSH+binop fusion may absorb: the
// opcodes that pop two words, push one and have no dynamic gas (the twenty
// arithmetic, comparison, bitwise and shift binops; EXP is dynamic).
bool IsFusableBinop(uint8_t opcode_byte);

// Handler id of a fusable binary opcode byte (IsFusableBinop must hold);
// lets the reference loop share EvalBinop with the threaded handlers.
Handler BinopHandler(uint8_t opcode_byte);

// Heap bytes an analysis holds (its vectors' capacities) plus the struct
// itself: what the cache charges against its budget for one entry.
size_t RetainedBytes(const CodeAnalysis& analysis);

class CodeAnalysisCache {
 public:
  // Content-addressed entries never go stale, so the budget is purely a
  // memory bound: past it the oldest entries are evicted, and an analysis
  // larger than the whole budget is returned without being retained.
  static constexpr size_t kBudgetBytes = size_t{16} << 20;

  static CodeAnalysisCache& Global();

  // Returns the memoized analysis for `code_hash`, building it from `code`
  // on a miss. Thread-safe; the build runs outside the lock so concurrent
  // misses on distinct codes do not serialize.
  std::shared_ptr<const CodeAnalysis> Get(const Hash32& code_hash,
                                          const Bytes& code);

  size_t size() const;
  // RetainedBytes summed over the entries; never above kBudgetBytes.
  size_t bytes() const;
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const CodeAnalysis> analysis;
    size_t bytes = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::deque<std::string> order_;  // keys in insertion order, oldest first
  size_t bytes_ = 0;
};

}  // namespace onoff::evm

#endif  // ONOFFCHAIN_EVM_ANALYSIS_CACHE_H_
