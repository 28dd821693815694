#include "analysis/analyzer.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>
#include <utility>

#include "analysis/dataflow.h"
#include "evm/gas.h"
#include "obs/metrics.h"

namespace onoff::analysis {

namespace gas = evm::gas;
using evm::GetOpcodeInfo;
using evm::Opcode;
using evm::OpcodeInfo;

namespace {

// ---- Abstract domain ----------------------------------------------------

// One stack slot: a known 256-bit constant, or ⊤.
struct AbstractValue {
  bool known = false;
  U256 value;

  static AbstractValue Top() { return AbstractValue{}; }
  static AbstractValue Constant(const U256& v) {
    return AbstractValue{true, v};
  }
};

using AbstractStack = std::vector<AbstractValue>;

// Slot at depth `i` from the top (0 = top of stack).
const AbstractValue& At(const AbstractStack& stack, size_t i) {
  return stack[stack.size() - 1 - i];
}

// ---- Worst-case per-instruction gas -------------------------------------

// Anything addressing beyond 4 GiB of memory out-of-gasses on every real
// block (and the interpreter rejects it outright), so a constant that large
// makes the bound ⊤.
constexpr uint64_t kAbsurdBytes = uint64_t{1} << 32;

// Worst-case byte count of a dynamic operand: the constant if known, the
// configured envelope otherwise; nullopt = absurdly large (treat as ⊤).
std::optional<uint64_t> WorstBytes(const AbstractValue& v, uint64_t maxd) {
  if (!v.known) return maxd;
  if (!v.value.FitsUint64() || v.value.low64() > kAbsurdBytes) {
    return std::nullopt;
  }
  return v.value.low64();
}

// Upper bound on the memory-expansion charge of touching [off, off+size):
// the TOTAL expansion cost from empty memory to the touched end, which
// dominates the interpreter's incremental charge from any prior size.
GasBound MemCost(const AbstractValue& off, const AbstractValue& size,
                 uint64_t maxd) {
  std::optional<uint64_t> sz = WorstBytes(size, maxd);
  if (!sz.has_value()) return GasBound::Unbounded();
  if (*sz == 0) return GasBound{};
  std::optional<uint64_t> of = WorstBytes(off, maxd);
  if (!of.has_value()) return GasBound::Unbounded();
  return GasBound{true, gas::MemoryCost(gas::ToWords(*of + *sz))};
}

// Words covered by a worst-case byte count.
GasBound PerWordCost(uint64_t per_word, std::optional<uint64_t> bytes) {
  if (!bytes.has_value()) return GasBound::Unbounded();
  return GasBound{true, per_word * gas::ToWords(*bytes)};
}

// An upper bound on what the interpreter charges for `ins`, given the
// abstract stack BEFORE the instruction executes. Callers have already
// verified the stack holds at least stack_in items. Every execution pays
// the opcode table's static_gas; the opcodes whose charge has a runtime-
// dependent part add its worst case.
GasBound InstrWorstGas(const Instruction& ins, const AbstractStack& stack,
                       const AnalysisOptions& opt) {
  uint8_t op = ins.opcode;
  uint64_t maxd = opt.max_dynamic_bytes;
  GasBound fixed{true, GetOpcodeInfo(op).static_gas};
  if (evm::IsLog(op)) {
    std::optional<uint64_t> bytes = WorstBytes(At(stack, 1), maxd);
    if (!bytes.has_value()) return GasBound::Unbounded();
    return fixed + GasBound{true, gas::kLogData * *bytes} +
           MemCost(At(stack, 0), At(stack, 1), maxd);
  }
  switch (static_cast<Opcode>(op)) {
    case Opcode::EXP: {
      const AbstractValue& exponent = At(stack, 1);
      uint64_t bytes = 32;
      if (exponent.known) {
        bytes = static_cast<uint64_t>((exponent.value.BitLength() + 7) / 8);
      }
      return fixed + GasBound{true, gas::kExpByte * bytes};
    }
    case Opcode::SHA3: {
      GasBound words = PerWordCost(gas::kSha3Word, WorstBytes(At(stack, 1), maxd));
      return fixed + words + MemCost(At(stack, 0), At(stack, 1), maxd);
    }
    case Opcode::CALLDATACOPY:
    case Opcode::CODECOPY:
    case Opcode::RETURNDATACOPY:
      return fixed + PerWordCost(gas::kCopy, WorstBytes(At(stack, 2), maxd)) +
             MemCost(At(stack, 0), At(stack, 2), maxd);
    case Opcode::EXTCODECOPY:
      return fixed + PerWordCost(gas::kCopy, WorstBytes(At(stack, 3), maxd)) +
             MemCost(At(stack, 1), At(stack, 3), maxd);
    case Opcode::MLOAD:
    case Opcode::MSTORE:
      return fixed +
             MemCost(At(stack, 0), AbstractValue::Constant(U256(32)), maxd);
    case Opcode::MSTORE8:
      return fixed +
             MemCost(At(stack, 0), AbstractValue::Constant(U256(1)), maxd);
    case Opcode::SSTORE:
      // Worst case: writing a non-zero value into an empty slot.
      return fixed + GasBound{true, gas::kSstoreSet};
    case Opcode::RETURN:
    case Opcode::REVERT:
      return fixed + MemCost(At(stack, 0), At(stack, 1), maxd);
    case Opcode::SELFDESTRUCT:
      return fixed + GasBound{true, gas::kCallNewAccount};
    case Opcode::CREATE:
    case Opcode::CREATE2:
      // Forwards all but one 64th of the remaining gas.
      return GasBound::Unbounded();
    case Opcode::CALL:
    case Opcode::CALLCODE:
    case Opcode::DELEGATECALL:
    case Opcode::STATICCALL: {
      bool has_value = op == static_cast<uint8_t>(Opcode::CALL) ||
                       op == static_cast<uint8_t>(Opcode::CALLCODE);
      GasBound cost = fixed;
      size_t in_off_depth = has_value ? 3 : 2;
      if (has_value) {
        const AbstractValue& value = At(stack, 2);
        if (!value.known || !value.value.IsZero()) {
          cost = cost + GasBound{true, gas::kCallValue};
          if (op == static_cast<uint8_t>(Opcode::CALL)) {
            cost = cost + GasBound{true, gas::kCallNewAccount};
          }
        }
      }
      cost = cost + MemCost(At(stack, in_off_depth), At(stack, in_off_depth + 1),
                            maxd);
      cost = cost + MemCost(At(stack, in_off_depth + 2),
                            At(stack, in_off_depth + 3), maxd);
      // The callee can burn everything forwarded; a non-constant gas operand
      // means "all but one 64th" is reachable, which is unbounded statically.
      const AbstractValue& gas_req = At(stack, 0);
      if (!gas_req.known || !gas_req.value.FitsUint64()) {
        return GasBound::Unbounded();
      }
      return cost + GasBound{true, gas_req.value.low64()};
    }
    default:
      return fixed;
  }
}

// ---- Block transfer function --------------------------------------------

struct BlockResult {
  AbstractStack exit;
  std::vector<uint32_t> successors;
  GasBound cost;
  std::vector<Diagnostic> diags;
  bool aborted = false;  // an error ended the block early
};

std::string PcHex(uint32_t pc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%04x", pc);
  return buf;
}

// Executes `block` over the abstract state `in`, producing the exit state,
// the resolved successors, the block's worst-case gas, and any diagnostics.
// Deterministic for a given in-state, so the analyzer calls it both during
// the fixpoint (discarding diagnostics) and in the reporting pass.
BlockResult ExecBlock(BytesView code, const BasicBlock& block,
                      const AbstractStack& in,
                      const std::vector<bool>& jumpdests,
                      const AnalysisOptions& opt) {
  BlockResult r;
  r.cost = GasBound{true, 0};
  AbstractStack stack = in;
  std::optional<uint32_t> jump_target;

  for (const Instruction& ins : block.instructions) {
    const OpcodeInfo& info = GetOpcodeInfo(ins.opcode);
    if (!info.defined) {
      r.diags.push_back({DiagCode::kUndefinedOpcode, ins.pc,
                         "reachable undefined opcode " +
                             InstructionToString(ins)});
      r.aborted = true;
      break;
    }
    if (ins.truncated) {
      r.diags.push_back(
          {DiagCode::kTruncatedPush, ins.pc,
           InstructionToString(ins) + " immediate runs past the end of code (" +
               std::to_string(ins.pc + 1 + ins.immediate_size -
                              static_cast<uint32_t>(code.size())) +
               " byte(s) missing)"});
      r.aborted = true;
      break;
    }
    if (stack.size() < info.stack_in) {
      r.diags.push_back(
          {DiagCode::kStackUnderflow, ins.pc,
           std::string(info.name) + " pops " +
               std::to_string(info.stack_in) + " item(s) but the stack holds " +
               std::to_string(stack.size())});
      r.aborted = true;
      break;
    }
    if (stack.size() - info.stack_in + info.stack_out > gas::kMaxStack) {
      r.diags.push_back({DiagCode::kStackOverflow, ins.pc,
                         std::string(info.name) + " would grow the stack past " +
                             std::to_string(gas::kMaxStack) + " items"});
      r.aborted = true;
      break;
    }
    r.cost = r.cost + InstrWorstGas(ins, stack, opt);

    uint8_t op = ins.opcode;
    if (op == static_cast<uint8_t>(Opcode::JUMP) ||
        op == static_cast<uint8_t>(Opcode::JUMPI)) {
      const AbstractValue& target = At(stack, 0);
      if (!target.known) {
        r.diags.push_back({DiagCode::kUnresolvedJump, ins.pc,
                           std::string(info.name) +
                               " target is not a statically known constant"});
        r.aborted = true;
        break;
      }
      if (!target.value.FitsUint64() || target.value.low64() >= code.size()) {
        r.diags.push_back({DiagCode::kBadJumpTarget, ins.pc,
                           std::string(info.name) + " target " +
                               target.value.ToHex() + " is outside the code"});
        r.aborted = true;
        break;
      }
      uint32_t t = static_cast<uint32_t>(target.value.low64());
      if (!jumpdests[t]) {
        bool inside_push =
            code[t] == static_cast<uint8_t>(Opcode::JUMPDEST);
        r.diags.push_back(
            {DiagCode::kBadJumpTarget, ins.pc,
             std::string(info.name) + " target " + PcHex(t) +
                 (inside_push
                      ? " is a JUMPDEST byte inside a PUSH immediate"
                      : " is " +
                            std::string(GetOpcodeInfo(code[t]).name) +
                            ", not a JUMPDEST")});
        r.aborted = true;
        break;
      }
      jump_target = t;
    }

    // Stack update.
    if (evm::IsPush(op)) {
      stack.push_back(AbstractValue::Constant(ins.immediate));
    } else if (evm::IsDup(op)) {
      stack.push_back(At(stack, evm::DupDepth(op) - 1));
    } else if (evm::IsSwap(op)) {
      size_t top = stack.size() - 1;
      std::swap(stack[top], stack[top - evm::SwapDepth(op)]);
    } else {
      stack.resize(stack.size() - info.stack_in);
      for (int i = 0; i < info.stack_out; ++i) {
        stack.push_back(AbstractValue::Top());
      }
    }
  }

  r.exit = std::move(stack);
  if (r.aborted || block.instructions.empty()) return r;

  const Instruction& last = block.instructions.back();
  const OpcodeInfo& last_info = GetOpcodeInfo(last.opcode);
  if (last.opcode == static_cast<uint8_t>(Opcode::JUMP)) {
    r.successors.push_back(*jump_target);
  } else if (last.opcode == static_cast<uint8_t>(Opcode::JUMPI)) {
    r.successors.push_back(*jump_target);
    if (block.end_pc < code.size()) {
      r.successors.push_back(block.end_pc);
    } else {
      r.diags.push_back({DiagCode::kImplicitStop, last.pc,
                         "JUMPI fallthrough runs off the end of code "
                         "(implicit STOP)"});
    }
  } else if (!last_info.terminator) {
    if (block.end_pc < code.size()) {
      r.successors.push_back(block.end_pc);
    } else {
      r.diags.push_back({DiagCode::kImplicitStop, last.pc,
                         "execution runs off the end of code after " +
                             InstructionToString(last) + " (implicit STOP)"});
    }
  }
  return r;
}

// ---- Path analysis over the block graph ---------------------------------

struct PathInfo {
  GasBound bound;  // longest path from the entry; ⊤ if a cycle is reachable
  bool has_loop = false;
  uint32_t effects = 0;
};

PathInfo AnalyzePaths(uint32_t entry,
                      const std::map<uint32_t, BasicBlock>& blocks,
                      const std::map<uint32_t, GasBound>& cost) {
  PathInfo info;
  if (blocks.find(entry) == blocks.end()) {
    info.bound = GasBound::Unbounded();
    return info;
  }
  enum Color { kWhite = 0, kGray, kBlack };
  std::map<uint32_t, Color> color;
  std::map<uint32_t, GasBound> longest;
  struct Frame {
    uint32_t pc;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({entry, 0});
  color[entry] = kGray;
  info.effects |= blocks.at(entry).effects;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const BasicBlock& b = blocks.at(f.pc);
    if (f.next < b.successors.size()) {
      uint32_t succ = b.successors[f.next++];
      if (blocks.find(succ) == blocks.end()) continue;  // defensive
      Color c = color[succ];
      if (c == kGray) {
        info.has_loop = true;  // back edge
        continue;
      }
      if (c == kBlack) continue;
      color[succ] = kGray;
      info.effects |= blocks.at(succ).effects;
      stack.push_back({succ, 0});
      continue;
    }
    // All successors finished: the longest path through f.pc is its own
    // cost plus the best successor. (Only meaningful when acyclic; a loop
    // forces the bound to ⊤ below regardless.)
    GasBound best{};
    for (uint32_t succ : b.successors) {
      auto it = longest.find(succ);
      if (it != longest.end()) best = GasBound::Max(best, it->second);
    }
    auto cit = cost.find(f.pc);
    longest[f.pc] = (cit != cost.end() ? cit->second : GasBound{}) + best;
    color[f.pc] = kBlack;
    stack.pop_back();
  }
  info.bound = info.has_loop ? GasBound::Unbounded() : longest.at(entry);
  return info;
}

// ---- Selector-dispatch recovery -----------------------------------------

struct DispatchEntry {
  uint32_t selector = 0;
  uint32_t entry_pc = 0;
  GasBound prefix;  // worst-case dispatch cost up to and including the JUMPI
};

// Recognizes the deterministic dispatcher our codegen emits: a chain of
// fallthrough blocks each ending in [DUP1, PUSH4 sel, EQ, PUSH2 target,
// JUMPI]. Generic bytecode simply yields no functions.
std::vector<DispatchEntry> RecoverDispatch(
    const std::map<uint32_t, BasicBlock>& blocks,
    const std::map<uint32_t, GasBound>& cost) {
  std::vector<DispatchEntry> out;
  GasBound prefix{};
  uint32_t pc = 0;
  std::set<uint32_t> seen;
  while (blocks.find(pc) != blocks.end() && seen.insert(pc).second) {
    const BasicBlock& b = blocks.at(pc);
    size_t n = b.instructions.size();
    if (n < 5) break;
    const Instruction& jumpi = b.instructions[n - 1];
    const Instruction& push_target = b.instructions[n - 2];
    const Instruction& eq = b.instructions[n - 3];
    const Instruction& push_sel = b.instructions[n - 4];
    const Instruction& dup = b.instructions[n - 5];
    if (jumpi.opcode != static_cast<uint8_t>(Opcode::JUMPI) ||
        push_target.immediate_size != 2 ||
        eq.opcode != static_cast<uint8_t>(Opcode::EQ) ||
        push_sel.immediate_size != 4 ||
        dup.opcode != static_cast<uint8_t>(Opcode::DUP1)) {
      break;
    }
    auto cit = cost.find(pc);
    prefix = prefix + (cit != cost.end() ? cit->second : GasBound{});
    DispatchEntry e;
    e.selector = static_cast<uint32_t>(push_sel.immediate.low64());
    e.entry_pc = static_cast<uint32_t>(push_target.immediate.low64());
    e.prefix = prefix;
    out.push_back(e);
    pc = b.end_pc;  // the cascade continues on the no-match fallthrough
  }
  return out;
}

std::string SelectorName(uint32_t selector,
                         const std::map<uint32_t, std::string>& names) {
  auto it = names.find(selector);
  if (it != names.end()) return it->second;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", selector);
  return buf;
}

void BumpCounters(const AnalysisReport& report) {
  static obs::Counter* programs = obs::GetCounterOrNull("analysis.programs");
  static obs::Counter* blocks = obs::GetCounterOrNull("analysis.blocks");
  static obs::Counter* edges = obs::GetCounterOrNull("analysis.edges");
  static obs::Counter* bytes = obs::GetCounterOrNull("analysis.bytes");
  if (programs != nullptr) programs->Inc();
  if (blocks != nullptr) blocks->Inc(report.cfg.blocks.size());
  if (edges != nullptr) edges->Inc(report.cfg.EdgeCount());
  if (bytes != nullptr) bytes->Inc(report.code_size);
}

}  // namespace

std::string GasBound::ToString() const {
  return bounded ? std::to_string(gas) : "unbounded";
}

std::string AnalysisReport::FirstError(const easm::SourceMap* map) const {
  for (const Diagnostic& d : diagnostics) {
    if (IsError(d.code)) return FormatDiagnostic(d, map);
  }
  return "";
}

AnalysisReport AnalyzeProgram(BytesView code, const AnalysisOptions& options) {
  AnalysisReport report;
  report.code_size = code.size();
  if (code.empty()) {
    BumpCounters(report);
    return report;  // empty code halts immediately: clean, zero gas
  }

  const std::vector<bool> jumpdests = ComputeJumpdests(code);
  std::map<uint32_t, BasicBlock>& blocks = report.cfg.blocks;
  std::map<uint32_t, AbstractStack> in_states;
  std::map<uint32_t, Diagnostic> merge_errors;  // keyed by join pc

  // Worklist fixpoint over (block, entry state). Entry states only move up
  // the lattice (constant -> ⊤ per slot, heights fixed), so this
  // terminates in O(blocks * max-height) block executions.
  std::deque<uint32_t> worklist;
  in_states.emplace(0u, AbstractStack{});
  worklist.push_back(0);
  while (!worklist.empty()) {
    uint32_t pc = worklist.front();
    worklist.pop_front();
    auto bit = blocks.find(pc);
    if (bit == blocks.end()) {
      bit = blocks.emplace(pc, DecodeBlock(code, pc)).first;
    }
    BlockResult r = ExecBlock(code, bit->second, in_states.at(pc), jumpdests,
                              options);
    bit->second.successors = r.successors;
    for (uint32_t succ : r.successors) {
      auto [sit, inserted] = in_states.emplace(succ, r.exit);
      if (inserted) {
        worklist.push_back(succ);
        continue;
      }
      AbstractStack& have = sit->second;
      if (have.size() != r.exit.size()) {
        merge_errors.emplace(
            succ, Diagnostic{DiagCode::kStackHeightMismatch, succ,
                             "incoming stack heights disagree at " +
                                 PcHex(succ) + " (" +
                                 std::to_string(have.size()) + " vs " +
                                 std::to_string(r.exit.size()) + ")"});
        continue;
      }
      bool changed = false;
      for (size_t i = 0; i < have.size(); ++i) {
        if (have[i].known &&
            (!r.exit[i].known || !(have[i].value == r.exit[i].value))) {
          have[i] = AbstractValue::Top();
          changed = true;
        }
      }
      if (changed) worklist.push_back(succ);
    }
  }

  // Reporting pass: re-run every reachable block once over its fixpoint
  // entry state. ⊤ entries only widen operands, so the costs collected here
  // dominate every concrete execution.
  std::map<uint32_t, GasBound> block_cost;
  for (auto& [pc, block] : blocks) {
    BlockResult r = ExecBlock(code, block, in_states.at(pc), jumpdests,
                              options);
    block.successors = r.successors;
    block_cost[pc] = r.cost;
    for (Diagnostic& d : r.diags) report.diagnostics.push_back(std::move(d));
  }
  for (auto& [pc, diag] : merge_errors) {
    report.diagnostics.push_back(diag);
  }

  // Unreachable-code scan: bytes covered by no reachable block.
  {
    std::vector<bool> covered(code.size(), false);
    for (const auto& [pc, block] : blocks) {
      for (uint32_t i = block.start_pc; i < block.end_pc; ++i) covered[i] = true;
    }
    for (size_t pc = 0; pc < code.size();) {
      if (covered[pc]) {
        ++pc;
        continue;
      }
      size_t end = pc;
      while (end < code.size() && !covered[end]) ++end;
      report.diagnostics.push_back(
          {DiagCode::kUnreachableCode, static_cast<uint32_t>(pc),
           std::to_string(end - pc) + " byte(s) unreachable from entry"});
      pc = end;
    }
  }

  // Whole-program bound and effects.
  PathInfo program = AnalyzePaths(0, blocks, block_cost);
  report.program_bound = program.bound;
  report.effects = program.effects;

  // Per-function reports from the recovered dispatcher.
  for (const DispatchEntry& d : RecoverDispatch(blocks, block_cost)) {
    PathInfo paths = AnalyzePaths(d.entry_pc, blocks, block_cost);
    FunctionReport fr;
    fr.selector = d.selector;
    fr.name = SelectorName(d.selector, options.function_names);
    fr.entry_pc = d.entry_pc;
    fr.gas_bound = d.prefix + paths.bound;
    fr.effects = paths.effects;
    fr.has_loop = paths.has_loop;
    report.functions.push_back(std::move(fr));
  }

  // The dataflow pass (dataflow.cc) only runs on structurally sound code:
  // every reachable jump resolved, stack heights consistent.
  bool structurally_sound = !report.HasErrors();

  // Policy checks: machine-verify the declared light/heavy split. The
  // privacy half (ANA12–ANA18) now flows through the dataflow summaries.
  for (const FunctionReport& fr : report.functions) {
    bool light = std::find(options.light_selectors.begin(),
                           options.light_selectors.end(),
                           fr.selector) != options.light_selectors.end();
    bool priv = std::find(options.private_selectors.begin(),
                          options.private_selectors.end(),
                          fr.selector) != options.private_selectors.end();
    if (light && !fr.gas_bound.bounded) {
      report.diagnostics.push_back(
          {DiagCode::kUnboundedGas, fr.entry_pc,
           "light function " + fr.name +
               " has an unbounded worst-case gas cost" +
               (fr.has_loop ? " (reachable loop)" : "")});
    } else if (light && fr.gas_bound.gas >= options.block_gas_limit) {
      report.diagnostics.push_back(
          {DiagCode::kGasAboveBlockLimit, fr.entry_pc,
           "light function " + fr.name + " worst-case gas " +
               fr.gas_bound.ToString() + " >= block gas limit " +
               std::to_string(options.block_gas_limit)});
    }
    if (!structurally_sound && priv &&
        (fr.effects & effect::kStateLeakMask) != 0) {
      // Fallback when the dataflow pass cannot run: the PR 4 effect-mask
      // check still rejects the privacy violation.
      report.diagnostics.push_back(
          {DiagCode::kPrivateStateLeak, fr.entry_pc,
           "declared-private function " + fr.name +
               " can reach state effects: " +
               EffectsToString(fr.effects & effect::kStateLeakMask)});
    }
  }

  if (structurally_sound) {
    DataflowResult df = AnalyzeDataflow(code, report, options);
    report.program_access = std::move(df.program);
    for (size_t i = 0;
         i < report.functions.size() && i < df.per_function.size(); ++i) {
      report.functions[i].access = std::move(df.per_function[i]);
    }
    for (Diagnostic& d : df.diagnostics) {
      report.diagnostics.push_back(std::move(d));
    }
  } else {
    report.program_access.reads.top = true;
    report.program_access.writes.top = true;
    report.program_access.effects = report.effects;
    report.program_access.external_reads = true;
    for (FunctionReport& fr : report.functions) {
      fr.access = report.program_access;
    }
  }

  BumpCounters(report);
  return report;
}

GasBound DeploymentReport::DeployGasBound() const {
  if (!recognized_deployer || !runtime.has_value()) {
    // Unknown returned-code size: the code-deposit charge is unbounded.
    return GasBound::Unbounded();
  }
  return init.program_bound +
         GasBound{true, gas::kCodeDeposit *
                            static_cast<uint64_t>(runtime->code_size)};
}

bool DeploymentReport::HasErrors() const {
  return init.HasErrors() || (runtime.has_value() && runtime->HasErrors());
}

std::vector<Diagnostic> DeploymentReport::AllDiagnostics() const {
  std::vector<Diagnostic> out = init.diagnostics;
  if (runtime.has_value()) {
    for (Diagnostic d : runtime->diagnostics) {
      d.pc += static_cast<uint32_t>(runtime_offset);
      out.push_back(std::move(d));
    }
  }
  return out;
}

DeploymentReport AnalyzeDeployment(BytesView init_code,
                                   const AnalysisOptions& options) {
  DeploymentReport out;
  // The standard WrapDeployer prologue (15 bytes):
  //   PUSH2 len PUSH2 15 PUSH1 0 CODECOPY PUSH2 len PUSH1 0 RETURN
  constexpr size_t kPrologue = 15;
  bool match =
      init_code.size() >= kPrologue && init_code[0] == 0x61 &&
      init_code[3] == 0x61 && init_code[6] == 0x60 && init_code[7] == 0x00 &&
      init_code[8] == static_cast<uint8_t>(Opcode::CODECOPY) &&
      init_code[9] == 0x61 && init_code[12] == 0x60 &&
      init_code[13] == 0x00 &&
      init_code[14] == static_cast<uint8_t>(Opcode::RETURN);
  if (match) {
    uint32_t len = (uint32_t{init_code[1]} << 8) | init_code[2];
    uint32_t off = (uint32_t{init_code[4]} << 8) | init_code[5];
    uint32_t ret_len = (uint32_t{init_code[9 + 1]} << 8) | init_code[11];
    match = off == kPrologue && len == ret_len &&
            kPrologue + len == init_code.size();
  }
  if (match) {
    out.recognized_deployer = true;
    out.runtime_offset = kPrologue;
    // The prologue carries no dispatcher: drop the function policies so they
    // only apply to the runtime.
    AnalysisOptions prologue_options = options;
    prologue_options.light_selectors.clear();
    prologue_options.private_selectors.clear();
    out.init = AnalyzeProgram(init_code.first(kPrologue), prologue_options);
    out.runtime = AnalyzeProgram(init_code.subspan(kPrologue), options);
  } else {
    out.init = AnalyzeProgram(init_code, options);
  }
  return out;
}

Status AuditForSigning(BytesView init_code, const AnalysisOptions& options) {
  DeploymentReport report = AnalyzeDeployment(init_code, options);
  if (!report.HasErrors()) return Status::OK();
  static obs::Counter* rejected = obs::GetCounterOrNull("analysis.rejected");
  if (rejected != nullptr) rejected->Inc();
  std::vector<Diagnostic> all = report.AllDiagnostics();
  size_t errors = 0;
  const Diagnostic* first = nullptr;
  for (const Diagnostic& d : all) {
    if (!IsError(d.code)) continue;
    ++errors;
    if (first == nullptr) first = &d;
  }
  return Status::AnalysisRejected(
      "bytecode failed the pre-signing audit (" + std::to_string(errors) +
      " error(s)); first: " + FormatDiagnostic(*first));
}

}  // namespace onoff::analysis
