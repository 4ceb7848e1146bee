#include "cfg/loop_analysis.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "isa/semantics.hpp"

namespace raptrack::cfg {

using isa::BranchKind;
using isa::Instruction;
using isa::Op;
using isa::Reg;

namespace {

/// Does `instr` write `reg` (excluding control-flow side effects)?
bool writes_register(const Instruction& in, Reg reg) {
  return bit(isa::written_registers(in), isa::index(reg));
}

/// The innermost natural loop containing `block` (smallest body), if any.
const NaturalLoop* innermost_loop(const std::vector<NaturalLoop>& loops,
                                  Address block) {
  const NaturalLoop* best = nullptr;
  for (const auto& loop : loops) {
    if (!loop.contains_block(block)) continue;
    if (!best || loop.blocks.size() < best->blocks.size()) best = &loop;
  }
  return best;
}

/// Try to prove `loop` is a "simple loop" per §IV-D. Returns nullopt when
/// any condition fails (the loop then gets per-iteration trampolines).
std::optional<SimpleLoop> classify_simple(const Cfg& cfg,
                                          const NaturalLoop& loop) {
  const Program& program = cfg.program();

  // (1) Exactly one conditional branch inside the loop; no calls, indirect
  //     branches, returns, or SVCs (all internal branches deterministic).
  Address bcc_site = 0;
  int bcc_count = 0;
  for (const Address block_begin : loop.blocks) {
    const BasicBlock& block = cfg.block_at(block_begin);
    for (Address addr = block.begin; addr < block.end; addr += 4) {
      const auto instr = program.instruction_at(addr);
      if (!instr) return std::nullopt;
      if (instr->op == Op::SVC) return std::nullopt;
      switch (isa::branch_kind(*instr)) {
        case BranchKind::Conditional:
          ++bcc_count;
          bcc_site = addr;
          break;
        case BranchKind::None:
        case BranchKind::Direct:
          break;
        default:
          return std::nullopt;  // calls/indirect/returns/halts: not simple
      }
    }
  }
  if (bcc_count != 1) return std::nullopt;

  const Instruction bcc = *program.instruction_at(bcc_site);
  const Address taken_target = isa::branch_target(bcc, bcc_site);
  const BasicBlock& bcc_block = cfg.block_containing(bcc_site);
  if (bcc_block.last_instr() != bcc_site) return std::nullopt;  // mid-block Bcc impossible

  // (2) Shape: backward latch branch (taken continues) or forward exit
  //     branch (taken exits, a direct latch closes the loop).
  bool forward_exit;
  if (taken_target == loop.header && bcc_block.begin == loop.latch) {
    forward_exit = false;
  } else if (taken_target > bcc_site &&
             !loop.contains_block(cfg.block_containing(taken_target).begin)) {
    // Fall-through must stay in the loop and the latch must be a direct B.
    const BasicBlock& latch = cfg.block_at(loop.latch);
    if (latch.terminator != BranchKind::Direct) return std::nullopt;
    if (bcc_block.end >= cfg.code_end() ||
        !loop.contains_block(cfg.block_containing(bcc_block.end).begin)) {
      return std::nullopt;
    }
    forward_exit = true;
  } else {
    return std::nullopt;
  }

  // (3) The instruction immediately before the Bcc is CMPI iter, #bound.
  if (bcc_site < bcc_block.begin + 4) return std::nullopt;
  const auto cmp = program.instruction_at(bcc_site - 4);
  if (!cmp || cmp->op != Op::CMPI) return std::nullopt;
  const Reg iterator = cmp->rn;
  const i32 bound = cmp->imm;

  // (4) The iterator is written by exactly one instruction in the loop: an
  //     ADDI/SUBI with rd == rn == iterator, in a block that dominates the
  //     latch (executes every iteration).
  Address write_site = 0;
  int write_count = 0;
  for (const Address block_begin : loop.blocks) {
    const BasicBlock& block = cfg.block_at(block_begin);
    for (Address addr = block.begin; addr < block.end; addr += 4) {
      const auto instr = program.instruction_at(addr);
      if (!instr || !writes_register(*instr, iterator)) continue;
      ++write_count;
      write_site = addr;
      if ((instr->op != Op::ADDI && instr->op != Op::SUBI) ||
          instr->rn != iterator) {
        return std::nullopt;
      }
    }
  }
  if (write_count != 1) return std::nullopt;
  const Instruction write = *program.instruction_at(write_site);
  const i32 step = write.op == Op::ADDI ? write.imm : -write.imm;
  if (step == 0) return std::nullopt;
  if (!cfg.dominates(cfg.block_containing(write_site).begin, loop.latch)) {
    return std::nullopt;
  }

  // (5) Single entry: all predecessors of the header are loop blocks except
  //     one fall-through preheader block physically preceding the header.
  const BasicBlock& header = cfg.block_at(loop.header);
  Address preheader = 0;
  for (const Address pred : header.predecessors) {
    if (loop.contains_block(pred)) continue;
    const BasicBlock& pred_block = cfg.block_at(pred);
    if (preheader != 0) return std::nullopt;  // multiple outside entries
    if (pred_block.end != loop.header ||
        pred_block.terminator != BranchKind::None) {
      return std::nullopt;  // entered by a jump, not fall-through
    }
    preheader = pred;
  }
  if (preheader == 0) return std::nullopt;
  const Address preheader_instr = loop.header - 4;

  // No block of the loop other than the header may be entered from outside.
  for (const Address block_begin : loop.blocks) {
    if (block_begin == loop.header) continue;
    for (const Address pred : cfg.block_at(block_begin).predecessors) {
      if (!loop.contains_block(pred)) return std::nullopt;
    }
  }

  SimpleLoop result;
  result.header = loop.header;
  result.bcc_site = bcc_site;
  result.forward_exit = forward_exit;
  result.iterator = iterator;
  result.step = step;
  result.bound = bound;
  result.cond = bcc.cond;
  result.preheader_instr = preheader_instr;

  // (6) Constant initial value? MOVI iter, #k immediately before the header
  //     makes the whole loop statically reconstructible (§IV-C: "simple
  //     loops with fixed iteration counts" need no logging).
  const auto init = program.instruction_at(preheader_instr);
  if (init && init->op == Op::MOVI && init->rd == iterator) {
    result.constant_init = init->imm;
  }
  return result;
}

}  // namespace

LoopAnalysis analyze_loops(const Cfg& cfg) {
  LoopAnalysis analysis;
  analysis.loops = find_natural_loops(cfg);
  const Program& program = cfg.program();

  // Classify simple loops first (keyed by controlling branch).
  for (const auto& loop : analysis.loops) {
    if (const auto simple = classify_simple(cfg, loop)) {
      analysis.simple_loops[simple->bcc_site] = *simple;
    }
  }

  // Assign a role to every conditional branch in the code range.
  for (Address addr = cfg.code_begin(); addr < cfg.code_end(); addr += 4) {
    const auto instr = program.instruction_at(addr);
    if (!instr || isa::branch_kind(*instr) != BranchKind::Conditional) continue;

    if (const auto simple = analysis.simple_loops.find(addr);
        simple != analysis.simple_loops.end()) {
      analysis.bcc_roles[addr] = simple->second.constant_init
                                     ? BccRole::Deterministic
                                     : BccRole::LoopCondition;
      continue;
    }

    const Address taken_target = isa::branch_target(*instr, addr);
    if (taken_target <= addr) {
      // Backward: loop-continue or backward goto — log the taken edge (Fig 6).
      analysis.bcc_roles[addr] = BccRole::LogTaken;
      continue;
    }

    // Forward: the loop-implementing exit branch (Fig 7) — it terminates
    // the loop *header*, its taken edge leaves the loop, and its
    // fall-through stays inside. Mid-body exit branches ("break") are
    // ordinary Fig 5 conditionals: logging their (rare) taken edge is both
    // lossless and far cheaper than per-iteration logging.
    const BasicBlock& block = cfg.block_containing(addr);
    const NaturalLoop* loop = innermost_loop(analysis.loops, block.begin);
    if (loop && loop->header == block.begin && block.last_instr() == addr) {
      bool taken_exits = true;
      bool fallthrough_stays = false;
      if (taken_target >= cfg.code_begin() && taken_target < cfg.code_end()) {
        taken_exits = !loop->contains_block(cfg.block_containing(taken_target).begin);
      }
      if (block.end < cfg.code_end()) {
        fallthrough_stays = loop->contains_block(cfg.block_containing(block.end).begin);
      }
      if (taken_exits && fallthrough_stays) {
        analysis.bcc_roles[addr] = BccRole::LogNotTaken;
        continue;
      }
    }
    analysis.bcc_roles[addr] = BccRole::LogTaken;  // plain if/else (Fig 5)
  }
  return analysis;
}

}  // namespace raptrack::cfg
