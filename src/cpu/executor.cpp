#include "cpu/executor.hpp"

#include <bit>

#include "common/bits.hpp"
#include "common/hex.hpp"
#include "trace/trace_fabric.hpp"

namespace raptrack::cpu {

using isa::BranchKind;
using isa::Instruction;
using isa::Op;
using isa::Reg;
using isa::SlotKind;

namespace {

/// Sink policy bound to the concrete (final) TraceFabric: the per-retired
/// calls compile to direct, inlinable calls into the MTB/DWT models instead
/// of virtual dispatch through TraceSink. Fused superblocks are allowed
/// whenever the DWT proves the window inert (no comparator action can have
/// an effect at any pc inside it, given the MTB's state) — the
/// per-instruction fabric effect then reduces to the MTB activation
/// countdown, applied in one batched retirement.
struct SinksFabric {
  trace::TraceFabric* fabric;
  void instruction(Address pc) const { fabric->on_instruction(pc); }
  void branch(Address source, Address destination, BranchKind kind) const {
    fabric->on_branch(source, destination, kind);
  }
  bool fuse_window(Address pc, u32 len) const {
    return fabric->dwt().inert_window(pc, pc + 4 * len);
  }
  void retire_batch(u32 n) const { fabric->mtb().on_instructions_retired(n); }
};

/// The simulator's default two-sink configuration (trace fabric + oracle
/// tracer), bound concretely. The oracle only records branches — its
/// on_instruction is the TraceSink no-op — so fused windows (which contain
/// no branches by construction) need nothing from it and the fabric rules
/// above carry over unchanged.
struct SinksFabricOracle {
  trace::TraceFabric* fabric;
  trace::OracleTracer* oracle;
  void instruction(Address pc) const { fabric->on_instruction(pc); }
  void branch(Address source, Address destination, BranchKind kind) const {
    fabric->on_branch(source, destination, kind);
    oracle->on_branch(source, destination, kind);
  }
  bool fuse_window(Address pc, u32 len) const {
    return fabric->dwt().inert_window(pc, pc + 4 * len);
  }
  void retire_batch(u32 n) const { fabric->mtb().on_instructions_retired(n); }
};

}  // namespace

void Executor::reset(Address entry, Address stack_top) {
  state_ = CpuState{};
  state_.set_pc(entry);
  state_.set_sp(stack_top);
  state_.set_lr(0xffff'ffff);  // sentinel: returning to reset LR is a bug
  cycles_ = 0;
  instructions_ = 0;
  oracle_dispatches_ = 0;
  fused_retired_ = 0;
  fault_ = std::nullopt;
  halted_ = false;
  fetch_generation_seen_ = kNoGeneration;
}

void Executor::set_nz(Word result) {
  state_.flags.n = (result >> 31) != 0;
  state_.flags.z = result == 0;
}

Word Executor::alu_add(Word a, Word b, bool set_flags) {
  const u64 wide = static_cast<u64>(a) + b;
  const Word result = static_cast<Word>(wide);
  if (set_flags) {
    set_nz(result);
    state_.flags.c = (wide >> 32) != 0;
    state_.flags.v = (~(a ^ b) & (a ^ result) & 0x8000'0000u) != 0;
  }
  return result;
}

Word Executor::alu_sub(Word a, Word b, bool set_flags) {
  const Word result = a - b;
  if (set_flags) {
    set_nz(result);
    state_.flags.c = a >= b;  // no borrow
    state_.flags.v = ((a ^ b) & (a ^ result) & 0x8000'0000u) != 0;
  }
  return result;
}

Word Executor::read_operand(Reg r, Address pc) const {
  // Reading PC as an operand yields the next instruction's address,
  // matching the Thumb convention closely enough for address arithmetic.
  if (r == Reg::PC) return pc + 4;
  return state_.reg(r);
}

template <typename Sinks>
void Executor::branch_to(Address source, Address destination, BranchKind kind,
                         const Sinks& sinks) {
  if (destination % 4 != 0) {
    throw mem::FaultException({mem::FaultType::Unaligned, destination, source,
                               "branch to unaligned address " + hex32(destination)});
  }
  state_.set_pc(destination);
  sinks.branch(source, destination, kind);
}

template <typename Sinks>
std::optional<HaltReason> Executor::step_with(const Sinks& sinks) {
  if (halted_) return HaltReason::Halted;
  const Address pc = state_.pc();
  try {
    const u32 word = bus_->fetch(pc, state_.world);
    const auto decoded = isa::decode(word);
    if (!decoded) {
      throw mem::FaultException({mem::FaultType::UndefinedInstr, pc, pc,
                                 "undefined instruction word " + hex32(word)});
    }
    sinks.instruction(pc);
    ++instructions_;
    ++oracle_dispatches_;
    execute(*decoded, pc, sinks, ModelCost{&cycle_model_, &*decoded});
    if (halted_) {
      return decoded->op == Op::BKPT ? HaltReason::Breakpoint : HaltReason::Halted;
    }
    return std::nullopt;
  } catch (const mem::FaultException& e) {
    fault_ = e.fault();
    halted_ = true;
    return HaltReason::Fault;
  }
}

std::optional<HaltReason> Executor::step() {
  return step_with(SinksMany{&sinks_});
}

HaltReason Executor::run(u64 max_instructions) {
  const u64 limit = instructions_ + max_instructions;
  while (instructions_ < limit) {
    if (const auto reason = step()) return *reason;
  }
  halted_ = true;
  return HaltReason::InstrBudget;
}

// ---------------------------------------------------------------------------
// Fast path: execute from the predecoded image, skipping per-instruction
// fetch/decode and dispatching sinks without the vector walk. Every exit to
// slower ground routes through step_with(), the reference oracle, so the two
// paths cannot diverge.
// ---------------------------------------------------------------------------

bool Executor::validate_fetch_window() const {
  // The whole image range must sit inside one backed, executable region
  // visible to the current world...
  const Address base = image_->base();
  const Address end = image_->end();
  const auto* region = bus_->map().find(base);
  if (!region || region->mmio || !region->executable) return false;
  if (end > region->end()) return false;
  if (region->security == mem::Security::Secure &&
      state_.world == mem::WorldSide::NonSecure) {
    return false;
  }
  // ...and, for the Non-Secure world, every slot address must pass the
  // NS-MPU execute check (region boundaries can split the window, so each
  // address is queried; this runs once per MPU generation, not per fetch).
  if (state_.world == mem::WorldSide::NonSecure) {
    const auto& mpu = bus_->ns_mpu();
    for (Address addr = base; addr < end; addr += 4) {
      if (!mpu.allows(addr, mem::AccessType::Execute)) return false;
    }
  }
  return true;
}

bool Executor::fast_fetch_clear() {
  const u64 generation = bus_->ns_mpu().generation();
  if (generation == fetch_generation_seen_ && state_.world == fetch_world_seen_) {
    return fetch_clear_;
  }
  fetch_generation_seen_ = generation;
  fetch_world_seen_ = state_.world;
  fetch_clear_ = validate_fetch_window();
  return fetch_clear_;
}

template <typename Sinks>
std::optional<HaltReason> Executor::step_fast_with(const Sinks& sinks) {
  if (halted_) return HaltReason::Halted;
  const Address pc = state_.pc();
  if (image_ != nullptr && (pc & 3u) == 0 && image_->contains(pc) &&
      fast_fetch_clear()) {
    const isa::DecodedSlot& slot = image_->slot(pc);
    if (slot.kind == SlotKind::Valid) {
      sinks.instruction(pc);
      ++instructions_;
      try {
        execute(slot.instr, pc, sinks,
                SlotCost{slot.cost_taken, slot.cost_not_taken});
      } catch (const mem::FaultException& e) {
        fault_ = e.fault();
        halted_ = true;
        return HaltReason::Fault;
      }
      if (halted_) {
        return slot.instr.op == Op::BKPT ? HaltReason::Breakpoint
                                         : HaltReason::Halted;
      }
      return std::nullopt;
    }
    if (slot.kind == SlotKind::Undefined) {
      // Same fault step() raises on a decode failure, without paying for a
      // throw through the hot loop (and, like step(), before any sink or
      // retired-instruction accounting fires).
      fault_ = mem::Fault{mem::FaultType::UndefinedInstr, pc, pc,
                          "undefined instruction word " + hex32(slot.raw)};
      halted_ = true;
      return HaltReason::Fault;
    }
    // SlotKind::Undecoded: a write invalidated this line — decode per step.
  }
  return step_with(sinks);
}

std::optional<HaltReason> Executor::step_fast() {
  return step_fast_with(SinksMany{&sinks_});
}

template <typename Sinks>
HaltReason Executor::run_fast_with(u64 max_instructions, const Sinks& sinks) {
  // Same semantics as the step_fast_with() loop, restructured so the hot
  // Valid-slot iteration chases a raw slot pointer (no std::optional
  // traffic, no pc->slot index math on fallthrough) and the fault handler
  // lives outside the loop. Every per-instruction check is still performed:
  // the MPU generation, the world, and slot validity can all change from
  // inside execute() (SVC handlers, self-modifying stores), so the inner
  // loop re-reads slot->kind and fast_fetch_clear() every iteration.
  const u64 limit = instructions_ + max_instructions;
  try {
    while (instructions_ < limit) {
      if (halted_) return HaltReason::Halted;
      Address pc = state_.pc();
      if (image_ != nullptr && (pc & 3u) == 0 && image_->contains(pc) &&
          fast_fetch_clear()) {
        const Address base = image_->base();
        const Address end = image_->end();
        const isa::DecodedSlot* const slots = image_->slots_begin();
        const isa::FuseRun* const fuse = image_->fuse_begin();
        const size_t slot_count = (end - base) >> 2;
        const isa::DecodedSlot* slot = slots + ((pc - base) >> 2);
        if (slot->kind == SlotKind::Valid) {
          // Chase consecutive Valid slots without re-deriving the slot from
          // the pc: fallthrough is a pointer bump, an in-image branch is one
          // index computation, and anything else bounces to the outer loop
          // (which also handles Undefined/invalidated slots we run into).
          while (true) {
            // Superblock fusion: a straight-line run of >= 2 fusible slots
            // headed here retires as one unit — one sink decision, one
            // batched MTB tick, one cycle charge — when the sink policy
            // proves no per-instruction effect can fire inside the window.
            // Fusible instructions cannot branch, touch the bus, trap, or
            // fault (see isa::fusible_in_superblock), so nothing inside the
            // window can halt the core, change the MPU generation or the
            // world, invalidate slots, or emit trace packets: the per-slot
            // re-checks are provably redundant across the window and resume
            // at its end. The shared execute() still steps every
            // instruction (ZeroCost + SinksNone specialization), so the
            // architectural state transition is the oracle's, verbatim.
            if (fuse != nullptr) {
              const size_t head = static_cast<size_t>(slot - slots);
              u32 n = fuse[head].len;
              if (n >= 2 && sinks.fuse_window(pc, n)) {
                const u64 room = limit - instructions_;
                if (room < n) n = static_cast<u32>(room);
                sinks.retire_batch(n);
                execute_fused_window(slot, n, pc);
                slot += n;
                instructions_ += n;
                fused_retired_ += n;
                const size_t tail = head + n;
                cycles_ += fuse[head].cycles -
                           (tail < slot_count ? fuse[tail].cycles : 0);
                pc += 4 * n;  // == state_.pc(): each op fell through
                if (instructions_ >= limit || pc >= end ||
                    slot->kind != SlotKind::Valid) {
                  break;
                }
                continue;
              }
            }
            sinks.instruction(pc);
            ++instructions_;
            execute(slot->instr, pc, sinks,
                    SlotCost{slot->cost_taken, slot->cost_not_taken});
            if (halted_) {
              return slot->instr.op == Op::BKPT ? HaltReason::Breakpoint
                                                : HaltReason::Halted;
            }
            const Address next = state_.pc();
            if (next == pc + 4 && next < end) {
              ++slot;  // fallthrough: the dominant straight-line case
            } else if ((next & 3u) == 0 && next >= base && next < end) {
              slot = slots + ((next - base) >> 2);
            } else {
              break;  // left the image — the outer loop re-evaluates
            }
            pc = next;
            if (instructions_ >= limit || !fast_fetch_clear() ||
                slot->kind != SlotKind::Valid) {
              break;
            }
          }
          continue;
        }
        if (slot->kind == SlotKind::Undefined) {
          // Same fault step() raises on a decode failure (and, like step(),
          // before any sink or retired-instruction accounting fires).
          fault_ = mem::Fault{mem::FaultType::UndefinedInstr, pc, pc,
                              "undefined instruction word " + hex32(slot->raw)};
          halted_ = true;
          return HaltReason::Fault;
        }
        // SlotKind::Undecoded: invalidated line — decode per step below.
      }
      if (const auto reason = step_with(sinks)) return *reason;
    }
  } catch (const mem::FaultException& e) {
    fault_ = e.fault();
    halted_ = true;
    return HaltReason::Fault;
  }
  halted_ = true;
  return HaltReason::InstrBudget;
}

HaltReason Executor::run_fast(u64 max_instructions) {
  if (image_ == nullptr) return run(max_instructions);
  switch (sinks_.size()) {
    case 0: return run_fast_with(max_instructions, SinksNone{});
    case 1:
      // The single sink is almost always the trace fabric; TraceFabric is
      // final, so binding it by concrete type devirtualizes (and inlines)
      // the MTB tick + DWT comparator walk into the hot loop. With the
      // fabric bound concretely the MTB may also defer packet emission for
      // the duration of the run (DeferScope): no other sink consumes
      // branches, and every external read of MTB state flushes first, so
      // the stored wire bytes are identical to eager emission.
      if (auto* fabric = dynamic_cast<trace::TraceFabric*>(sinks_[0])) {
        trace::Mtb::DeferScope defer(fabric->mtb());
        return run_fast_with(max_instructions, SinksFabric{fabric});
      }
      return run_fast_with(max_instructions, SinksOne{sinks_[0]});
    case 2:
      // The simulator default: fabric + ground-truth oracle tracer. The
      // oracle keeps its own (eager) event vector, so MTB deferral is still
      // private to the fabric.
      if (auto* fabric = dynamic_cast<trace::TraceFabric*>(sinks_[0])) {
        if (auto* oracle = dynamic_cast<trace::OracleTracer*>(sinks_[1])) {
          trace::Mtb::DeferScope defer(fabric->mtb());
          return run_fast_with(max_instructions, SinksFabricOracle{fabric, oracle});
        }
      }
      return run_fast_with(max_instructions, SinksMany{&sinks_});
    default: return run_fast_with(max_instructions, SinksMany{&sinks_});
  }
}

template <typename Sinks, typename Cost>
void Executor::execute(const Instruction& in, Address pc, const Sinks& sinks,
                       const Cost& cost) {
  const auto& world = state_.world;
  Address next = pc + 4;
  bool taken = true;  // for cycle accounting of BCC

  switch (in.op) {
    case Op::NOP:
      break;
    case Op::HLT:
    case Op::BKPT:
      halted_ = true;
      break;
    case Op::SVC: {
      if (!svc_handler_) {
        throw mem::FaultException({mem::FaultType::UndefinedInstr, pc, pc,
                                   "SVC with no Secure World installed"});
      }
      // Cost of the trap itself is in the cycle model; the handler returns
      // the cycles spent inside the Secure World (context switch + service).
      state_.set_pc(next);  // handler may override (e.g. partial-report resume)
      cycles_ += svc_handler_(static_cast<u8>(in.imm), state_);
      cycles_ += cost(true);
      return;  // PC already set
    }

    case Op::MOVI:
      state_.set_reg(in.rd, static_cast<Word>(in.imm));
      break;
    case Op::MOVT:
      state_.set_reg(in.rd, (state_.reg(in.rd) & 0xffffu) |
                                (static_cast<Word>(in.imm) << 16));
      break;
    case Op::MOV: {
      const Word value = read_operand(in.rm, pc);
      state_.set_reg(in.rd, value);
      if (in.set_flags) set_nz(value);
      break;
    }
    case Op::MVN: {
      const Word value = ~read_operand(in.rm, pc);
      state_.set_reg(in.rd, value);
      if (in.set_flags) set_nz(value);
      break;
    }

    case Op::ADD:
    case Op::ADDI: {
      const Word a = read_operand(in.rn, pc);
      const Word b = in.op == Op::ADD ? read_operand(in.rm, pc)
                                      : static_cast<Word>(in.imm);
      state_.set_reg(in.rd, alu_add(a, b, in.set_flags));
      break;
    }
    case Op::SUB:
    case Op::SUBI: {
      const Word a = read_operand(in.rn, pc);
      const Word b = in.op == Op::SUB ? read_operand(in.rm, pc)
                                      : static_cast<Word>(in.imm);
      state_.set_reg(in.rd, alu_sub(a, b, in.set_flags));
      break;
    }
    case Op::RSB:
    case Op::RSBI: {
      const Word a = read_operand(in.rn, pc);
      const Word b = in.op == Op::RSB ? read_operand(in.rm, pc)
                                      : static_cast<Word>(in.imm);
      state_.set_reg(in.rd, alu_sub(b, a, in.set_flags));
      break;
    }
    case Op::MUL: {
      const Word result = read_operand(in.rn, pc) * read_operand(in.rm, pc);
      state_.set_reg(in.rd, result);
      if (in.set_flags) set_nz(result);
      break;
    }
    case Op::UDIV: {
      const Word d = read_operand(in.rm, pc);
      // ARM semantics: divide by zero yields 0 (no trap by default).
      state_.set_reg(in.rd, d == 0 ? 0 : read_operand(in.rn, pc) / d);
      break;
    }
    case Op::SDIV: {
      const i32 d = static_cast<i32>(read_operand(in.rm, pc));
      const i32 n = static_cast<i32>(read_operand(in.rn, pc));
      i32 q = 0;
      if (d != 0) {
        // INT_MIN / -1 overflows; ARM wraps to INT_MIN.
        q = (n == INT32_MIN && d == -1) ? INT32_MIN : n / d;
      }
      state_.set_reg(in.rd, static_cast<Word>(q));
      break;
    }

    case Op::AND: case Op::ANDI:
    case Op::ORR: case Op::ORRI:
    case Op::EOR: case Op::EORI: {
      const Word a = read_operand(in.rn, pc);
      const Word b = (isa::format_of(in.op) == isa::Format::AluReg)
                         ? read_operand(in.rm, pc)
                         : static_cast<Word>(in.imm);
      Word result = 0;
      switch (in.op) {
        case Op::AND: case Op::ANDI: result = a & b; break;
        case Op::ORR: case Op::ORRI: result = a | b; break;
        default: result = a ^ b; break;
      }
      state_.set_reg(in.rd, result);
      if (in.set_flags) set_nz(result);
      break;
    }

    case Op::LSL: case Op::LSLI:
    case Op::LSR: case Op::LSRI:
    case Op::ASR: case Op::ASRI: {
      const Word a = read_operand(in.rn, pc);
      const Word amount_raw = (isa::format_of(in.op) == isa::Format::AluReg)
                                  ? read_operand(in.rm, pc)
                                  : static_cast<Word>(in.imm);
      const Word amount = amount_raw & 0xff;  // ARM uses bottom byte
      Word result;
      if (in.op == Op::LSL || in.op == Op::LSLI) {
        result = amount >= 32 ? 0 : (a << amount);
      } else if (in.op == Op::LSR || in.op == Op::LSRI) {
        result = amount >= 32 ? 0 : (amount == 0 ? a : a >> amount);
      } else {
        const i32 sa = static_cast<i32>(a);
        result = static_cast<Word>(amount >= 32 ? (sa >> 31) : (sa >> amount));
      }
      state_.set_reg(in.rd, result);
      if (in.set_flags) set_nz(result);
      break;
    }

    case Op::CMP: case Op::CMPI:
      alu_sub(read_operand(in.rn, pc),
              in.op == Op::CMP ? read_operand(in.rm, pc) : static_cast<Word>(in.imm),
              true);
      break;
    case Op::CMN:
      alu_add(read_operand(in.rn, pc), read_operand(in.rm, pc), true);
      break;
    case Op::TST: case Op::TSTI:
      set_nz(read_operand(in.rn, pc) &
             (in.op == Op::TST ? read_operand(in.rm, pc) : static_cast<Word>(in.imm)));
      break;

    case Op::LDR: case Op::LDRB: case Op::LDRH: {
      const Address addr = read_operand(in.rn, pc) + static_cast<Word>(in.imm);
      const u32 size = in.op == Op::LDR ? 4 : (in.op == Op::LDRH ? 2 : 1);
      const Word value = bus_->read(addr, size, world, pc);
      if (in.rd == Reg::PC) {
        cycles_ += cost(true);
        branch_to(pc, value, BranchKind::IndirectJump, sinks);
        return;
      }
      state_.set_reg(in.rd, value);
      break;
    }
    case Op::LDRR: {
      const Address addr =
          read_operand(in.rn, pc) + (read_operand(in.rm, pc) << in.shift);
      const Word value = bus_->read(addr, 4, world, pc);
      if (in.rd == Reg::PC) {
        cycles_ += cost(true);
        branch_to(pc, value, BranchKind::IndirectJump, sinks);
        return;
      }
      state_.set_reg(in.rd, value);
      break;
    }
    case Op::STR: case Op::STRB: case Op::STRH: {
      const Address addr = read_operand(in.rn, pc) + static_cast<Word>(in.imm);
      const u32 size = in.op == Op::STR ? 4 : (in.op == Op::STRH ? 2 : 1);
      bus_->write(addr, read_operand(in.rd, pc), size, world, pc);
      break;
    }
    case Op::STRR: {
      const Address addr =
          read_operand(in.rn, pc) + (read_operand(in.rm, pc) << in.shift);
      bus_->write(addr, read_operand(in.rd, pc), 4, world, pc);
      break;
    }

    case Op::PUSH: {
      const unsigned count = static_cast<unsigned>(std::popcount(in.reg_list));
      Address sp = state_.sp() - 4 * count;
      state_.set_sp(sp);
      for (unsigned i = 0; i < 16; ++i) {
        if (!bit(in.reg_list, i)) continue;
        bus_->write(sp, state_.reg(static_cast<Reg>(i)), 4, world, pc);
        sp += 4;
      }
      break;
    }
    case Op::POP: {
      Address sp = state_.sp();
      Word new_pc = 0;
      bool branches = false;
      for (unsigned i = 0; i < 16; ++i) {
        if (!bit(in.reg_list, i)) continue;
        const Word value = bus_->read(sp, 4, world, pc);
        sp += 4;
        if (i == 15) {
          new_pc = value;
          branches = true;
        } else {
          state_.set_reg(static_cast<Reg>(i), value);
        }
      }
      state_.set_sp(sp);
      if (branches) {
        cycles_ += cost(true);
        branch_to(pc, new_pc, BranchKind::Return, sinks);
        return;
      }
      break;
    }

    case Op::B:
      cycles_ += cost(true);
      branch_to(pc, isa::branch_target(in, pc), BranchKind::Direct, sinks);
      return;
    case Op::BL:
      state_.set_lr(pc + 4);
      cycles_ += cost(true);
      branch_to(pc, isa::branch_target(in, pc), BranchKind::DirectCall, sinks);
      return;
    case Op::BCC:
      taken = isa::evaluate(in.cond, state_.flags);
      cycles_ += cost(taken);
      if (taken) {
        branch_to(pc, isa::branch_target(in, pc), BranchKind::Conditional, sinks);
        return;
      }
      state_.set_pc(next);
      return;
    case Op::BX: {
      const Word target = read_operand(in.rm, pc);
      cycles_ += cost(true);
      branch_to(pc, target,
                in.rm == Reg::LR ? BranchKind::Return : BranchKind::IndirectJump,
                sinks);
      return;
    }
    case Op::BLX: {
      const Word target = read_operand(in.rm, pc);
      state_.set_lr(pc + 4);
      cycles_ += cost(true);
      branch_to(pc, target, BranchKind::IndirectCall, sinks);
      return;
    }
  }

  cycles_ += cost(taken);
  state_.set_pc(next);
}

void Executor::execute_fused_window(const isa::DecodedSlot* slot, u32 n,
                                    Address pc) {
  // Reduced interpreter over the fusible_in_superblock() subset. Every case
  // reproduces the corresponding execute() case verbatim (same ALU helpers,
  // same flag-update order, same rd == PC tolerance: a write to regs[PC]
  // here is dead, overwritten by the set_pc below exactly as execute()'s
  // per-op set_pc(next) overwrites it). Kept small so the compiler emits a
  // dense jump table and keeps the loop state in registers — this loop is
  // why superblock fusion is faster than per-slot dispatch, not just
  // equal to it (see bench_throughput's fast-vs-slot ablation).
  for (u32 k = 0; k < n; ++k, ++slot, pc += 4) {
    const Instruction& in = slot->instr;
    switch (in.op) {
      case Op::NOP:
        break;
      case Op::MOVI:
        state_.set_reg(in.rd, static_cast<Word>(in.imm));
        break;
      case Op::MOVT:
        state_.set_reg(in.rd, (state_.reg(in.rd) & 0xffffu) |
                                  (static_cast<Word>(in.imm) << 16));
        break;
      case Op::MOV: {
        const Word value = read_operand(in.rm, pc);
        state_.set_reg(in.rd, value);
        if (in.set_flags) set_nz(value);
        break;
      }
      case Op::MVN: {
        const Word value = ~read_operand(in.rm, pc);
        state_.set_reg(in.rd, value);
        if (in.set_flags) set_nz(value);
        break;
      }
      case Op::ADD:
      case Op::ADDI: {
        const Word a = read_operand(in.rn, pc);
        const Word b = in.op == Op::ADD ? read_operand(in.rm, pc)
                                        : static_cast<Word>(in.imm);
        state_.set_reg(in.rd, alu_add(a, b, in.set_flags));
        break;
      }
      case Op::SUB:
      case Op::SUBI: {
        const Word a = read_operand(in.rn, pc);
        const Word b = in.op == Op::SUB ? read_operand(in.rm, pc)
                                        : static_cast<Word>(in.imm);
        state_.set_reg(in.rd, alu_sub(a, b, in.set_flags));
        break;
      }
      case Op::RSB:
      case Op::RSBI: {
        const Word a = read_operand(in.rn, pc);
        const Word b = in.op == Op::RSB ? read_operand(in.rm, pc)
                                        : static_cast<Word>(in.imm);
        state_.set_reg(in.rd, alu_sub(b, a, in.set_flags));
        break;
      }
      case Op::MUL: {
        const Word result = read_operand(in.rn, pc) * read_operand(in.rm, pc);
        state_.set_reg(in.rd, result);
        if (in.set_flags) set_nz(result);
        break;
      }
      case Op::UDIV: {
        const Word d = read_operand(in.rm, pc);
        state_.set_reg(in.rd, d == 0 ? 0 : read_operand(in.rn, pc) / d);
        break;
      }
      case Op::SDIV: {
        const i32 d = static_cast<i32>(read_operand(in.rm, pc));
        const i32 nn = static_cast<i32>(read_operand(in.rn, pc));
        i32 q = 0;
        if (d != 0) {
          q = (nn == INT32_MIN && d == -1) ? INT32_MIN : nn / d;
        }
        state_.set_reg(in.rd, static_cast<Word>(q));
        break;
      }
      case Op::AND: case Op::ANDI:
      case Op::ORR: case Op::ORRI:
      case Op::EOR: case Op::EORI: {
        const Word a = read_operand(in.rn, pc);
        const Word b = (isa::format_of(in.op) == isa::Format::AluReg)
                           ? read_operand(in.rm, pc)
                           : static_cast<Word>(in.imm);
        Word result = 0;
        switch (in.op) {
          case Op::AND: case Op::ANDI: result = a & b; break;
          case Op::ORR: case Op::ORRI: result = a | b; break;
          default: result = a ^ b; break;
        }
        state_.set_reg(in.rd, result);
        if (in.set_flags) set_nz(result);
        break;
      }
      case Op::LSL: case Op::LSLI:
      case Op::LSR: case Op::LSRI:
      case Op::ASR: case Op::ASRI: {
        const Word a = read_operand(in.rn, pc);
        const Word amount_raw = (isa::format_of(in.op) == isa::Format::AluReg)
                                    ? read_operand(in.rm, pc)
                                    : static_cast<Word>(in.imm);
        const Word amount = amount_raw & 0xff;
        Word result;
        if (in.op == Op::LSL || in.op == Op::LSLI) {
          result = amount >= 32 ? 0 : (a << amount);
        } else if (in.op == Op::LSR || in.op == Op::LSRI) {
          result = amount >= 32 ? 0 : (amount == 0 ? a : a >> amount);
        } else {
          const i32 sa = static_cast<i32>(a);
          result =
              static_cast<Word>(amount >= 32 ? (sa >> 31) : (sa >> amount));
        }
        state_.set_reg(in.rd, result);
        if (in.set_flags) set_nz(result);
        break;
      }
      case Op::CMP: case Op::CMPI:
        alu_sub(read_operand(in.rn, pc),
                in.op == Op::CMP ? read_operand(in.rm, pc)
                                 : static_cast<Word>(in.imm),
                true);
        break;
      case Op::CMN:
        alu_add(read_operand(in.rn, pc), read_operand(in.rm, pc), true);
        break;
      case Op::TST: case Op::TSTI:
        set_nz(read_operand(in.rn, pc) &
               (in.op == Op::TST ? read_operand(in.rm, pc)
                                 : static_cast<Word>(in.imm)));
        break;
      default:
        // Unreachable while fuse metadata only covers fusible slots; fall
        // back to the oracle step so a future drift is a slowdown, not a
        // divergence. (execute() sets the pc; the set_pc below re-sets it
        // to the same fallthrough address.)
        execute(in, pc, SinksNone{}, ZeroCost{});
        break;
    }
  }
  state_.set_pc(pc);
}

}  // namespace raptrack::cpu
