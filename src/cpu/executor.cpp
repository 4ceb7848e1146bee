#include "cpu/executor.hpp"

#include <bit>

#include "common/bits.hpp"
#include "common/hex.hpp"
#include "isa/semantics.hpp"
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

/// The core's value domain for isa::transfer: concrete registers and NZCV.
/// Forced inline, like the transfer itself: it runs per instruction.
struct Registers {
  using Value = Word;
  CpuState& state;
  [[gnu::always_inline]] Word read(Reg r, Address pc) const {
    return r == Reg::PC ? pc + 4 : state.reg(r);
  }
  [[gnu::always_inline]] void write(Reg r, Word value) {
    state.set_reg(r, value);
  }
  [[gnu::always_inline]] static Word constant(Word w) { return w; }
  template <typename F>
  [[gnu::always_inline]] static auto map(Word a, F f) { return f(a); }
  template <typename F>
  [[gnu::always_inline]] static auto map(Word a, Word b, F f) {
    return f(a, b);
  }
  [[gnu::always_inline]] void set_flags(u8 mask, isa::Flags f) {
    if (mask & isa::kFlagN) state.flags.n = f.n;
    if (mask & isa::kFlagZ) state.flags.z = f.z;
    if (mask & isa::kFlagC) state.flags.c = f.c;
    if (mask & isa::kFlagV) state.flags.v = f.v;
  }
};

/// The core's memory port: the bus, with the current world's permissions.
/// Holds references only, so an ALU op that never touches memory loads
/// nothing to build it.
struct BusPort {
  mem::Bus* const& bus;
  const mem::WorldSide& world;
  Word load(Word addr, u32 size, Address pc) const {
    return bus->read(addr, size, world, pc);
  }
  void store(Word addr, Word value, u32 size, Address pc) const {
    bus->write(addr, value, size, world, pc);
  }
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
            // at its end. Every instruction still steps through the
            // oracle's isa::transfer, so the architectural state
            // transition is the oracle's.
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
  // Data instructions run the one isa::transfer; a load or POP into PC
  // comes back as a branch target. System ops and branches follow below.
  Registers regs{state_};
  if (isa::is_data(in.op)) {
    const auto loaded_pc =
        isa::transfer(regs, BusPort{bus_, state_.world}, in, pc);
    cycles_ += cost(true);
    if (loaded_pc) {
      branch_to(pc, *loaded_pc,
                in.op == Op::POP ? BranchKind::Return
                                 : BranchKind::IndirectJump,
                sinks);
      return;
    }
    state_.set_pc(pc + 4);
    return;
  }

  Address next = pc + 4;
  bool taken = true;  // for cycle accounting of BCC
  switch (in.op) {
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
      const Word target = regs.read(in.rm, pc);
      cycles_ += cost(true);
      branch_to(pc, target,
                in.rm == Reg::LR ? BranchKind::Return : BranchKind::IndirectJump,
                sinks);
      return;
    }
    case Op::BLX: {
      const Word target = regs.read(in.rm, pc);
      state_.set_lr(pc + 4);
      cycles_ += cost(true);
      branch_to(pc, target, BranchKind::IndirectCall, sinks);
      return;
    }
    default:
      break;  // NOP
  }

  cycles_ += cost(taken);
  state_.set_pc(next);
}

void Executor::execute_fused_window(const isa::DecodedSlot* slot, u32 n,
                                    Address pc) {
  // The per-slot path's own isa::transfer, with a port that refuses memory
  // (fused ops never touch memory or branch). A write to PC inside the
  // window is dead: the set_pc below overwrites it, as execute()'s per-op
  // set_pc does.
  Registers regs{state_};
  for (u32 k = 0; k < n; ++k, ++slot, pc += 4) {
    isa::transfer(regs, isa::NoMemory{}, slot->instr, pc);
  }
  state_.set_pc(pc);
}

}  // namespace raptrack::cpu
