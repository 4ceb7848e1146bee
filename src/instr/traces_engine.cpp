#include "instr/traces_engine.hpp"

#include <algorithm>
#include <bit>

#include "common/bits.hpp"
#include "common/hex.hpp"

namespace raptrack::instr {

using isa::BranchKind;
using isa::Instruction;
using isa::Op;
using isa::Reg;

TracesEngine::TracesEngine(const Program& program,
                           const TracesManifest& manifest,
                           mem::MemoryMap& memory, u32 capacity_bytes,
                           bool bit_packed)
    : program_(&program),
      manifest_(&manifest),
      memory_(&memory),
      capacity_bytes_(capacity_bytes),
      bit_packed_(bit_packed) {}

void TracesEngine::attach(tz::SecureMonitor& monitor) {
  // Resolve each veneer SVC once into a dense table over the SVC span: the
  // handlers below run on every world switch and only index it.
  sites_.clear();
  Address lo = ~Address{0};
  Address hi = 0;
  for (const auto& veneer : manifest_->veneers) {
    if ((veneer.svc_addr & 3u) != 0) continue;  // fetches are word-aligned
    lo = std::min(lo, veneer.svc_addr);
    hi = std::max(hi, veneer.svc_addr);
  }
  if (lo <= hi) {
    sites_base_ = lo;
    sites_.resize(((hi - lo) >> 2) + 1);
    for (const auto& veneer : manifest_->veneers) {
      if ((veneer.svc_addr & 3u) != 0) continue;
      SvcSite& site = sites_[(veneer.svc_addr - lo) >> 2];
      if (site.veneer != nullptr) continue;  // the first record wins
      site.veneer = &veneer;
      const Address next = veneer.svc_addr + 4;
      if (program_->contains(next) && next + 4 <= program_->end()) {
        site.next = program_->instruction_at(next);
      }
    }
  }
  monitor.register_service(tz::Service::kTracesLogBranch,
                           [this](cpu::CpuState& s) { return log_branch(s); });
  monitor.register_service(
      tz::Service::kTracesLogLoopCondition,
      [this](cpu::CpuState& s) { return log_loop_condition(s); });
}

const TracesEngine::SvcSite* TracesEngine::site_at(Address svc_addr) const {
  const Address offset = svc_addr - sites_base_;
  if ((offset & 3u) != 0 || (offset >> 2) >= sites_.size()) return nullptr;
  const SvcSite& site = sites_[offset >> 2];
  return site.veneer != nullptr ? &site : nullptr;
}

u64 TracesEngine::current_bytes() const {
  const u64 cond_bytes =
      bit_packed_ ? (window_bits_ + 31) / 32 * 4 : window_bits_ * 4;
  return cond_bytes + window_addr_bytes_ + window_loop_bytes_;
}

u64 TracesEngine::total_log_bytes() const {
  return flushed_bytes_ + current_bytes();
}

TracesLog TracesEngine::window() const {
  TracesLog w;
  w.direction_bits.assign(log_.direction_bits.begin() + window_bits_start_,
                          log_.direction_bits.end());
  w.indirect_targets.assign(log_.indirect_targets.begin() + window_addrs_start_,
                            log_.indirect_targets.end());
  w.loop_conditions.assign(log_.loop_conditions.begin() + window_loops_start_,
                           log_.loop_conditions.end());
  return w;
}

void TracesEngine::maybe_flush() {
  if (capacity_bytes_ == 0 || current_bytes() < capacity_bytes_) return;
  // Partial report (§IV-E analogue for the instrumentation baseline): hand
  // the window to the prover for signing/transmission, then reset the
  // Secure-World buffer.
  if (flush_handler_) flush_handler_(window());
  flushed_bytes_ += current_bytes();
  window_bits_ = 0;
  window_addr_bytes_ = 0;
  window_loop_bytes_ = 0;
  window_bits_start_ = log_.direction_bits.size();
  window_addrs_start_ = log_.indirect_targets.size();
  window_loops_start_ = log_.loop_conditions.size();
  in_run_ = false;
  have_last_target_ = false;
  ++partial_flushes_;
}

Cycles TracesEngine::log_branch(cpu::CpuState& state) {
  // The SVC sits immediately before the relocated original instruction.
  const Address next_instr = state.pc();
  // An SVC outside every veneer (never emitted by the rewriter) takes the
  // uncached decode, with its errors.
  const SvcSite* site = site_at(next_instr - 4);
  const auto decoded = site != nullptr && site->next
                           ? site->next
                           : program_->instruction_at(next_instr);
  if (!decoded) {
    throw Error("TracesEngine: no instruction after SVC at " + hex32(next_instr));
  }
  const Instruction& in = *decoded;
  ++events_;
  const tz::CostModel costs{};

  Cycles service = 0;
  switch (isa::branch_kind(in)) {
    case BranchKind::Conditional: {
      const bool taken = isa::evaluate(in.cond, state.flags);
      log_.direction_bits.push_back(taken);
      ++window_bits_;
      service = costs.cond_bit_append;
      break;
    }
    case BranchKind::IndirectCall:
    case BranchKind::IndirectJump:
    case BranchKind::Return: {
      Address target = 0;
      switch (in.op) {
        case Op::BX:
        case Op::BLX:
          target = state.reg(in.rm);
          break;
        case Op::LDR:
          target = memory_->raw_read32(state.reg(in.rn) +
                                       static_cast<Word>(in.imm));
          break;
        case Op::LDRR:
          target = memory_->raw_read32(state.reg(in.rn) +
                                       (state.reg(in.rm) << in.shift));
          break;
        case Op::POP: {
          // PC is popped last (highest address of the transfer block).
          const unsigned count =
              static_cast<unsigned>(std::popcount(in.reg_list));
          target = memory_->raw_read32(state.sp() + 4 * (count - 1));
          break;
        }
        default:
          throw Error("TracesEngine: unexpected instruction after SVC");
      }
      log_.indirect_targets.push_back(target);
      // Run-length encoding: a repeat extends the current run (2-byte
      // counter added when the run starts); a new target costs 4 bytes.
      if (have_last_target_ && target == last_indirect_target_) {
        if (!in_run_) {
          window_addr_bytes_ += 2;
          in_run_ = true;
        }
        service = costs.log_append + costs.rle_update;
      } else {
        window_addr_bytes_ += 4;
        in_run_ = false;
        service = costs.log_append;
      }
      last_indirect_target_ = target;
      have_last_target_ = true;
      break;
    }
    default:
      throw Error("TracesEngine: non-branch after SVC at " + hex32(next_instr));
  }
  maybe_flush();
  return service;
}

Cycles TracesEngine::log_loop_condition(cpu::CpuState& state) {
  const Address svc_addr = state.pc() - 4;
  const SvcSite* site = site_at(svc_addr);
  const VeneerRecord* veneer = site != nullptr ? site->veneer : nullptr;
  if (!veneer || !veneer->loop) {
    throw Error("TracesEngine: loop SVC with no veneer record at " +
                hex32(svc_addr));
  }
  ++events_;
  const u32 value = state.reg(veneer->loop->iterator);
  log_.loop_conditions.push_back(value);
  window_loop_bytes_ += 4;
  maybe_flush();
  return tz::CostModel{}.loop_cond_log;
}

void TracesEngine::reset() {
  log_ = {};
  window_bits_start_ = 0;
  window_addrs_start_ = 0;
  window_loops_start_ = 0;
  window_bits_ = 0;
  window_addr_bytes_ = 0;
  window_loop_bytes_ = 0;
  flushed_bytes_ = 0;
  in_run_ = false;
  have_last_target_ = false;
  partial_flushes_ = 0;
  events_ = 0;
}

}  // namespace raptrack::instr
