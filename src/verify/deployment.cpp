#include "verify/deployment.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "isa/semantics.hpp"

namespace raptrack::verify {

namespace {

StepKind step_kind(const isa::Instruction& in) {
  switch (isa::branch_kind(in)) {
    case isa::BranchKind::None:
      return in.op == isa::Op::SVC ? StepKind::Svc : StepKind::Data;
    case isa::BranchKind::Direct: return StepKind::Direct;
    case isa::BranchKind::DirectCall: return StepKind::DirectCall;
    case isa::BranchKind::Conditional: return StepKind::Conditional;
    case isa::BranchKind::IndirectCall: return StepKind::IndirectCall;
    case isa::BranchKind::IndirectJump: return StepKind::IndirectJump;
    case isa::BranchKind::Return:
      return in.op == isa::Op::BX ? StepKind::ReturnLr : StepKind::ReturnPop;
    case isa::BranchKind::Halt: return StepKind::Halt;
  }
  return StepKind::Undefined;
}

/// Last record whose [base, end) contains `addr`: records are disjoint, so
/// the candidate is the last one based at or below it.
template <typename Record, typename Base, typename End>
const Record* containing(const std::vector<const Record*>& by_base,
                         Address addr, Base base, End end) {
  auto it = std::upper_bound(
      by_base.begin(), by_base.end(), addr,
      [&](Address a, const Record* r) { return a < r->*base; });
  if (it == by_base.begin()) return nullptr;
  const Record* record = *(it - 1);
  return addr < record->*end ? record : nullptr;
}

template <typename Record, typename Base>
std::vector<const Record*> sorted_by(const std::vector<Record>& records,
                                     Base base) {
  std::vector<const Record*> out;
  out.reserve(records.size());
  for (const auto& record : records) out.push_back(&record);
  std::sort(out.begin(), out.end(), [&](const Record* a, const Record* b) {
    return a->*base < b->*base;
  });
  return out;
}

}  // namespace

ReplayIndex::ReplayIndex(const Program& program, ReplayMode mode,
                         const rewrite::Manifest* rap,
                         const instr::TracesManifest* traces)
    : base_(program.base()) {
  if (base_ % 4 != 0) {
    throw Error("ReplayIndex: base " + hex32(base_) + " is not word-aligned");
  }
  const auto bytes = program.bytes();
  const size_t words = bytes.size() / 4;  // a trailing partial word is not code
  end_ = base_ + static_cast<Address>(words * 4);
  steps_.resize(words);

  const bool is_rap = mode == ReplayMode::Rap && rap != nullptr;
  const bool is_traces = mode == ReplayMode::Traces && traces != nullptr;
  // RAP and TRACES leave BX LR unlogged and resolve it from the link
  // register BL set (§IV-C.2), so their images may write LR nowhere else.
  const bool resolves_lr = mode != ReplayMode::Naive;
  // Per-site and per-SVC maps keep the first record, matching the linear
  // first-match semantics of the manifests' own lookups.
  std::unordered_map<Address, const rewrite::SlotRecord*> slot_by_site;
  std::unordered_map<Address, const rewrite::LoopVeneerRecord*> rap_svc;
  std::vector<const instr::VeneerRecord*> veneers_by_base;
  std::unordered_map<Address, const instr::VeneerRecord*> traces_svc;
  if (is_rap) {
    slots_by_base_ = sorted_by(rap->slots, &rewrite::SlotRecord::slot_base);
    for (const auto& slot : rap->slots) slot_by_site.emplace(slot.site, &slot);
    for (const auto& veneer : rap->loop_veneers) {
      rap_svc.emplace(veneer.svc_addr, &veneer);
    }
  }
  if (is_traces) {
    veneers_by_base =
        sorted_by(traces->veneers, &instr::VeneerRecord::veneer_base);
    for (const auto& veneer : traces->veneers) {
      traces_svc.emplace(veneer.svc_addr, &veneer);
    }
  }
  const auto find = [](const auto& map, Address key) {
    const auto it = map.find(key);
    return it != map.end() ? it->second : nullptr;
  };

  for (size_t i = 0; i < words; ++i) {
    const Address pc = base_ + static_cast<Address>(i * 4);
    const u32 word = static_cast<u32>(bytes[i * 4]) |
                     static_cast<u32>(bytes[i * 4 + 1]) << 8 |
                     static_cast<u32>(bytes[i * 4 + 2]) << 16 |
                     static_cast<u32>(bytes[i * 4 + 3]) << 24;
    const auto decoded = isa::decode(word);
    if (!decoded) continue;  // stays Undefined
    ReplayStep& step = steps_[i];
    step.instr = *decoded;
    step.kind = step_kind(step.instr);
    if (resolves_lr && isa::writes_lr(step.instr)) {
      throw Error("deployment: explicit LR write at " + hex32(pc) +
                  " leaves BX LR undecidable");
    }
    if (mode == ReplayMode::Naive ||
        (is_rap && pc >= rap->mtbar_base && pc <= rap->mtbar_limit)) {
      step.flags |= ReplayStep::kLogged;
    }
    switch (step.kind) {
      case StepKind::Direct:
      case StepKind::DirectCall:
        step.target = isa::branch_target(step.instr, pc);
        break;
      case StepKind::Conditional:
        step.target = isa::branch_target(step.instr, pc);
        if (is_rap) step.site_slot = find(slot_by_site, pc);
        if (is_traces) {
          const auto* veneer =
              containing(veneers_by_base, pc, &instr::VeneerRecord::veneer_base,
                         &instr::VeneerRecord::veneer_end);
          if (veneer && veneer->kind == instr::VeneerKind::Conditional &&
              pc == veneer->veneer_base + 4) {
            step.flags |= ReplayStep::kCondVeneer;
          }
        }
        break;
      case StepKind::IndirectJump:
        // A BX rm inside a RAP IndirectCall slot or a TRACES indirect-call
        // veneer is semantically a call: the call-target policy applies to
        // the original site.
        if (is_rap) {
          if (const auto* slot = slot_containing(pc);
              slot && slot->kind == rewrite::SlotKind::IndirectCall) {
            step.flags |= ReplayStep::kCallSite;
            step.call_site = slot->site;
          }
        }
        if (is_traces) {
          if (const auto* veneer = containing(
                  veneers_by_base, pc, &instr::VeneerRecord::veneer_base,
                  &instr::VeneerRecord::veneer_end);
              veneer && veneer->kind == instr::VeneerKind::IndirectCall) {
            step.flags |= ReplayStep::kCallSite;
            step.call_site = veneer->site;
          }
        }
        break;
      case StepKind::Svc:
        if (const auto* veneer = is_rap ? find(rap_svc, pc) : nullptr) {
          step.flags |= ReplayStep::kSvcVeneer | ReplayStep::kSvcLoop;
          step.svc_iterator = veneer->loop.iterator;
        }
        if (const auto* veneer = is_traces ? find(traces_svc, pc) : nullptr) {
          // Branch-logging SVCs log nothing here: the instruction after
          // them consumes the stream.
          step.flags |= ReplayStep::kSvcVeneer;
          if (veneer->kind == instr::VeneerKind::LoopCondition) {
            step.flags |= ReplayStep::kSvcLoop;
            step.svc_iterator = veneer->loop.value().iterator;
          }
        }
        break;
      default:
        break;
    }
  }
  // Straight-line runs, built backward so each Data step extends its
  // successor's run; a jump into the middle of a run sees a shorter one.
  for (size_t i = words; i-- > 0;) {
    if (steps_[i].kind != StepKind::Data) continue;
    steps_[i].run = 1 + (i + 1 < words ? steps_[i + 1].run : 0);
  }
}

const rewrite::SlotRecord* ReplayIndex::slot_containing(Address addr) const {
  return containing(slots_by_base_, addr, &rewrite::SlotRecord::slot_base,
                    &rewrite::SlotRecord::slot_end);
}

Deployment::Deployment(ReplayMode mode, Program program,
                       std::optional<rewrite::Manifest> rap,
                       std::optional<instr::TracesManifest> traces,
                       Address entry, MemoOptions memo)
    : mode_(mode),
      program_(std::move(program)),
      rap_(std::move(rap)),
      traces_(std::move(traces)),
      entry_(entry),
      h_mem_(crypto::Sha256::hash(program_.bytes())),
      memo_(std::make_unique<MemoCache>(memo)),
      index_(program_, mode_, rap_ ? &*rap_ : nullptr,
             traces_ ? &*traces_ : nullptr) {}

std::shared_ptr<const Deployment> Deployment::rap(Program program,
                                                  rewrite::Manifest manifest,
                                                  Address entry) {
  return std::shared_ptr<const Deployment>(new Deployment(
      ReplayMode::Rap, std::move(program), std::move(manifest), std::nullopt,
      entry, MemoOptions{.shards = 1, .slots_per_shard = 0}));
}

std::shared_ptr<const Deployment> Deployment::naive(Program program,
                                                    Address entry,
                                                    MemoOptions memo) {
  return std::shared_ptr<const Deployment>(new Deployment(
      ReplayMode::Naive, std::move(program), std::nullopt, std::nullopt, entry,
      memo));
}

std::shared_ptr<const Deployment> Deployment::traces(
    Program program, instr::TracesManifest manifest, Address entry,
    MemoOptions memo) {
  return std::shared_ptr<const Deployment>(
      new Deployment(ReplayMode::Traces, std::move(program), std::nullopt,
                     std::move(manifest), entry, memo));
}

}  // namespace raptrack::verify
