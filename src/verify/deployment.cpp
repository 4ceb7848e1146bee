#include "verify/deployment.hpp"

#include <algorithm>
#include <utility>

#include "crypto/sha256.hpp"

namespace raptrack::verify {

ReplayIndex::ReplayIndex(const Program& program, ReplayMode mode,
                         const rewrite::Manifest* rap,
                         const instr::TracesManifest* traces)
    : decoded_(program.base(), program.bytes()) {
  // Static successor map: resolve every direct / direct-call / conditional
  // branch target once, so the replay hot loop never re-computes them.
  targets_.assign(decoded_.slot_count(), 0);
  for (size_t i = 0; i < targets_.size(); ++i) {
    const Address pc = decoded_.base() + static_cast<Address>(i * 4);
    const auto& slot = decoded_.slot(pc);
    if (slot.kind != isa::SlotKind::Valid) continue;
    switch (isa::branch_kind(slot.instr)) {
      case isa::BranchKind::Direct:
      case isa::BranchKind::DirectCall:
      case isa::BranchKind::Conditional:
        targets_[i] = isa::branch_target(slot.instr, pc);
        break;
      default:
        break;
    }
  }

  if (mode == ReplayMode::Rap && rap != nullptr) {
    has_mtbar_ = true;
    mtbar_base_ = rap->mtbar_base;
    mtbar_limit_ = rap->mtbar_limit;
    slots_by_base_.reserve(rap->slots.size());
    slot_by_site_.reserve(rap->slots.size());
    for (const auto& slot : rap->slots) {
      slots_by_base_.push_back(&slot);
      // emplace keeps the first record per site — matching the linear
      // first-match semantics of Manifest::slot_for_site.
      slot_by_site_.emplace(slot.site, &slot);
    }
    std::sort(slots_by_base_.begin(), slots_by_base_.end(),
              [](const rewrite::SlotRecord* a, const rewrite::SlotRecord* b) {
                return a->slot_base < b->slot_base;
              });
    rap_svc_.reserve(rap->loop_veneers.size());
    for (const auto& veneer : rap->loop_veneers) {
      rap_svc_.emplace(veneer.svc_addr, &veneer);
    }
  }

  if (mode == ReplayMode::Traces && traces != nullptr) {
    veneers_by_base_.reserve(traces->veneers.size());
    traces_svc_.reserve(traces->veneers.size());
    for (const auto& veneer : traces->veneers) {
      veneers_by_base_.push_back(&veneer);
      traces_svc_.emplace(veneer.svc_addr, &veneer);
    }
    std::sort(veneers_by_base_.begin(), veneers_by_base_.end(),
              [](const instr::VeneerRecord* a, const instr::VeneerRecord* b) {
                return a->veneer_base < b->veneer_base;
              });
  }
}

const rewrite::SlotRecord* ReplayIndex::slot_containing(Address addr) const {
  // Last slot whose base is <= addr (slots are disjoint), then bounds-check.
  auto it = std::upper_bound(
      slots_by_base_.begin(), slots_by_base_.end(), addr,
      [](Address a, const rewrite::SlotRecord* s) { return a < s->slot_base; });
  if (it == slots_by_base_.begin()) return nullptr;
  const rewrite::SlotRecord* slot = *(it - 1);
  return addr < slot->slot_end ? slot : nullptr;
}

const rewrite::SlotRecord* ReplayIndex::slot_for_site(Address site) const {
  const auto it = slot_by_site_.find(site);
  return it != slot_by_site_.end() ? it->second : nullptr;
}

const rewrite::LoopVeneerRecord* ReplayIndex::rap_veneer_at_svc(
    Address svc_addr) const {
  const auto it = rap_svc_.find(svc_addr);
  return it != rap_svc_.end() ? it->second : nullptr;
}

const instr::VeneerRecord* ReplayIndex::traces_veneer_containing(
    Address addr) const {
  auto it = std::upper_bound(veneers_by_base_.begin(), veneers_by_base_.end(),
                             addr,
                             [](Address a, const instr::VeneerRecord* v) {
                               return a < v->veneer_base;
                             });
  if (it == veneers_by_base_.begin()) return nullptr;
  const instr::VeneerRecord* veneer = *(it - 1);
  return addr < veneer->veneer_end ? veneer : nullptr;
}

const instr::VeneerRecord* ReplayIndex::traces_veneer_at_svc(
    Address svc_addr) const {
  const auto it = traces_svc_.find(svc_addr);
  return it != traces_svc_.end() ? it->second : nullptr;
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
