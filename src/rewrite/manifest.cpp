#include "rewrite/manifest.hpp"

namespace raptrack::rewrite {

const char* slot_kind_name(SlotKind kind) {
  switch (kind) {
    case SlotKind::IndirectCall: return "indirect-call";
    case SlotKind::IndirectJump: return "indirect-jump";
    case SlotKind::ReturnPop: return "return-pop";
    case SlotKind::CondTaken: return "cond-taken";
    case SlotKind::CondNotTaken: return "cond-not-taken";
    case SlotKind::CondBoth: return "cond-both";
  }
  return "?";
}

const SlotRecord* Manifest::slot_containing(Address addr) const {
  for (const auto& slot : slots) {
    if (addr >= slot.slot_base && addr < slot.slot_end) return &slot;
  }
  return nullptr;
}

const SlotRecord* Manifest::slot_for_site(Address site) const {
  for (const auto& slot : slots) {
    if (slot.site == site) return &slot;
  }
  return nullptr;
}

const LoopVeneerRecord* Manifest::veneer_at_svc(Address svc_addr) const {
  for (const auto& veneer : loop_veneers) {
    if (veneer.svc_addr == svc_addr) return &veneer;
  }
  return nullptr;
}

const LoopVeneerRecord* Manifest::veneer_for_site(Address site) const {
  for (const auto& veneer : loop_veneers) {
    if (veneer.site == site) return &veneer;
  }
  return nullptr;
}

}  // namespace raptrack::rewrite
