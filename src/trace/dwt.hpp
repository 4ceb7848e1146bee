// Data Watchpoint and Trace (DWT) unit model (§II-B2). Four comparators,
// each watching the PC. RAP-Track programs them in two pairs: comparators
// 0/1 bound MTBAR and drive MTB TSTART; comparators 2/3 bound MTBDR and
// drive MTB TSTOP. Matching is evaluated on every retired instruction and
// costs zero CPU cycles (hardware-parallel, like the MTB).
#pragma once

#include <array>
#include <functional>

#include "common/types.hpp"
#include "trace/mtb.hpp"

namespace raptrack::trace {

enum class ComparatorAction : u8 {
  Disabled,
  MtbTstartBase,   ///< lower bound of the TSTART range
  MtbTstartLimit,  ///< upper bound (inclusive) of the TSTART range
  MtbTstopBase,
  MtbTstopLimit,
  Watchpoint,      ///< general PC watchpoint (fires a callback)
};

struct Comparator {
  ComparatorAction action = ComparatorAction::Disabled;
  Address address = 0;
};

class Dwt {
 public:
  static constexpr unsigned kNumComparators = 4;

  explicit Dwt(Mtb& mtb) : mtb_(&mtb) {}

  void configure(unsigned index, const Comparator& comparator);
  const Comparator& comparator(unsigned index) const;
  void reset();

  /// Convenience: program the four comparators for RAP-Track (§IV-B):
  /// TSTART while PC in [mtbar_base, mtbar_limit], TSTOP while PC in
  /// [mtbdr_base, mtbdr_limit]. Limits are inclusive.
  void configure_rap_track(Address mtbar_base, Address mtbar_limit,
                           Address mtbdr_base, Address mtbdr_limit);

  /// General watchpoint callback (comparators with action Watchpoint).
  void set_watchpoint_handler(std::function<void(Address pc)> handler);

  /// Evaluate comparators for the instruction at `pc` and drive the MTB.
  /// Runs on every retired instruction, so the comparator bank is resolved
  /// into `resolved_` once per reconfiguration, not per call.
  void observe(Address pc) {
    for (unsigned i = 0; i < resolved_.num_watchpoints; ++i) {
      if (pc == resolved_.watchpoints[i] && watchpoint_handler_) {
        watchpoint_handler_(pc);
      }
    }
    // TSTOP is evaluated first so that an address inside both ranges
    // (misconfiguration) conservatively stops tracing.
    if (resolved_.has_stop && pc >= resolved_.stop_base &&
        pc <= resolved_.stop_limit) {
      mtb_->tstop();
    }
    if (resolved_.has_start && pc >= resolved_.start_base &&
        pc <= resolved_.start_limit) {
      mtb_->tstart();
    }
  }

  /// True when no comparator action can have an effect for any pc in
  /// [lo, hi), given the MTB's current state: no watchpoint lands in the
  /// window, a window that touches the TSTOP range finds TSTOP a no-op
  /// (MTB stopped, or TSTARTEN), and a window that touches the TSTART range
  /// finds TSTART a no-op (MTB started, or TSTARTEN). The executor's
  /// superblock path uses this to retire a fused straight-line run without
  /// per-instruction observe() calls. The answer holds for the whole window
  /// because a fused run contains no branch: the only MTB state that moves
  /// inside it is the activation countdown, which batched retirement applies
  /// exactly (Mtb::on_instructions_retired). So under RAP-Track the first
  /// instruction that enters MTBDR with tracing started goes per-slot and
  /// fires the one real TSTOP; the rest of that run fuses. Comparator
  /// addresses need not be word-aligned; the check is conservative.
  bool inert_window(Address lo, Address hi) const {
    const Address last = hi - 4;  // pcs in the window are lo, lo+4, .., last
    for (unsigned i = 0; i < resolved_.num_watchpoints; ++i) {
      const Address w = resolved_.watchpoints[i];
      if (w >= lo && w <= last) return false;
    }
    const bool hits_stop = resolved_.has_stop && lo <= resolved_.stop_limit &&
                           last >= resolved_.stop_base;
    const bool hits_start = resolved_.has_start &&
                            lo <= resolved_.start_limit &&
                            last >= resolved_.start_base;
    return (!hits_stop || mtb_->tstop_idempotent()) &&
           (!hits_start || mtb_->tstart_idempotent());
  }

  // -- register-level interface ----------------------------------------------
  //
  // Each comparator occupies a 16-byte bank, mirroring the DWT's
  // COMP/FUNCTION register pairs:
  //   0x10*i + 0x0  COMP      match address
  //   0x10*i + 0x8  FUNCTION  ComparatorAction in the low nibble
  static constexpr u32 kCompStride = 0x10;
  static constexpr u32 kRegComp = 0x0;
  static constexpr u32 kRegFunction = 0x8;

  u32 read_register(u32 offset) const;
  void write_register(u32 offset, u32 value);

 private:
  /// The comparator bank resolved into the two ranges + watchpoint list.
  /// A range is live only when both of its bounds are programmed. Rebuilt by
  /// every configuring entry point (comparator order preserved: later
  /// comparators with the same action override earlier ones, and
  /// watchpoints fire in bank order before TSTOP/TSTART, exactly as the
  /// per-call resolution did).
  struct Resolved {
    Address start_base = 0, start_limit = 0;
    Address stop_base = 0, stop_limit = 0;
    bool has_start = false;
    bool has_stop = false;
    unsigned num_watchpoints = 0;
    std::array<Address, kNumComparators> watchpoints{};
  };

  void resolve();

  Mtb* mtb_;
  std::array<Comparator, kNumComparators> comparators_{};
  Resolved resolved_{};
  std::function<void(Address)> watchpoint_handler_;
};

}  // namespace raptrack::trace
