// The instruction executor: fetch/decode/execute loop with cycle accounting,
// fault delivery, SVC (Secure-World gateway) dispatch, and a trace-sink bus
// that feeds the DWT/MTB models and the ground-truth oracle tracer.
//
// Two execution paths share one execute() implementation:
//   * step()/run()        — the reference oracle: fetch + decode + full
//                           bus permission checks on every instruction;
//   * step_fast()/run_fast() — executes from an attached DecodedImage
//                           (predecoded at H_MEM time, see isa/decoded_image)
//                           with the sink-vector walk hoisted into a
//                           compiled-per-configuration dispatch. Falls back
//                           to the reference path per instruction whenever
//                           the pc leaves the cache, a slot was invalidated
//                           by a write, or fetch permissions cannot be
//                           proven clear — so it is bit-identical to run().
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "cpu/cpu_state.hpp"
#include "isa/cycle_model.hpp"
#include "isa/decoded_image.hpp"
#include "isa/instruction.hpp"
#include "mem/bus.hpp"

namespace raptrack::cpu {

/// Observer of the retired-instruction stream. The DWT watches PCs, the MTB
/// (gated by the DWT) records branches, and tests attach an oracle tracer.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Called before each instruction executes, with its address.
  virtual void on_instruction(Address pc) { (void)pc; }
  /// Called after a non-sequential PC change (any taken branch).
  virtual void on_branch(Address source, Address destination,
                         isa::BranchKind kind) {
    (void)source; (void)destination; (void)kind;
  }
};

/// Why run() returned.
enum class HaltReason : u8 {
  Halted,         ///< HLT retired
  Breakpoint,     ///< BKPT retired
  Fault,          ///< a fault was delivered (see Executor::fault())
  InstrBudget,    ///< max-instruction budget exhausted (likely runaway)
};

/// SVC handler: services a Secure-World call. Receives the SVC immediate and
/// the mutable CPU state; returns the number of cycles the Secure World
/// spent (added to the cycle counter — context switch + RoT service time).
using SvcHandler = std::function<Cycles(u8 code, CpuState& state)>;

class Executor {
 public:
  Executor(mem::Bus& bus, isa::CycleModel model = {})
      : bus_(&bus), cycle_model_(model) {}

  CpuState& state() { return state_; }
  const CpuState& state() const { return state_; }
  Cycles cycles() const { return cycles_; }
  void add_cycles(Cycles c) { cycles_ += c; }
  u64 instructions_retired() const { return instructions_; }
  /// Instructions that went through the reference fetch+decode oracle
  /// (step(), or a fast-path per-instruction fallback). Counted in
  /// step_with() only, so run_fast()'s hot loop pays nothing for it.
  u64 oracle_dispatches() const { return oracle_dispatches_; }
  /// Instructions executed straight from the predecode cache.
  u64 fast_dispatches() const { return instructions_ - oracle_dispatches_; }
  /// Instructions retired inside fused superblocks (a subset of
  /// fast_dispatches — they skipped even the per-slot sink dispatch and
  /// bookkeeping in favor of one batched retirement per window).
  u64 fused_dispatches() const { return fused_retired_; }
  const std::optional<mem::Fault>& fault() const { return fault_; }
  const isa::CycleModel& cycle_model() const { return cycle_model_; }

  void add_sink(TraceSink* sink) { sinks_.push_back(sink); }
  void set_svc_handler(SvcHandler handler) { svc_handler_ = std::move(handler); }

  /// Attach the predecoded fast-path cache. Caller keeps ownership and must
  /// keep the image alive (and invalidated on writes) while attached.
  void attach_decoded_image(const isa::DecodedImage* image) {
    image_ = image;
    fetch_generation_seen_ = kNoGeneration;  // force fetch revalidation
  }
  void detach_decoded_image() { image_ = nullptr; }
  const isa::DecodedImage* decoded_image() const { return image_; }

  /// Reset registers/cycles (memory untouched) and start at `entry` with the
  /// stack at `stack_top`.
  void reset(Address entry, Address stack_top);

  /// Execute a single instruction. Returns nullopt while running, or the
  /// halt reason once the core stops.
  std::optional<HaltReason> step();

  /// Single instruction through the predecode cache when possible; falls
  /// back to step() semantics otherwise. Bit-identical to step().
  std::optional<HaltReason> step_fast();

  /// Run until halt/fault or until `max_instructions` retire.
  HaltReason run(u64 max_instructions = 200'000'000);

  /// run() through the predecode cache with per-configuration sink
  /// dispatch. Behaves exactly like run() (and is run() when no image is
  /// attached).
  HaltReason run_fast(u64 max_instructions = 200'000'000);

 private:
  // Compiled-per-configuration sink dispatch: run_fast() selects one of
  // these once, so the straight-line MTBDR majority of instructions does
  // not walk the sink vector.
  //
  // Each policy additionally answers fuse_window()/retire_batch() for the
  // superblock path: fuse_window(pc, len) decides whether a fused run of
  // `len` instructions at `pc` may retire as one unit (no per-instruction
  // sink effect inside the window), and retire_batch(n) applies the batched
  // per-instruction side effects for `n` retirements. Policies carrying
  // arbitrary TraceSinks must answer false — a generic sink observes every
  // pc, so fusing would drop events. The fabric-backed policies (defined in
  // executor.cpp) answer via Dwt::inert_window, which proves observe() is a
  // no-op across the window in the MTB's current state. A window whose head
  // would still flip the MTB (the first MTBDR instruction after tracing)
  // takes that one instruction per-slot; the shorter run behind it is asked
  // again at the next slot and fuses.
  struct SinksNone {
    void instruction(Address) const {}
    void branch(Address, Address, isa::BranchKind) const {}
    bool fuse_window(Address, u32) const { return true; }
    void retire_batch(u32) const {}
  };
  struct SinksOne {
    TraceSink* sink;
    void instruction(Address pc) const { sink->on_instruction(pc); }
    void branch(Address source, Address destination, isa::BranchKind kind) const {
      sink->on_branch(source, destination, kind);
    }
    bool fuse_window(Address, u32) const { return false; }
    void retire_batch(u32) const {}
  };
  struct SinksMany {
    const std::vector<TraceSink*>* sinks;
    void instruction(Address pc) const {
      for (auto* sink : *sinks) sink->on_instruction(pc);
    }
    void branch(Address source, Address destination, isa::BranchKind kind) const {
      for (auto* sink : *sinks) sink->on_branch(source, destination, kind);
    }
    bool fuse_window(Address, u32) const { return false; }
    void retire_batch(u32) const {}
  };

  // Cycle-cost providers for execute(): the reference path evaluates the
  // model's opcode switch per instruction; the fast path charges the costs
  // baked into the decoded slot at predecode time (same model, same values).
  struct ModelCost {
    const isa::CycleModel* model;
    const isa::Instruction* in;
    Cycles operator()(bool taken) const { return model->cost(*in, taken); }
  };
  struct SlotCost {
    Cycles taken;
    Cycles not_taken;
    Cycles operator()(bool t) const { return t ? taken : not_taken; }
  };

  /// Forced inline into each dispatch loop: the transfer it runs is
  /// inlined too, which would otherwise tip GCC into calling it per slot.
  template <typename Sinks, typename Cost>
  [[gnu::always_inline]] inline void execute(const isa::Instruction& instr,
                                             Address pc, const Sinks& sinks,
                                             const Cost& cost);
  /// Retire `n` fusible slots starting at `slot`/`pc` as one superblock:
  /// execute()'s own isa::transfer per op (the isa::fusible_in_superblock()
  /// subset touches no memory and never branches), with the PC register
  /// written once at the window end instead of per instruction. The caller
  /// has already done the sink decision, batched trace tick, and cycle
  /// charge for the whole window.
  void execute_fused_window(const isa::DecodedSlot* slot, u32 n, Address pc);
  template <typename Sinks>
  void branch_to(Address source, Address destination, isa::BranchKind kind,
                 const Sinks& sinks);
  template <typename Sinks>
  std::optional<HaltReason> step_with(const Sinks& sinks);
  template <typename Sinks>
  std::optional<HaltReason> step_fast_with(const Sinks& sinks);
  template <typename Sinks>
  HaltReason run_fast_with(u64 max_instructions, const Sinks& sinks);

  /// True when every fetch in the attached image's range is provably
  /// permitted for the current world (no MPU/security/executability fault
  /// possible), so per-instruction fetch checks can be skipped. Cached
  /// against the NS-MPU generation counter.
  bool fast_fetch_clear();
  bool validate_fetch_window() const;

  static constexpr u64 kNoGeneration = ~0ull;

  mem::Bus* bus_;
  isa::CycleModel cycle_model_;
  CpuState state_;
  Cycles cycles_ = 0;
  u64 instructions_ = 0;
  u64 oracle_dispatches_ = 0;
  u64 fused_retired_ = 0;
  std::optional<mem::Fault> fault_;
  std::vector<TraceSink*> sinks_;
  SvcHandler svc_handler_;
  bool halted_ = false;

  const isa::DecodedImage* image_ = nullptr;
  u64 fetch_generation_seen_ = kNoGeneration;
  mem::WorldSide fetch_world_seen_ = mem::WorldSide::NonSecure;
  bool fetch_clear_ = false;
};

}  // namespace raptrack::cpu
