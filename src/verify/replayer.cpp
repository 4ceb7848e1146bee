#include "verify/replayer.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/hex.hpp"
#include "verify/deployment.hpp"
#include "verify/memo.hpp"
#include "verify/valuation.hpp"

namespace raptrack::verify {

using isa::BranchKind;
using isa::Reg;
using trace::BranchPacket;

namespace {

u64 memo_key(Address pc, const Valuation& val, u64 policy_hash) {
  u64 h = pc * 0x9e3779b97f4a7c15ull;
  h ^= val.hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= policy_hash + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

PathReplayer::PathReplayer(const Deployment& deployment)
    : index_(&deployment.index()),
      entry_(deployment.entry()),
      mode_(deployment.mode()) {}

// ---------------------------------------------------------------------------
// Replay engine: one greedy pass over the evidence.
//
// Every decision is certain. Naive mode logs every taken branch, TRACES logs
// one direction bit per dynamic instance, and the RAP rewriter leaves no
// slot whose unlogged direction silently re-reaches its own site (sites
// where that would happen log both edges through a CondBoth slot). So the
// next packet always tells which way a logged site went, and the first
// reconstruction failure is final.
// ---------------------------------------------------------------------------

namespace {

class ReplayEngine {
 public:
  ReplayEngine(const ReplayIndex& index, Address entry, ReplayMode mode,
               const ReplayPolicy& policy, const ReplayInputs& inputs,
               u64 max_steps,
               const std::vector<trace::OracleEvent>* script = nullptr,
               MemoCache* memo = nullptr)
      : index_(index),
        mode_(mode),
        policy_(policy),
        inputs_(inputs),
        max_steps_(max_steps),
        script_(script),
        memo_(script == nullptr && mode != ReplayMode::Rap ? memo : nullptr) {
    pc_ = entry;
    if (memo_ != nullptr) {
      // Call-target-policy fingerprint for the memo key: the policy decides
      // whether an indirect call raises a finding, so segments recorded
      // under one policy must never apply under another.
      u64 h = 0x243f6a8885a308d3ull;
      const auto mix = [&h](u64 v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      };
      mix(policy_.valid_call_targets.size());
      for (const Address target : policy_.valid_call_targets) mix(target);
      policy_hash_ = h;
    }
  }

  ReplayResult run();

 private:
  // -- state ---------------------------------------------------------------
  /// Precomputed per-deployment lookups (instructions, branch targets, MTBAR
  /// slots, veneers) — shared and read-only, see deployment.hpp.
  const ReplayIndex& index_;
  ReplayMode mode_;
  const ReplayPolicy& policy_;
  const ReplayInputs& inputs_;
  u64 max_steps_;
  /// Checker mode: the path to follow instead of reading it off the evidence.
  const std::vector<trace::OracleEvent>* script_;

  Address pc_ = 0;
  Valuation val_;
  std::vector<Address> shadow_stack_;
  size_t packet_cursor_ = 0;
  size_t bit_cursor_ = 0;
  size_t target_cursor_ = 0;
  size_t loop_cursor_ = 0;
  ReplayResult result_;
  std::string pending_failure_;

  // -- verified sub-path memo (see memo.hpp) --------------------------------
  /// In-progress segment recording: the anchor state plus the footprint
  /// observed since (shadow-stack pops below the anchor, evidence peeks).
  /// Everything else a segment needs is a cursor delta against the anchor.
  struct MemoRecording {
    bool active = false;
    Address entry_pc = 0;
    Valuation entry_val;
    size_t entry_packets = 0;
    size_t entry_loops = 0;
    size_t entry_bits = 0;
    size_t entry_targets = 0;
    size_t entry_events = 0;
    size_t entry_stack = 0;
    u64 entry_steps = 0;
    /// Lowest shadow-stack depth seen since the anchor; entries popped from
    /// below the anchor depth are part of the segment's key.
    size_t min_stack = 0;
    std::vector<Address> popped;  ///< top-of-anchor-stack first
    /// Last one-packet lookahead (conditional decisions peek the next packet
    /// without consuming it). Only a peek past the consumed window survives
    /// into the segment's guards; earlier peeks are covered by the window.
    bool have_peek = false;
    size_t peek_rel = 0;
    BranchPacket peek_pkt{};
    bool have_eos = false;  ///< a peek found the packet stream exhausted
    size_t eos_rel = 0;
  };

  /// Shared cache, or null when memoization is off. Only Naive and TRACES
  /// replays use it: RAP chains rarely repeat a segment, so recording them
  /// costs memory and buys nothing. Checker mode never uses it.
  MemoCache* memo_ = nullptr;
  MemoRecording rec_;
  /// A halted segment was spliced: the replay is complete.
  bool memo_halted_ = false;
  u64 policy_hash_ = 0;

  // -- helpers ---------------------------------------------------------------
  void fail(const std::string& why) {
    rec_.active = false;  // a failing stretch must never become a segment
    if (pending_failure_.empty()) pending_failure_ = why;
  }

  std::optional<BranchPacket> consume_packet(Address src) {
    if (packet_cursor_ >= inputs_.packets.size()) {
      fail("CF_Log exhausted at " + hex32(src));
      return std::nullopt;
    }
    const BranchPacket packet = inputs_.packets[packet_cursor_++];
    if (packet.source != src) {
      fail("CF_Log source mismatch at " + hex32(src) + " (log has " +
           hex32(packet.source) + ")");
      return std::nullopt;
    }
    return packet;
  }

  std::optional<Address> consume_indirect_target() {
    if (target_cursor_ >= inputs_.traces_log.indirect_targets.size()) {
      fail("TRACES target stream exhausted");
      return std::nullopt;
    }
    return inputs_.traces_log.indirect_targets[target_cursor_++];
  }

  std::optional<u32> consume_loop_value(bool traces) {
    const auto& stream =
        traces ? inputs_.traces_log.loop_conditions : inputs_.loop_values;
    if (loop_cursor_ >= stream.size()) {
      fail("loop-condition stream exhausted");
      return std::nullopt;
    }
    return stream[loop_cursor_++];
  }

  /// Record a reconstructed event; in checker mode it must match the script.
  void emit_event(Address source, Address destination, BranchKind kind) {
    if (script_) {
      const size_t index = result_.events.size();
      if (index >= script_->size() || !((*script_)[index] ==
                                        trace::OracleEvent{source, destination,
                                                           kind})) {
        fail("path deviates from the scripted path at event " +
             std::to_string(index) + " (" + hex32(source) + " -> " +
             hex32(destination) + ")");
        return;
      }
    }
    result_.events.push_back({source, destination, kind});
  }

  void report_finding(AttackFinding finding) {
    // Segments carry no findings, so a stretch that raised one must not
    // become a segment: a splice would drop the finding.
    rec_.active = false;
    result_.findings.push_back(std::move(finding));
  }

  void check_call_policy(Address site, Address target) {
    if (!policy_.valid_call_targets.empty() &&
        policy_.valid_call_targets.count(target) == 0) {
      report_finding({site, 0, target,
                      "indirect call to illegitimate target " + hex32(target) +
                          " (JOP indicator)"});
    }
  }

  void pop_shadow(Address site, Address target) {
    if (shadow_stack_.empty()) {
      report_finding({site, 0, target, "return with empty shadow call stack"});
      return;
    }
    if (rec_.active && shadow_stack_.size() <= rec_.min_stack) {
      // Popping below the recording anchor: the popped value steered this
      // segment, so it becomes part of the segment's entry guards.
      rec_.popped.push_back(shadow_stack_.back());
      rec_.min_stack = shadow_stack_.size() - 1;
    }
    const Address expected = shadow_stack_.back();
    shadow_stack_.pop_back();
    if (expected != target) {
      report_finding({site, expected, target,
                      "return target " + hex32(target) +
                          " differs from call-stack expectation " +
                          hex32(expected) + " (ROP indicator)"});
    }
  }

  /// A resolved taken branch: consume/check evidence where required, emit
  /// the event, move the pc.
  void take_branch(const ReplayStep& s, BranchKind kind) {
    const Address target = s.target;
    if (s.has(ReplayStep::kLogged)) {
      const auto packet = consume_packet(pc_);
      if (!packet) return;
      if (packet->destination != target) {
        fail("CF_Log destination mismatch at " + hex32(pc_) + ": log " +
             hex32(packet->destination) + " vs static " + hex32(target));
        return;
      }
    }
    if (pending_failure_.empty()) {
      emit_event(pc_, target, kind);
      if (pending_failure_.empty()) pc_ = target;
    }
  }

  /// Indirect target resolution from the mode's evidence stream. In checker
  /// mode the evidence must agree with the script (emit_event enforces the
  /// final comparison).
  std::optional<Address> indirect_target(const ReplayStep& s) {
    switch (mode_) {
      case ReplayMode::Naive: {
        const auto packet = consume_packet(pc_);
        if (!packet) return std::nullopt;
        return packet->destination;
      }
      case ReplayMode::Rap: {
        if (!s.has(ReplayStep::kLogged)) {
          fail("unlogged indirect branch outside MTBAR at " + hex32(pc_));
          return std::nullopt;
        }
        const auto packet = consume_packet(pc_);
        if (!packet) return std::nullopt;
        return packet->destination;
      }
      case ReplayMode::Traces:
        return consume_indirect_target();
    }
    return std::nullopt;
  }

  /// Is the next unconsumed packet from exactly `source`?
  bool next_packet_from(Address source) const {
    return packet_cursor_ < inputs_.packets.size() &&
           inputs_.packets[packet_cursor_].source == source;
  }

  /// Decide a conditional branch at pc_.
  std::optional<bool> decide_conditional(const ReplayStep& s) {
    if (script_) {
      // Checker mode: the script dictates the decision; evidence consistency
      // is still enforced by take_branch/indirect_target.
      const size_t index = result_.events.size();
      return index < script_->size() && (*script_)[index].source == pc_;
    }
    switch (mode_) {
      case ReplayMode::Naive:
        // Every taken branch is logged, and any path returning to this site
        // passes through another logged taken branch first: unambiguous.
        memo_note_peek();
        return next_packet_from(pc_);
      case ReplayMode::Rap: {
        // A Bcc inside MTBAR sits in a CondBoth slot, whose taken edge and
        // fall-through exit are both logged: decided as in Naive mode.
        if (s.has(ReplayStep::kLogged)) return next_packet_from(pc_);
        if (const auto* slot = s.site_slot) {
          // The unlogged direction cannot re-reach this site without a
          // logged branch in between (the rewriter gave every such site a
          // CondBoth slot), so a packet from this slot next means the
          // logged direction was taken now, and any other packet means it
          // was not.
          const bool next_in_slot =
              packet_cursor_ < inputs_.packets.size() &&
              inputs_.packets[packet_cursor_].source >= slot->slot_base &&
              inputs_.packets[packet_cursor_].source < slot->slot_end;
          const bool logged_direction =
              slot->kind != rewrite::SlotKind::CondNotTaken;
          return next_in_slot ? logged_direction : !logged_direction;
        }
        return evaluate_condition(s.instr.cond, val_);
      }
      case ReplayMode::Traces: {
        if (s.has(ReplayStep::kCondVeneer)) {
          if (bit_cursor_ >= inputs_.traces_log.direction_bits.size()) {
            fail("TRACES direction-bit stream exhausted");
            return std::nullopt;
          }
          return inputs_.traces_log.direction_bits[bit_cursor_++];
        }
        return evaluate_condition(s.instr.cond, val_);
      }
    }
    return std::nullopt;
  }

  // -- memo engine ----------------------------------------------------------
  // Called once per run()-loop iteration, before the step executes. Closes
  // a full recording window, splices any stored segments that apply at the
  // current state, and (re-)anchors recording. All memoization flows through
  // here; the step itself only feeds the recording via the hooks above.

  void memo_tick() {
    if (rec_.active) {
      if (packet_cursor_ - rec_.entry_packets <
          memo_->options().window_packets) {
        return;
      }
      memo_close(/*halted=*/false);
    }
    while (memo_try_apply()) {
      if (memo_halted_) return;
    }
    memo_begin();
  }

  void memo_begin() {
    rec_.active = true;
    rec_.entry_pc = pc_;
    rec_.entry_val = val_;
    rec_.entry_packets = packet_cursor_;
    rec_.entry_loops = loop_cursor_;
    rec_.entry_bits = bit_cursor_;
    rec_.entry_targets = target_cursor_;
    rec_.entry_events = result_.events.size();
    rec_.entry_stack = shadow_stack_.size();
    rec_.min_stack = shadow_stack_.size();
    rec_.entry_steps = result_.steps;
    rec_.popped.clear();
    rec_.have_peek = false;
    rec_.have_eos = false;
  }

  /// Record the one-packet lookahead a conditional decision is about to
  /// take. Peeks inside the consumed window are pinned by the window itself;
  /// memo_close keeps only a final peek past it.
  void memo_note_peek() {
    if (!rec_.active) return;
    const size_t rel = packet_cursor_ - rec_.entry_packets;
    if (packet_cursor_ < inputs_.packets.size()) {
      rec_.have_peek = true;
      rec_.peek_rel = rel;
      rec_.peek_pkt = inputs_.packets[packet_cursor_];
    } else {
      rec_.have_eos = true;
      rec_.eos_rel = rel;
    }
  }

  /// Package the stretch since the anchor into an immutable segment and
  /// store it. `halted` marks a segment that ends in the clean-halt check
  /// (exact evidence exhaustion becomes part of its guards).
  void memo_close(bool halted) {
    const bool was_active = rec_.active;
    rec_.active = false;
    if (!was_active) return;
    const u64 steps_delta = result_.steps - rec_.entry_steps;
    if (steps_delta == 0) return;  // empty segment would splice nothing
    auto seg = std::make_shared<MemoSegment>();
    seg->entry_pc = rec_.entry_pc;
    seg->entry_val = rec_.entry_val;
    seg->policy_hash = policy_hash_;
    seg->popped = rec_.popped;
    seg->packets.assign(inputs_.packets.begin() + rec_.entry_packets,
                        inputs_.packets.begin() + packet_cursor_);
    const auto& loops = inputs_.traces_log.loop_conditions;
    seg->loop_values.assign(loops.begin() + rec_.entry_loops,
                            loops.begin() + loop_cursor_);
    const auto& bits = inputs_.traces_log.direction_bits;
    seg->direction_bits.reserve(bit_cursor_ - rec_.entry_bits);
    for (size_t i = rec_.entry_bits; i < bit_cursor_; ++i) {
      seg->direction_bits.push_back(bits[i] ? 1 : 0);
    }
    seg->indirect_targets.assign(
        inputs_.traces_log.indirect_targets.begin() + rec_.entry_targets,
        inputs_.traces_log.indirect_targets.begin() + target_cursor_);
    const size_t n_packets = seg->packets.size();
    if (rec_.have_peek && rec_.peek_rel == n_packets) {
      seg->peeked_next = true;
      seg->peeked = rec_.peek_pkt;
    }
    if (rec_.have_eos && rec_.eos_rel == n_packets) seg->eos_observed = true;
    seg->halted = halted;
    seg->exit_pc = pc_;
    seg->exit_val = val_;
    seg->pushed.assign(shadow_stack_.begin() + rec_.min_stack,
                       shadow_stack_.end());
    seg->events.assign(result_.events.begin() + rec_.entry_events,
                       result_.events.end());
    seg->steps = steps_delta;
    const u64 key = memo_key(seg->entry_pc, seg->entry_val, policy_hash_);
    memo_->insert(key, std::move(seg));
  }

  /// Full entry-guard validation of a candidate against the live state.
  bool memo_matches(const MemoSegment& seg) const {
    if (seg.entry_pc != pc_ || seg.policy_hash != policy_hash_ ||
        !(seg.entry_val == val_)) {
      return false;
    }
    // Live execution of the segment's steps would need this much budget.
    if (result_.steps + seg.steps > max_steps_) return false;
    if (seg.popped.size() > shadow_stack_.size()) return false;
    for (size_t i = 0; i < seg.popped.size(); ++i) {
      if (shadow_stack_[shadow_stack_.size() - 1 - i] != seg.popped[i]) {
        return false;
      }
    }
    // Consumed evidence must match byte-for-byte at the live cursors. A
    // halted segment additionally requires each stream *exactly* exhausted —
    // the clean-halt check it memoized demands that.
    const size_t pkt_rem = inputs_.packets.size() - packet_cursor_;
    if (seg.halted ? pkt_rem != seg.packets.size()
                   : pkt_rem < seg.packets.size()) {
      return false;
    }
    if (!std::equal(seg.packets.begin(), seg.packets.end(),
                    inputs_.packets.begin() + packet_cursor_)) {
      return false;
    }
    if (seg.peeked_next) {
      if (pkt_rem < seg.packets.size() + 1) return false;
      if (!(inputs_.packets[packet_cursor_ + seg.packets.size()] ==
            seg.peeked)) {
        return false;
      }
    }
    if (seg.eos_observed && pkt_rem != seg.packets.size()) return false;
    const auto& loops = inputs_.traces_log.loop_conditions;
    const size_t loop_rem = loops.size() - loop_cursor_;
    if (seg.halted ? loop_rem != seg.loop_values.size()
                   : loop_rem < seg.loop_values.size()) {
      return false;
    }
    if (!std::equal(seg.loop_values.begin(), seg.loop_values.end(),
                    loops.begin() + loop_cursor_)) {
      return false;
    }
    const auto& bits = inputs_.traces_log.direction_bits;
    const size_t bit_rem = bits.size() - bit_cursor_;
    if (seg.halted ? bit_rem != seg.direction_bits.size()
                   : bit_rem < seg.direction_bits.size()) {
      return false;
    }
    for (size_t i = 0; i < seg.direction_bits.size(); ++i) {
      if (static_cast<u8>(bits[bit_cursor_ + i] ? 1 : 0) !=
          seg.direction_bits[i]) {
        return false;
      }
    }
    const auto& targets = inputs_.traces_log.indirect_targets;
    const size_t tgt_rem = targets.size() - target_cursor_;
    if (seg.halted ? tgt_rem != seg.indirect_targets.size()
                   : tgt_rem < seg.indirect_targets.size()) {
      return false;
    }
    return std::equal(seg.indirect_targets.begin(), seg.indirect_targets.end(),
                      targets.begin() + target_cursor_);
  }

  /// Splice a matched segment: exactly the state live execution of the
  /// stretch would have produced.
  void memo_apply(const MemoSegment& seg) {
    shadow_stack_.resize(shadow_stack_.size() - seg.popped.size());
    shadow_stack_.insert(shadow_stack_.end(), seg.pushed.begin(),
                         seg.pushed.end());
    result_.events.insert(result_.events.end(), seg.events.begin(),
                          seg.events.end());
    packet_cursor_ += seg.packets.size();
    loop_cursor_ += seg.loop_values.size();
    bit_cursor_ += seg.direction_bits.size();
    target_cursor_ += seg.indirect_targets.size();
    val_ = seg.exit_val;
    pc_ = seg.exit_pc;
    result_.steps += seg.steps;
    if (seg.halted) memo_halted_ = true;
  }

  bool memo_try_apply() {
    const u64 key = memo_key(pc_, val_, policy_hash_);
    MemoCache::Handle candidates[MemoCache::kLookupWidth];
    const size_t count =
        memo_->lookup(key, candidates, MemoCache::kLookupWidth);
    for (size_t i = 0; i < count; ++i) {
      if (memo_matches(*candidates[i])) {
        memo_apply(*candidates[i]);
        ++result_.memo_hits;
        memo_->note_hit();
        return true;
      }
    }
    ++result_.memo_misses;
    memo_->note_miss();
    return false;
  }

  /// Retire the straight-line run of data instructions starting at `s`,
  /// clamped to the step budget: valuation transfer only, no evidence.
  void retire_run(const ReplayStep& s) {
    const u64 n = std::min<u64>(s.run, max_steps_ - result_.steps);
    const ReplayStep* run = &s;
    for (u64 k = 0; k < n; ++k) {
      apply_data(val_, run[k].instr, pc_ + static_cast<Address>(4 * k));
    }
    result_.steps += n;
    pc_ += static_cast<Address>(4 * n);
  }

  /// Execute the one non-data instruction at pc_. Returns true when the
  /// program halted cleanly.
  bool step(const ReplayStep& s);
};

bool ReplayEngine::step(const ReplayStep& s) {
  switch (s.kind) {
    case StepKind::Undefined:
      fail("undefined instruction at " + hex32(pc_));
      break;

    case StepKind::Halt:
      // All evidence must be accounted for; leftovers indicate injection.
      if (packet_cursor_ != inputs_.packets.size()) {
        fail("unconsumed CF_Log packets at halt");
      } else if (mode_ == ReplayMode::Traces &&
                 (bit_cursor_ != inputs_.traces_log.direction_bits.size() ||
                  target_cursor_ != inputs_.traces_log.indirect_targets.size() ||
                  loop_cursor_ != inputs_.traces_log.loop_conditions.size())) {
        fail("unconsumed TRACES evidence at halt");
      } else if (mode_ == ReplayMode::Rap &&
                 loop_cursor_ != inputs_.loop_values.size()) {
        fail("unconsumed loop-condition values at halt");
      } else if (script_ && result_.events.size() != script_->size()) {
        fail("scripted path not fully consumed at halt");
      }
      return pending_failure_.empty();

    case StepKind::Data:  // never dispatched here: run() retires data runs
      break;

    case StepKind::Svc: {
      if (!s.has(ReplayStep::kSvcVeneer)) {
        fail("unexpected SVC at " + hex32(pc_));
        break;
      }
      if (s.has(ReplayStep::kSvcLoop)) {
        const auto value = consume_loop_value(mode_ == ReplayMode::Traces);
        if (!value) break;
        val_.write(s.svc_iterator, *value);
      }
      pc_ += 4;
      break;
    }

    case StepKind::Direct:
      take_branch(s, BranchKind::Direct);
      break;

    case StepKind::DirectCall:
      shadow_stack_.push_back(pc_ + 4);
      val_.write(Reg::LR, pc_ + 4);
      take_branch(s, BranchKind::DirectCall);
      break;

    case StepKind::Conditional: {
      const auto taken = decide_conditional(s);
      if (!pending_failure_.empty()) break;
      if (!taken) {
        fail("unresolvable conditional branch at " + hex32(pc_) +
             " (no log entry, flags unknown)");
        break;
      }
      if (*taken) {
        take_branch(s, BranchKind::Conditional);
      } else {
        pc_ += 4;
      }
      break;
    }

    case StepKind::IndirectCall: {  // BLX rm (naive/traces binaries only)
      shadow_stack_.push_back(pc_ + 4);
      val_.write(Reg::LR, pc_ + 4);
      const Address site = pc_;
      const auto target = indirect_target(s);
      if (!target) break;
      check_call_policy(site, *target);
      emit_event(site, *target, BranchKind::IndirectCall);
      if (pending_failure_.empty()) pc_ = *target;
      break;
    }

    case StepKind::IndirectJump: {
      const Address site = pc_;
      const auto target = indirect_target(s);
      if (!target) break;
      // A BX rm inside a RAP IndirectCall slot (or a TRACES indirect-call
      // veneer) is semantically a call: the BL at the original site already
      // pushed the shadow stack; apply the call-target policy here.
      if (s.has(ReplayStep::kCallSite)) check_call_policy(s.call_site, *target);
      emit_event(site, *target, BranchKind::IndirectJump);
      if (pending_failure_.empty()) pc_ = *target;
      break;
    }

    case StepKind::ReturnLr: {  // BX LR: unmonitored leaf return (§IV-C.2)
      std::optional<Address> target;
      if (mode_ == ReplayMode::Naive) {
        const auto packet = consume_packet(pc_);
        if (!packet) break;
        target = packet->destination;
      } else {
        target = val_.read(Reg::LR, pc_);
        if (!target) {
          fail("BX LR with unknown link register at " + hex32(pc_));
          break;
        }
      }
      pop_shadow(pc_, *target);
      emit_event(pc_, *target, BranchKind::Return);
      if (pending_failure_.empty()) pc_ = *target;
      break;
    }

    case StepKind::ReturnPop: {  // POP {…,pc}: monitored return
      const Address site = pc_;
      const auto target = indirect_target(s);
      if (!target) break;
      apply_data(val_, s.instr, site);  // clobber popped registers
      pop_shadow(site, *target);
      emit_event(site, *target, BranchKind::Return);
      if (pending_failure_.empty()) pc_ = *target;
      break;
    }
  }
  return false;
}

ReplayResult ReplayEngine::run() {
  while (result_.steps < max_steps_) {
    if (memo_ != nullptr) {
      memo_tick();
      if (memo_halted_) {
        // A halted segment was spliced: its guards proved the exact
        // clean-halt conditions, so the replay is complete.
        result_.complete = true;
        return std::move(result_);
      }
    }
    if (!index_.contains(pc_) || pc_ % 4 != 0) {
      ++result_.steps;
      fail("path left the program image at " + hex32(pc_));
      break;
    }
    const ReplayStep& s = index_.step(pc_);
    if (s.kind == StepKind::Data) {
      // A data run consumes no evidence, raises no finding and decides
      // nothing: a memo tick inside it would find recording active with an
      // unfilled window and do nothing, so anchors, telemetry and every
      // result field land where per-instruction stepping put them.
      retire_run(s);
      continue;
    }
    ++result_.steps;
    if (step(s)) {
      if (memo_ != nullptr) memo_close(/*halted=*/true);
      result_.complete = true;
      return std::move(result_);
    }
    if (!pending_failure_.empty()) break;
  }
  if (pending_failure_.empty()) fail("replay step budget exceeded");
  result_.failure = pending_failure_;
  result_.complete = false;
  return std::move(result_);
}

}  // namespace

ReplayResult PathReplayer::replay(const ReplayInputs& inputs, u64 max_steps) {
  return ReplayEngine(*index_, entry_, mode_, policy_, inputs, max_steps,
                      nullptr, memo_)
      .run();
}

ReplayResult PathReplayer::check_path(
    const std::vector<trace::OracleEvent>& path, const ReplayInputs& inputs,
    u64 max_steps) {
  return ReplayEngine(*index_, entry_, mode_, policy_, inputs, max_steps, &path)
      .run();
}

}  // namespace raptrack::verify
