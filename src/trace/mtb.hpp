// Micro Trace Buffer (MTB) model, after the ARM MTB-M33 TRM features used by
// the paper (§II-B1): a circular buffer in dedicated SRAM that records the
// (source, destination) pair of every non-sequential PC change while tracing
// is active; TSTART/TSTOP inputs driven by DWT comparators; a MASTER.TSTARTEN
// mode that traces unconditionally; and a FLOW watermark that raises a debug
// event when the write position reaches a limit (used for partial reports).
//
// Tracing costs zero CPU cycles — the MTB runs in parallel with execution,
// which is the paper's core performance claim.
#pragma once

#include <functional>
#include <optional>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "mem/memory_map.hpp"
#include "trace/branch_packet.hpp"

namespace raptrack::trace {

class Mtb {
 public:
  /// `sram` is the memory map owning the MTB SRAM region; packets are stored
  /// there (Secure memory, so the Non-Secure world cannot tamper with
  /// CF_Log).
  Mtb(mem::MemoryMap& sram, Address buffer_base, u32 buffer_bytes);

  // -- register interface (Secure-World only in the device model) ----------

  /// MASTER.EN: master enable. When false nothing is recorded regardless of
  /// TSTART/TSTOP.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// MASTER.TSTARTEN: trace unconditionally from now on (the *naive* MTB
  /// configuration of Figure 1).
  void set_tstart_enable(bool always_on);

  /// FLOW.WATERMARK: byte offset at which a debug event fires (0 = off).
  /// Must be packet-aligned (multiple of 8).
  void set_watermark(u32 byte_offset);

  /// Debug-event callback (wired to the Secure-World partial-report handler).
  void set_watermark_handler(std::function<void()> handler);

  /// Activation latency in *instructions*: how long after a TSTART signal
  /// tracing actually begins. The paper adds nop padding in MTBAR
  /// trampolines "to allow the MTB sufficient time to activate" (§V-C);
  /// this knob models that hardware latency (default 1).
  void set_activation_latency(u32 instructions) { activation_latency_ = instructions; }
  u32 activation_latency() const { return activation_latency_; }

  /// POSITION register: current write offset in bytes. reset_position()
  /// reuses the same buffer after a partial report (§IV-E).
  u32 position() const {
    sync();
    return position_;
  }
  void reset_position();

  bool wrapped() const {
    sync();
    return wrapped_;
  }

  /// Total bytes ever written (across wraps/resets) — the CF_Log volume
  /// metric of Figures 1(a) and 9.
  u64 total_bytes_written() const {
    sync();
    return total_bytes_;
  }
  u64 packets_recorded() const {
    return total_bytes_written() / BranchPacket::kBytes;
  }

  // Observability: trace on/off toggles and watermark firings. Counted on
  // *transitions* only — tstart()/tstop() are signalled per retired
  // instruction while the pc sits inside an MTBAR/MTBDR window, so raw call
  // counts would be meaningless instruction tallies.
  u64 tstart_events() const { return tstart_events_; }
  u64 tstop_events() const { return tstop_events_; }
  u64 watermark_events() const { return watermark_events_; }

  // -- signals from the DWT / CPU -------------------------------------------

  // These four run on every retired instruction / taken branch, so they are
  // defined inline; only the packet-recording slow half stays out of line.

  /// TSTART input (DWT comparator matched inside MTBAR).
  void tstart() {
    if (started_ || always_on_) return;
    started_ = true;
    ++tstart_events_;
    pending_activation_ = activation_latency_;
    restart_pending_ = true;
  }
  /// TSTOP input (DWT comparator matched inside MTBDR).
  void tstop() {
    if (always_on_) return;  // TSTARTEN overrides the stop input
    if (started_) ++tstop_events_;
    started_ = false;
    pending_activation_ = 0;
  }

  /// True when tstop() would change nothing: the MTB is already stopped
  /// (a stopped MTB never has a pending activation) or TSTARTEN overrides
  /// the stop input.
  bool tstop_idempotent() const { return !started_ || always_on_; }
  /// True when tstart() would change nothing: already started (a pending
  /// activation keeps counting down untouched) or TSTARTEN.
  bool tstart_idempotent() const { return started_ || always_on_; }

  /// Called once per retired instruction: advances the activation-latency
  /// countdown.
  void on_instruction_retired() {
    if (started_ && pending_activation_ > 0) --pending_activation_;
  }

  /// Batched form: equivalent to `n` on_instruction_retired() calls. The
  /// executor's superblock path retires a whole straight-line run at once,
  /// and only when every TSTART/TSTOP the DWT would signal inside the run is
  /// a no-op in the current state (Dwt::inert_window). The activation
  /// countdown is then the only per-instruction MTB state that moves, and
  /// it commutes across the window.
  void on_instructions_retired(u32 n) {
    if (started_ && pending_activation_ > 0) {
      pending_activation_ -= pending_activation_ < n ? pending_activation_ : n;
    }
  }

  /// Non-sequential PC change. Records a packet iff tracing is live. Under
  /// an active DeferScope the packet is staged in a small local ring and
  /// flushed to SRAM lazily (see sync()); packets whose write would reach
  /// the watermark or wrap the buffer are still written eagerly so the
  /// watermark handler and wrap bookkeeping fire at exactly the same event
  /// as on the undeferred path.
  void on_branch(Address source, Address destination, isa::BranchKind kind) {
    (void)kind;
    if (!tracing()) return;
    BranchPacket packet{source, destination, restart_pending_};
    restart_pending_ = false;
    if (defer_) {
      if (pending_deferred_ == kDeferRing) flush_deferred();
      // position_ is frozen while packets are pending, so each staged
      // packet's end offset is exact. A packet that would land on the
      // watermark or past the buffer end takes the eager path below.
      const u32 end =
          position_ + (pending_deferred_ + 1) * BranchPacket::kBytes;
      if (end <= buffer_bytes_ && end != watermark_) {
        deferred_[pending_deferred_][0] = packet.source_word();
        deferred_[pending_deferred_][1] = packet.destination_word();
        ++pending_deferred_;
        return;
      }
      flush_deferred();
    }
    write_packet(packet);
  }

  /// Is tracing currently live (started, latency elapsed, enabled)?
  bool tracing() const {
    return enabled_ && started_ && pending_activation_ == 0;
  }

  // -- reading the log back (Secure World / tests) --------------------------

  /// Decode the packets currently in the buffer (up to `position`, or the
  /// whole buffer when wrapped).
  PacketLog read_log() const;

  /// Append the logged packets to `out` in oldest-first wire order (the
  /// byte layout write_packet stored: source_word then destination_word,
  /// little-endian). Equivalent to serializing read_log() packet by packet,
  /// but a straight copy of the buffer span — the report path uses this to
  /// build packet payloads without an intermediate PacketLog.
  void append_log_bytes(std::vector<u8>& out) const;

  /// Bytes append_log_bytes() would add (= packets-in-log * kBytes).
  u32 log_bytes() const {
    sync();
    return wrapped_ ? buffer_bytes_ : position_;
  }

  Address buffer_base() const { return buffer_base_; }
  u32 buffer_bytes() const { return buffer_bytes_; }

  // -- register-level interface (MTB-M33 TRM layout) -------------------------
  //
  // The Secure World can also program the MTB through its memory-mapped
  // registers, exactly as the paper's RoT does on real silicon:
  //   0x00 POSITION  [31:3] write pointer, bit 2 WRAP
  //   0x04 MASTER    bit 31 EN, bit 5 TSTARTEN
  //   0x08 FLOW      [31:3] WATERMARK
  //   0x0c BASE      buffer base address (read-only)
  static constexpr u32 kRegPosition = 0x00;
  static constexpr u32 kRegMaster = 0x04;
  static constexpr u32 kRegFlow = 0x08;
  static constexpr u32 kRegBase = 0x0c;

  u32 read_register(u32 offset) const;
  void write_register(u32 offset, u32 value);

  // -- fault injection (src/fault) -------------------------------------------

  /// XOR a stored packet word in the buffer SRAM with `mask` — models a
  /// single-event upset in MTB SRAM. `byte_offset` must be word-aligned and
  /// inside the buffer. Words at packet-even offsets are source words (bit 0
  /// is the A-bit, which the replayer does not interpret — see DESIGN.md's
  /// fault-model notes); odd offsets are destination words.
  void corrupt_stored_word(u32 byte_offset, u32 mask);

  /// Bytes of the buffer currently holding live (unread) packets.
  u32 live_bytes() const {
    sync();
    return wrapped_ ? buffer_bytes_ : position_;
  }

  // -- deferred emission (executor fast path) --------------------------------

  /// RAII scope enabling deferred packet emission. Created only by the
  /// executor around a fast-path run whose sole packet consumer is the
  /// fabric itself — code that drives on_branch() by hand and then reads
  /// the SRAM directly (tests, injectors) never sees deferral. While the
  /// scope is active, all externally observable MTB state (registers, log
  /// reads, byte counters, SRAM corruption) flushes pending packets first,
  /// so the stored wire bytes are indistinguishable from eager emission.
  class DeferScope {
   public:
    explicit DeferScope(Mtb& mtb) : mtb_(&mtb), prev_(mtb.defer_) {
      // Only buffers with directly addressable backing memory can defer:
      // flush_deferred() writes through buffer_mem_.
      mtb_->defer_ = mtb.buffer_mem_ != nullptr;
    }
    ~DeferScope() {
      mtb_->sync();
      mtb_->defer_ = prev_;
    }
    DeferScope(const DeferScope&) = delete;
    DeferScope& operator=(const DeferScope&) = delete;

   private:
    Mtb* mtb_;
    bool prev_;
  };

  /// Flush any deferred packets to SRAM. Const because deferral is a pure
  /// cache of not-yet-materialized writes: every const reader calls this
  /// first, so logical state never depends on flush timing.
  void sync() const {
    if (pending_deferred_ != 0) flush_deferred();
  }

 private:
  void write_packet(const BranchPacket& packet);
  void flush_deferred() const;

  mem::MemoryMap* sram_;
  Address buffer_base_;
  u32 buffer_bytes_;
  /// Direct pointer into the buffer region's backing store (resolved at
  /// construction; nullptr if the buffer is not plain backed memory).
  u8* buffer_mem_ = nullptr;
  bool enabled_ = false;
  bool always_on_ = false;
  bool started_ = false;        // TSTART latched, TSTOP clears
  u32 activation_latency_ = 1;
  u32 pending_activation_ = 0;  // instructions until tracing goes live
  bool restart_pending_ = true; // next packet carries the A-bit
  // position_/wrapped_/total_bytes_ are mutable because flush_deferred()
  // materializes staged packets from const readers (the lazy-write cache
  // idiom): deferral never changes what any reader observes, only when the
  // underlying byte stores happen.
  mutable u32 position_ = 0;
  mutable bool wrapped_ = false;
  u32 watermark_ = 0;
  std::function<void()> watermark_handler_;
  mutable u64 total_bytes_ = 0;
  bool defer_ = false;
  static constexpr u32 kDeferRing = 32;
  mutable u32 deferred_[kDeferRing][2]{};  // staged {source, destination} words
  mutable u32 pending_deferred_ = 0;
  u64 tstart_events_ = 0;
  u64 tstop_events_ = 0;
  u64 watermark_events_ = 0;
};

}  // namespace raptrack::trace
