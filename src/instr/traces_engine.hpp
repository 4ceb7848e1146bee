// TRACES Secure-World logging engine: services the per-branch SVCs that the
// instrumentation inserts, maintaining an optimized CF_Log —
//   * conditional branches -> packed taken/not-taken bits (32 per word),
//   * indirect targets      -> 4-byte addresses, run-length encoded,
//   * loop conditions       -> 4-byte values,
// with capacity-triggered partial-report flushes. Byte accounting feeds the
// CF_Log-size figures (1a, 9); the per-call context-switch cycle costs feed
// the runtime figures (1b, 8).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "asm/program.hpp"
#include "cpu/executor.hpp"
#include "instr/traces_rewriter.hpp"
#include "mem/memory_map.hpp"
#include "tz/secure_monitor.hpp"

namespace raptrack::instr {

/// One decoded (verifier-facing) log stream set. Streams are consumed in
/// program-replay order; the replayer knows which stream each site reads.
struct TracesLog {
  std::vector<bool> direction_bits;  ///< conditional outcomes, in order
  std::vector<Address> indirect_targets;  ///< RLE-expanded, in order
  std::vector<u32> loop_conditions;       ///< in order
};

class TracesEngine {
 public:
  /// `capacity_bytes` models the Secure-World CF_Log buffer; 0 disables
  /// partial-report flushing (unbounded log). `bit_packed` selects the
  /// aggressive 1-bit-per-conditional encoding; the default logs one word
  /// per conditional outcome (the C-FLAT/ScaRR-lineage encoding the paper's
  /// Fig 9 "similarly sized CF_Logs" comparison implies).
  TracesEngine(const Program& program, const TracesManifest& manifest,
               mem::MemoryMap& memory, u32 capacity_bytes = 0,
               bool bit_packed = false);

  /// Register kTracesLogBranch / kTracesLogLoopCondition on the monitor,
  /// and resolve every veneer's SVC once (see SvcSite).
  void attach(tz::SecureMonitor& monitor);

  /// Called when the capacity is reached, with the flushed window's stream
  /// contents (the prover signs and transmits them as a partial report).
  using FlushHandler = std::function<void(const TracesLog& window)>;
  void set_flush_handler(FlushHandler handler) {
    flush_handler_ = std::move(handler);
  }

  /// Streams recorded since the last flush (the final report's payload).
  TracesLog window() const;

  /// Compressed CF_Log size in bytes (across flushes, cumulative).
  u64 total_log_bytes() const;
  /// Bytes currently buffered (since the last flush).
  u64 buffered_bytes() const { return current_bytes(); }
  u32 partial_flushes() const { return partial_flushes_; }
  u64 events_logged() const { return events_; }

  /// Full log for the Verifier (concatenation of flushed + buffered, in
  /// order). In the protocol each flush is a signed partial report; the
  /// concatenation is what a complete verification session sees.
  const TracesLog& log() const { return log_; }

  void reset();

 private:
  Cycles log_branch(cpu::CpuState& state);
  Cycles log_loop_condition(cpu::CpuState& state);
  u64 current_bytes() const;
  void maybe_flush();

  /// A veneer SVC resolved at attach(): its record and the decoded
  /// instruction right after it (the relocated branch log_branch() reads).
  struct SvcSite {
    const VeneerRecord* veneer = nullptr;  ///< nullptr: no veneer SVC here
    std::optional<isa::Instruction> next;  ///< nullopt: outside the program
  };
  const SvcSite* site_at(Address svc_addr) const;

  const Program* program_;
  const TracesManifest* manifest_;
  mem::MemoryMap* memory_;
  u32 capacity_bytes_;
  bool bit_packed_;
  Address sites_base_ = 0;
  std::vector<SvcSite> sites_;  ///< one per word from sites_base_

  TracesLog log_;  // cumulative, for verification
  FlushHandler flush_handler_;
  // Window start offsets into the cumulative streams.
  size_t window_bits_start_ = 0;
  size_t window_addrs_start_ = 0;
  size_t window_loops_start_ = 0;
  // Compressed-size accounting for the *current* buffer window.
  u64 window_bits_ = 0;
  u64 window_addr_bytes_ = 0;
  u64 window_loop_bytes_ = 0;
  u64 flushed_bytes_ = 0;
  Address last_indirect_target_ = 0;
  bool in_run_ = false;
  bool have_last_target_ = false;
  u32 partial_flushes_ = 0;
  u64 events_ = 0;
};

}  // namespace raptrack::instr
