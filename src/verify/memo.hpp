// Verified sub-path memo cache: skip re-simulating control-flow segments the
// deployment has already replayed and validated.
//
// MCU attestation traffic is dominated by repetition — every loop iteration,
// every hot call path, and (for a fleet) every device running the same
// firmware produces near-identical CF_Log windows. The Naive and TRACES
// replay engines therefore memoize *segments*: finding-free stretches of
// their own execution, keyed by everything the stretch's behavior depends on
// and valued by everything the stretch changes. On a later replay whose
// state and evidence window match a stored segment exactly, the engine
// splices the recorded effects (events, cursor advances, valuation, shadow
// stack, step counters) and jumps straight to the exit state.
//
// Soundness rests on the engine's determinism: every decision is a pure
// function of (pc, valuation, shadow-stack top, the evidence actually
// consumed or peeked, the immutable ReplayIndex, and the call-target
// policy). A segment's key captures precisely that footprint — consumed
// evidence is compared byte-for-byte, the one-packet lookahead the decision
// logic may have peeked is pinned, and anything outside the footprint
// (findings, failures) aborts recording instead of being approximated.
// RAP replays do not use the cache: their chains rarely repeat a segment,
// so recording them cost resident memory for no hits. Memoization
// may therefore change only wall-clock time and the memo_hits/memo_misses
// telemetry — never a verdict, event, finding, or counter. tests/test_memo
// enforces that bit-for-bit against the unmemoized engine.
//
// The cache lives on the Deployment (one per expected image) and is shared
// by the serial Verifier and every VerifierFarm worker: sharded
// open-addressed tables under per-shard mutexes, entries held as
// shared_ptr<const MemoSegment> so a hit copies a pointer under the lock
// and validates outside it. Memory is bounded per shard; insertion evicts
// least-recently-used entries within the probe window (and clock-sweeps the
// shard when the byte budget overflows).
//
// The one switch is VerifyConfig::use_memo: with it off, verify_report_chain
// never attaches the cache and the engine runs the unmemoized code path.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "trace/branch_packet.hpp"
#include "trace/trace_fabric.hpp"
#include "verify/valuation.hpp"

namespace raptrack::verify {

/// Always true: the cache is always compiled in. Kept for the e2e bench
/// report, which prints it.
inline constexpr bool kMemoEnabled = true;

/// One memoized segment: the exact-match entry guards (key side) and the
/// recorded effects to splice on a hit (value side). Immutable once
/// inserted; shared across threads by const pointer.
struct MemoSegment {
  // -- key side: the segment applies only when ALL of these match ----------
  Address entry_pc = 0;
  Valuation entry_val;
  u64 policy_hash = 0;  ///< call-target policy fingerprint (affects findings)
  /// Shadow-stack entries the segment consumes, top-of-stack first.
  std::vector<Address> popped;
  /// Evidence consumed during the segment, compared byte-for-byte against
  /// the live streams at the current cursors.
  std::vector<trace::BranchPacket> packets;
  std::vector<u32> loop_values;      ///< TRACES loop-condition stream
  std::vector<u8> direction_bits;    ///< TRACES direction bits (0/1)
  std::vector<Address> indirect_targets;
  /// The engine peeked one packet past the consumed window (conditional
  /// decisions look ahead without consuming); the live stream must hold the
  /// same packet there.
  bool peeked_next = false;
  trace::BranchPacket peeked{};
  /// The engine observed end-of-log just past the window (a peek that found
  /// the stream exhausted); the live stream must end there too.
  bool eos_observed = false;
  /// Segment ends at a clean halt: every evidence stream must be *exactly*
  /// exhausted by the window, and applying it completes the replay.
  bool halted = false;

  // -- value side: effects spliced into the engine on a hit ----------------
  Address exit_pc = 0;
  Valuation exit_val;
  /// Shadow-stack entries live above the popped point at exit, bottom first.
  std::vector<Address> pushed;
  std::vector<trace::OracleEvent> events;
  u64 steps = 0;

  /// Approximate heap footprint, for the shard byte budget.
  size_t bytes() const;
  /// Same entry guards as `other` (used to refresh instead of duplicate when
  /// two workers record the same segment concurrently).
  bool same_entry(const MemoSegment& other) const;
};

struct MemoOptions {
  /// Shard count (lock granularity). Power of two.
  size_t shards = 16;
  /// Open-addressed slots per shard.
  size_t slots_per_shard = 2048;
  /// Byte budget across the whole cache (split evenly over shards).
  /// Entries larger than one shard's budget are rejected outright.
  size_t budget_bytes = size_t{48} << 20;
  /// Segment length: packets consumed before the recorder closes a segment
  /// and anchors the next one. Matches the per-report chunk size at the
  /// default 128-byte watermark (16 packets), so whole repeated reports
  /// memoize as chains of window hits. At least 1 (0 is raised to 1): a
  /// window only closes after evidence moved, which a straight-line run of
  /// data instructions never does, so anchors never fall inside one.
  u32 window_packets = 16;
};

/// Point-in-time cache statistics (relaxed-atomic reads; exact only when
/// quiescent).
struct MemoStats {
  u64 hits = 0;        ///< segments applied by some engine
  u64 misses = 0;      ///< lookups that applied nothing
  u64 inserts = 0;     ///< segments stored
  u64 evictions = 0;   ///< segments displaced (LRU or budget sweep)
  u64 rejects = 0;     ///< inserts refused (entry larger than a shard budget)
  u64 bytes = 0;       ///< current resident segment bytes
  u64 entries = 0;     ///< current resident segment count

  /// Always zero: the frontier tier is gone; kept for the e2e bench report.
  u64 frontier_hits = 0;
  u64 frontier_misses = 0;

  double hit_rate() const {
    const u64 total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class MemoCache {
 public:
  using Handle = std::shared_ptr<const MemoSegment>;

  /// Most candidates one lookup returns (same key hash, different guards —
  /// e.g. divergent chains sharing an entry state).
  static constexpr size_t kLookupWidth = 4;

  explicit MemoCache(MemoOptions options = {});

  /// Copy up to `max` candidate handles whose key hash matches into `out`.
  /// Returns the count. The caller re-validates the full entry guards;
  /// a returned candidate is a *candidate*, not a hit.
  size_t lookup(u64 key, Handle* out, size_t max) const;

  /// Store a segment under its key hash. Duplicate-guard entries refresh in
  /// place; otherwise an empty or least-recently-used slot in the probe
  /// window takes it, and the shard clock-sweeps down to its byte budget.
  void insert(u64 key, Handle segment);

  /// Applied-hit / no-applicable-entry accounting, reported by the engines
  /// (a lookup alone cannot tell whether a candidate survives its guards).
  void note_hit() const;
  void note_miss() const;

  /// Drop every entry and reset statistics (bench/test isolation).
  void clear();

  MemoStats stats() const;
  const MemoOptions& options() const { return options_; }

 private:
  struct Slot {
    u64 key = 0;
    u64 tick = 0;  ///< last touch (shard-local logical clock)
    Handle segment;
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;
    size_t bytes = 0;  ///< resident segment bytes, against the shard budget
    u64 tick = 0;
    size_t sweep_hand = 0;
  };

  Shard& shard_for(u64 key) const { return shards_[key & shard_mask_]; }
  /// Clock-sweep `shard` down to the byte budget without evicting the
  /// protected fresh entry `keep`. The scan visits each slot at most once,
  /// so it terminates; since `keep` alone fits the budget, the budget holds
  /// afterwards. Caller holds the shard mutex. Returns entries evicted.
  u64 sweep_to_budget(Shard& shard, const Slot* keep);

  MemoOptions options_;
  size_t shard_mask_ = 0;
  size_t shard_budget_ = 0;
  mutable std::vector<Shard> shards_;

  mutable std::atomic<u64> hits_{0};
  mutable std::atomic<u64> misses_{0};
  std::atomic<u64> inserts_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<u64> rejects_{0};
  std::atomic<u64> bytes_{0};
  std::atomic<u64> entries_{0};
};

}  // namespace raptrack::verify
