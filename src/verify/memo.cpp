#include "verify/memo.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

namespace raptrack::verify {

namespace {

/// Linear-probe window per lookup/insert: long enough to tolerate key-hash
/// clusters, short enough that a shard operation stays a handful of cache
/// lines under the lock.
constexpr size_t kProbe = 8;

size_t probe_base(u64 key, size_t slots) {
  // Shard selection consumed the low bits; probe placement uses the rest.
  return static_cast<size_t>(key >> 16) % slots;
}

// Test kill switch (see MemoCache::force_disable): plain bool, flipped only
// from single-threaded test setup — same discipline as Sha256::force_scalar.
bool g_memo_disabled = false;

// Cache-wide metric handles, registered once (map find under the registry
// mutex otherwise — this sits on the replay hot path).
struct MemoObsMetrics {
  obs::Counter hits = obs::registry().counter("verify.memo.hits");
  obs::Counter misses = obs::registry().counter("verify.memo.misses");
  obs::Counter inserts = obs::registry().counter("verify.memo.inserts");
  obs::Counter evictions = obs::registry().counter("verify.memo.evictions");
  obs::Gauge bytes_hwm = obs::registry().gauge("verify.memo.bytes_hwm");

  static MemoObsMetrics& get() {
    static MemoObsMetrics metrics;
    return metrics;
  }
};

// ---- MEM1 warm-start codec helpers ----------------------------------------

constexpr std::array<u8, 4> kMemMagic = {'M', 'E', 'M', '1'};
/// v3 holds segments only. Every earlier version carried sections v3 no
/// longer has and is refused whole — a cold start, never a misparse.
constexpr u32 kMemVersion = 3;

void put_u8(std::vector<u8>& out, u8 v) { out.push_back(v); }

void put_u32(std::vector<u8>& out, u32 v) {
  out.push_back(static_cast<u8>(v));
  out.push_back(static_cast<u8>(v >> 8));
  out.push_back(static_cast<u8>(v >> 16));
  out.push_back(static_cast<u8>(v >> 24));
}

void put_u64(std::vector<u8>& out, u64 v) {
  put_u32(out, static_cast<u32>(v));
  put_u32(out, static_cast<u32>(v >> 32));
}

/// Bounds-checked little-endian reader; any out-of-range read latches
/// `ok = false` and returns zeros, so parse code can read linearly and check
/// once at the end.
struct MemReader {
  std::span<const u8> data;
  size_t pos = 0;
  bool ok = true;

  u8 u8_value() {
    if (pos + 1 > data.size()) { ok = false; return 0; }
    return data[pos++];
  }
  u32 u32_value() {
    if (pos + 4 > data.size()) { ok = false; return 0; }
    u32 v = static_cast<u32>(data[pos]) | (static_cast<u32>(data[pos + 1]) << 8) |
            (static_cast<u32>(data[pos + 2]) << 16) |
            (static_cast<u32>(data[pos + 3]) << 24);
    pos += 4;
    return v;
  }
  u64 u64_value() {
    const u64 lo = u32_value();
    const u64 hi = u32_value();
    return lo | (hi << 32);
  }
  /// Would `count` elements of `elem_bytes` each still fit? Guards vector
  /// reserves against forged counts before element-wise reads run.
  bool fits(u64 count, size_t elem_bytes) {
    if (!ok) return false;
    const u64 remaining = data.size() - pos;
    if (count > remaining / (elem_bytes == 0 ? 1 : elem_bytes)) ok = false;
    return ok;
  }
  bool done() const { return ok && pos == data.size(); }
};

void put_valuation(std::vector<u8>& out, const MemoValuation& val) {
  for (const u32 reg : val.regs) put_u32(out, reg);
  put_u32(out, val.known);
  put_u32(out, val.flags);
}

MemoValuation read_valuation(MemReader& r) {
  MemoValuation val;
  for (u32& reg : val.regs) reg = r.u32_value();
  val.known = static_cast<u16>(r.u32_value());
  val.flags = static_cast<u8>(r.u32_value());
  return val;
}

void put_packet(std::vector<u8>& out, const trace::BranchPacket& pkt) {
  put_u32(out, pkt.source_word());
  put_u32(out, pkt.destination_word());
}

trace::BranchPacket read_packet(MemReader& r) {
  const u32 src = r.u32_value();
  const u32 dst = r.u32_value();
  return trace::BranchPacket::from_words(src, dst);
}

void put_segment(std::vector<u8>& out, const MemoSegment& seg) {
  put_u32(out, seg.entry_pc);
  put_valuation(out, seg.entry_val);
  put_u64(out, seg.policy_hash);
  put_u32(out, static_cast<u32>(seg.popped.size()));
  for (const Address a : seg.popped) put_u32(out, a);
  put_u32(out, static_cast<u32>(seg.packets.size()));
  for (const auto& pkt : seg.packets) put_packet(out, pkt);
  put_u32(out, static_cast<u32>(seg.loop_values.size()));
  for (const u32 v : seg.loop_values) put_u32(out, v);
  put_u32(out, static_cast<u32>(seg.direction_bits.size()));
  out.insert(out.end(), seg.direction_bits.begin(), seg.direction_bits.end());
  put_u32(out, static_cast<u32>(seg.indirect_targets.size()));
  for (const Address a : seg.indirect_targets) put_u32(out, a);
  put_u8(out, seg.peeked_next ? 1 : 0);
  put_packet(out, seg.peeked);
  put_u8(out, seg.eos_observed ? 1 : 0);
  put_u8(out, seg.halted ? 1 : 0);
  put_u32(out, seg.exit_pc);
  put_valuation(out, seg.exit_val);
  put_u32(out, static_cast<u32>(seg.pushed.size()));
  for (const Address a : seg.pushed) put_u32(out, a);
  put_u32(out, static_cast<u32>(seg.events.size()));
  for (const auto& ev : seg.events) {
    put_u32(out, ev.source);
    put_u32(out, ev.destination);
    put_u8(out, static_cast<u8>(ev.kind));
  }
  put_u64(out, seg.steps);
  put_u64(out, seg.index_hits);
  put_u64(out, seg.index_fallbacks);
}

MemoSegment read_segment(MemReader& r) {
  MemoSegment seg;
  seg.entry_pc = r.u32_value();
  seg.entry_val = read_valuation(r);
  seg.policy_hash = r.u64_value();
  u32 n = r.u32_value();
  if (r.fits(n, 4)) {
    seg.popped.reserve(n);
    for (u32 i = 0; i < n; ++i) seg.popped.push_back(r.u32_value());
  }
  n = r.u32_value();
  if (r.fits(n, 8)) {
    seg.packets.reserve(n);
    for (u32 i = 0; i < n; ++i) seg.packets.push_back(read_packet(r));
  }
  n = r.u32_value();
  if (r.fits(n, 4)) {
    seg.loop_values.reserve(n);
    for (u32 i = 0; i < n; ++i) seg.loop_values.push_back(r.u32_value());
  }
  n = r.u32_value();
  if (r.fits(n, 1)) {
    seg.direction_bits.reserve(n);
    for (u32 i = 0; i < n; ++i) seg.direction_bits.push_back(r.u8_value());
  }
  n = r.u32_value();
  if (r.fits(n, 4)) {
    seg.indirect_targets.reserve(n);
    for (u32 i = 0; i < n; ++i) seg.indirect_targets.push_back(r.u32_value());
  }
  seg.peeked_next = r.u8_value() != 0;
  seg.peeked = read_packet(r);
  seg.eos_observed = r.u8_value() != 0;
  seg.halted = r.u8_value() != 0;
  seg.exit_pc = r.u32_value();
  seg.exit_val = read_valuation(r);
  n = r.u32_value();
  if (r.fits(n, 4)) {
    seg.pushed.reserve(n);
    for (u32 i = 0; i < n; ++i) seg.pushed.push_back(r.u32_value());
  }
  n = r.u32_value();
  if (r.fits(n, 9)) {
    seg.events.reserve(n);
    for (u32 i = 0; i < n; ++i) {
      trace::OracleEvent ev;
      ev.source = r.u32_value();
      ev.destination = r.u32_value();
      ev.kind = static_cast<isa::BranchKind>(r.u8_value());
      seg.events.push_back(ev);
    }
  }
  seg.steps = r.u64_value();
  seg.index_hits = r.u64_value();
  seg.index_fallbacks = r.u64_value();
  return seg;
}

}  // namespace

u64 MemoValuation::hash() const {
  u64 h = 0x243f6a8885a308d3ull;
  const auto mix = [&h](u64 v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (const u32 reg : regs) mix(reg);
  mix(known);
  mix(flags);
  return h;
}

size_t MemoSegment::bytes() const {
  return sizeof(MemoSegment) + popped.capacity() * sizeof(Address) +
         packets.capacity() * sizeof(trace::BranchPacket) +
         loop_values.capacity() * sizeof(u32) +
         direction_bits.capacity() * sizeof(u8) +
         indirect_targets.capacity() * sizeof(Address) +
         pushed.capacity() * sizeof(Address) +
         events.capacity() * sizeof(trace::OracleEvent);
}

bool MemoSegment::same_entry(const MemoSegment& other) const {
  return entry_pc == other.entry_pc && entry_val == other.entry_val &&
         policy_hash == other.policy_hash && popped == other.popped &&
         packets == other.packets && loop_values == other.loop_values &&
         direction_bits == other.direction_bits &&
         indirect_targets == other.indirect_targets &&
         peeked_next == other.peeked_next &&
         (!peeked_next || peeked == other.peeked) &&
         eos_observed == other.eos_observed && halted == other.halted;
}

MemoCache::MemoCache(MemoOptions options) : options_(options) {
  size_t shard_count = options_.shards == 0 ? 1 : options_.shards;
  // Round up to a power of two so shard_for can mask.
  while ((shard_count & (shard_count - 1)) != 0) ++shard_count;
  options_.shards = shard_count;
  shard_mask_ = shard_count - 1;
  shard_budget_ = std::max<size_t>(1, options_.budget_bytes / shard_count);
  shards_ = std::vector<Shard>(shard_count);
  const size_t slots = std::max<size_t>(kProbe, options_.slots_per_shard);
  for (Shard& shard : shards_) shard.slots.resize(slots);
}

size_t MemoCache::lookup(u64 key, Handle* out, size_t max) const {
#if RAP_MEMO_ENABLED
  if (g_memo_disabled || max == 0) return 0;
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  const size_t base = probe_base(key, shard.slots.size());
  size_t found = 0;
  for (size_t i = 0; i < kProbe && found < max; ++i) {
    Slot& slot = shard.slots[(base + i) % shard.slots.size()];
    if (slot.segment != nullptr && slot.key == key) {
      slot.tick = ++shard.tick;  // touch for window-local LRU
      ++slot.hits;               // MEM1 top-K ranking
      out[found++] = slot.segment;
    }
  }
  return found;
#else
  (void)key;
  (void)out;
  (void)max;
  return 0;
#endif
}

void MemoCache::insert(u64 key, Handle segment) {
#if RAP_MEMO_ENABLED
  if (g_memo_disabled || segment == nullptr) return;
  const size_t size = segment->bytes();
  if (size > shard_budget_) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = shard_for(key);
  u64 evicted = 0;
  {
    std::lock_guard lock(shard.mu);
    const size_t base = probe_base(key, shard.slots.size());
    Slot* match = nullptr;
    Slot* empty = nullptr;
    Slot* lru = nullptr;
    for (size_t i = 0; i < kProbe; ++i) {
      Slot& slot = shard.slots[(base + i) % shard.slots.size()];
      if (slot.segment == nullptr) {
        if (empty == nullptr) empty = &slot;
      } else if (slot.key == key && slot.segment->same_entry(*segment)) {
        match = &slot;
        break;
      } else if (lru == nullptr || slot.tick < lru->tick) {
        lru = &slot;
      }
    }
    Slot* dest = match != nullptr ? match : (empty != nullptr ? empty : lru);
    if (dest->segment != nullptr) {
      shard.bytes -= dest->segment->bytes();
      bytes_.fetch_sub(dest->segment->bytes(), std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      if (match == nullptr) ++evicted;
    }
    dest->key = key;
    dest->segment = std::move(segment);
    dest->tick = ++shard.tick;
    if (match == nullptr) dest->hits = 0;
    shard.bytes += size;
    bytes_.fetch_add(size, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    evicted += sweep_to_budget(shard, dest);
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (evicted != 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) {
    auto& metrics = MemoObsMetrics::get();
    metrics.inserts.inc();
    if (evicted != 0) metrics.evictions.inc(evicted);
    metrics.bytes_hwm.set_max(bytes_.load(std::memory_order_relaxed));
  }
#else
  (void)key;
  (void)segment;
#endif
}

void MemoCache::note_hit() const {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) MemoObsMetrics::get().hits.inc();
}

void MemoCache::note_miss() const {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (obs::kEnabled) MemoObsMetrics::get().misses.inc();
}

u64 MemoCache::sweep_to_budget(Shard& shard, const Slot* keep) {
  u64 evicted = 0;
  for (size_t scanned = 0;
       shard.bytes > shard_budget_ && scanned < shard.slots.size(); ++scanned) {
    Slot& victim = shard.slots[shard.sweep_hand++ % shard.slots.size()];
    if (&victim == keep || victim.segment == nullptr) continue;
    shard.bytes -= victim.segment->bytes();
    bytes_.fetch_sub(victim.segment->bytes(), std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    victim.segment.reset();
    ++evicted;
  }
  return evicted;
}

std::vector<u8> MemoCache::serialize_warm() const {
  std::vector<u8> out;
  out.insert(out.end(), kMemMagic.begin(), kMemMagic.end());
  put_u32(out, kMemVersion);

  // Rank segments by lifetime hit count (tie: most recently touched) and
  // serialize the top-K — the entries a restarted verifier will want first.
  struct SegRank {
    u64 hits = 0;
    u64 tick = 0;
    u64 key = 0;
    Handle segment;
  };
  std::vector<SegRank> segments;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (const Slot& slot : shard.slots) {
      if (slot.segment != nullptr) {
        segments.push_back({slot.hits, slot.tick, slot.key, slot.segment});
      }
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegRank& a, const SegRank& b) {
              return a.hits != b.hits ? a.hits > b.hits : a.tick > b.tick;
            });
  if (segments.size() > options_.snapshot_top_k) {
    segments.resize(options_.snapshot_top_k);
  }

  put_u32(out, static_cast<u32>(segments.size()));
  for (const SegRank& s : segments) {
    put_u64(out, s.key);
    put_segment(out, *s.segment);
  }
  put_u32(out, crc32(out));
  return out;
}

bool MemoCache::restore_warm(std::span<const u8> blob) {
  // Envelope first: magic, version, and a CRC over everything before the
  // trailer. A truncated or corrupted blob fails here and the cache stays
  // exactly as it was — cold start, never a wrong entry.
  if (blob.size() < kMemMagic.size() + 8) return false;
  if (!std::equal(kMemMagic.begin(), kMemMagic.end(), blob.begin())) {
    return false;
  }
  const std::span<const u8> body = blob.first(blob.size() - 4);
  MemReader trailer{blob.subspan(blob.size() - 4)};
  if (trailer.u32_value() != crc32(body)) return false;

  MemReader r{body.subspan(kMemMagic.size())};
  if (r.u32_value() != kMemVersion) return false;

  // Parse everything into staging before touching the live tables, so a
  // malformed body past the CRC (e.g. a forged count) cannot half-apply.
  std::vector<std::pair<u64, MemoSegment>> segments;
  const u32 seg_count = r.u32_value();
  if (!r.fits(seg_count, 8)) return false;
  segments.reserve(seg_count);
  for (u32 i = 0; i < seg_count && r.ok; ++i) {
    const u64 key = r.u64_value();
    segments.emplace_back(key, read_segment(r));
  }
  if (!r.done()) return false;

  // Commit. Serialization order was hottest-first; insert in reverse so the
  // hottest entries carry the freshest ticks and survive any LRU contention.
  for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
    insert(it->first,
           std::make_shared<const MemoSegment>(std::move(it->second)));
  }
  return true;
}

void MemoCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (Slot& slot : shard.slots) {
      slot.key = 0;
      slot.tick = 0;
      slot.hits = 0;
      slot.segment.reset();
    }
    shard.bytes = 0;
    shard.tick = 0;
    shard.sweep_hand = 0;
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  inserts_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  rejects_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

MemoStats MemoCache::stats() const {
  MemoStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.rejects = rejects_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  stats.entries = entries_.load(std::memory_order_relaxed);
  return stats;
}

void MemoCache::force_disable(bool disable) { g_memo_disabled = disable; }

}  // namespace raptrack::verify
