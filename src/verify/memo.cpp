#include "verify/memo.hpp"

#include <algorithm>

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

}  // namespace

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
  options_.window_packets = std::max<u32>(1, options_.window_packets);
  shard_budget_ = std::max<size_t>(1, options_.budget_bytes / shard_count);
  shards_ = std::vector<Shard>(shard_count);
  const size_t slots = std::max<size_t>(kProbe, options_.slots_per_shard);
  for (Shard& shard : shards_) shard.slots.resize(slots);
}

size_t MemoCache::lookup(u64 key, Handle* out, size_t max) const {
  if (max == 0) return 0;
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  const size_t base = probe_base(key, shard.slots.size());
  size_t found = 0;
  for (size_t i = 0; i < kProbe && found < max; ++i) {
    Slot& slot = shard.slots[(base + i) % shard.slots.size()];
    if (slot.segment != nullptr && slot.key == key) {
      slot.tick = ++shard.tick;  // touch for window-local LRU
      out[found++] = slot.segment;
    }
  }
  return found;
}

void MemoCache::insert(u64 key, Handle segment) {
  if (segment == nullptr) return;
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

void MemoCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (Slot& slot : shard.slots) {
      slot.key = 0;
      slot.tick = 0;
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

}  // namespace raptrack::verify
