#include "verify/session_store.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "common/crc32.hpp"

namespace raptrack::verify {

namespace {

constexpr u8 kSnapshotMagic[4] = {'S', 'S', 'T', '1'};

void put_u32(std::vector<u8>& out, u32 value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(value >> (8 * i)));
}

void put_u64(std::vector<u8>& out, u64 value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(value >> (8 * i)));
}

/// Bounds-checked little-endian reader over the snapshot bytes.
struct SnapReader {
  std::span<const u8> data;
  size_t pos = 0;
  bool failed = false;

  u32 u32_value() {
    if (failed || data.size() - pos < 4) {
      failed = true;
      return 0;
    }
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }

  u64 u64_value() {
    if (failed || data.size() - pos < 8) {
      failed = true;
      return 0;
    }
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }

  bool chal_value(cfa::Challenge& out) {
    if (failed || data.size() - pos < out.size()) {
      failed = true;
      return false;
    }
    std::copy_n(data.begin() + static_cast<ptrdiff_t>(pos), out.size(),
                out.begin());
    pos += out.size();
    return true;
  }
};

}  // namespace

SessionStore::SessionStore(size_t shard_count)
    : shards_(std::bit_ceil(std::max<size_t>(shard_count, 1))) {}

void SessionStore::issue(DeviceId device, const cfa::Challenge& chal) {
  Shard& shard = shard_for(device);
  std::lock_guard lock(shard.mu);
  DeviceSessions& sessions = shard.devices[device];
  if (std::find(sessions.used.begin(), sessions.used.end(), chal) !=
      sessions.used.end()) {
    return;  // consumed challenges never come back
  }
  if (std::find(sessions.outstanding.begin(), sessions.outstanding.end(),
                chal) == sessions.outstanding.end()) {
    sessions.outstanding.push_back(chal);
  }
}

SessionStore::ChallengeState SessionStore::state(
    DeviceId device, const cfa::Challenge& chal) const {
  Shard& shard = shard_for(device);
  std::lock_guard lock(shard.mu);
  const auto it = shard.devices.find(device);
  if (it == shard.devices.end()) return ChallengeState::Unknown;
  const DeviceSessions& sessions = it->second;
  // Used wins: a challenge somehow present in both lists must stay dead.
  if (std::find(sessions.used.begin(), sessions.used.end(), chal) !=
      sessions.used.end()) {
    return ChallengeState::Used;
  }
  if (std::find(sessions.outstanding.begin(), sessions.outstanding.end(),
                chal) != sessions.outstanding.end()) {
    return ChallengeState::Outstanding;
  }
  return ChallengeState::Unknown;
}

bool SessionStore::consume(DeviceId device, const cfa::Challenge& chal) {
  Shard& shard = shard_for(device);
  std::lock_guard lock(shard.mu);
  const auto it = shard.devices.find(device);
  if (it == shard.devices.end()) return false;
  DeviceSessions& sessions = it->second;
  const auto pos = std::find(sessions.outstanding.begin(),
                             sessions.outstanding.end(), chal);
  if (pos == sessions.outstanding.end()) return false;
  sessions.outstanding.erase(pos);
  sessions.used.push_back(chal);
  return true;
}

std::vector<u8> SessionStore::serialize() const {
  // Collect per-device state under the shard locks, sorted by device id so
  // the blob is deterministic regardless of hash-map iteration order.
  std::map<DeviceId, DeviceSessions> devices;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (const auto& [id, sessions] : shard.devices) devices[id] = sessions;
  }
  std::vector<u8> out(std::begin(kSnapshotMagic), std::end(kSnapshotMagic));
  put_u32(out, static_cast<u32>(devices.size()));
  for (const auto& [id, sessions] : devices) {
    put_u64(out, id);
    put_u32(out, static_cast<u32>(sessions.outstanding.size()));
    for (const auto& chal : sessions.outstanding) {
      out.insert(out.end(), chal.begin(), chal.end());
    }
    put_u32(out, static_cast<u32>(sessions.used.size()));
    for (const auto& chal : sessions.used) {
      out.insert(out.end(), chal.begin(), chal.end());
    }
  }
  put_u32(out, crc32(out));
  return out;
}

bool SessionStore::deserialize(std::span<const u8> bytes) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 8) return false;
  if (!std::equal(std::begin(kSnapshotMagic), std::end(kSnapshotMagic),
                  bytes.begin())) {
    return false;
  }
  // The SST1 section is self-delimiting (the crc trailer sits right after
  // the last device), so parse first and locate the trailer, then verify
  // the checksum over exactly the section it covers. Nothing may follow the
  // trailer.
  SnapReader reader{bytes.subspan(sizeof(kSnapshotMagic))};
  std::map<DeviceId, DeviceSessions> devices;
  const u32 device_count = reader.u32_value();
  for (u32 d = 0; d < device_count && !reader.failed; ++d) {
    const DeviceId id = reader.u64_value();
    DeviceSessions sessions;
    const u32 out_count = reader.u32_value();
    // Count fields are attacker-reachable through a corrupted snapshot
    // file; the per-element read failing on truncation bounds allocation.
    for (u32 i = 0; i < out_count && !reader.failed; ++i) {
      cfa::Challenge chal{};
      if (reader.chal_value(chal)) sessions.outstanding.push_back(chal);
    }
    const u32 used_count = reader.u32_value();
    for (u32 i = 0; i < used_count && !reader.failed; ++i) {
      cfa::Challenge chal{};
      if (reader.chal_value(chal)) sessions.used.push_back(chal);
    }
    devices[id] = std::move(sessions);
  }
  if (reader.failed) return false;
  const size_t sst_end = sizeof(kSnapshotMagic) + reader.pos;
  const u32 stored = reader.u32_value();
  if (reader.failed) return false;
  if (crc32(bytes.first(sst_end)) != stored) return false;
  if (bytes.size() != sst_end + 4) return false;  // trailing garbage

  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.devices.clear();
  }
  for (auto& [id, sessions] : devices) {
    Shard& shard = shard_for(id);
    std::lock_guard lock(shard.mu);
    shard.devices[id] = std::move(sessions);
  }
  return true;
}

size_t SessionStore::outstanding_count(DeviceId device) const {
  Shard& shard = shard_for(device);
  std::lock_guard lock(shard.mu);
  const auto it = shard.devices.find(device);
  return it == shard.devices.end() ? 0 : it->second.outstanding.size();
}

}  // namespace raptrack::verify
