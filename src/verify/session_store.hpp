// Per-device challenge/nonce session state, split out of the Verifier so the
// expected-deployment side of verification can be fully const and shared.
//
// The store keeps, per device, the challenges currently outstanding (issued
// but not yet resolved to a terminal verdict) and the challenges already
// consumed — a consumed challenge can never become outstanding again, which
// is the replay-protection invariant. Devices hash into a fixed set of
// mutex-guarded shards, so farm workers adjudicating different devices
// almost never contend on the same lock.
#pragma once

#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cfa/report.hpp"
#include "common/types.hpp"

namespace raptrack::verify {

/// Stable identity of one proving device in the fleet.
using DeviceId = u64;

class SessionStore {
 public:
  explicit SessionStore(size_t shard_count = 16);

  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;
  // Moves transfer the shard vector wholesale (no element moves, so the
  // mutexes never move); only safe while no other thread holds the store.
  SessionStore(SessionStore&&) = default;
  SessionStore& operator=(SessionStore&&) = default;

  enum class ChallengeState : u8 { Unknown, Outstanding, Used };

  /// Register `chal` as outstanding for `device`. No-op when it is already
  /// outstanding or already consumed (a used challenge stays used).
  void issue(DeviceId device, const cfa::Challenge& chal);

  ChallengeState state(DeviceId device, const cfa::Challenge& chal) const;

  /// Outstanding -> Used transition; returns false when `chal` was not
  /// outstanding for `device` (already consumed, or never issued).
  bool consume(DeviceId device, const cfa::Challenge& chal);

  size_t outstanding_count(DeviceId device) const;

  // -- crash recovery --------------------------------------------------------
  //
  // A verifier restart mid-campaign must not forget which challenges are
  // outstanding (the prover would be stuck retransmitting against a dead
  // session) nor which are consumed (a replayed chain would Accept twice).
  // serialize() emits a deterministic, checksummed snapshot of every
  // device's challenge state: "SST1" | device_count | per device (sorted by
  // id): id | outstanding... | used... | crc32 trailer.

  /// Point-in-time snapshot of all shards. Safe to call concurrently with
  /// updates (takes each shard lock in turn); the snapshot is consistent
  /// per device, which is the unit recovery cares about.
  std::vector<u8> serialize() const;

  /// Replace the store's entire contents from a serialize() blob. Returns
  /// false (leaving the store untouched) on bad magic, truncation, any byte
  /// after the crc trailer, or a checksum mismatch — a torn snapshot must
  /// never half-load.
  bool deserialize(std::span<const u8> bytes);

 private:
  struct DeviceSessions {
    std::vector<cfa::Challenge> outstanding;
    std::vector<cfa::Challenge> used;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<DeviceId, DeviceSessions> devices;
  };

  Shard& shard_for(DeviceId device) const {
    // Fibonacci spread: device ids are often small and sequential.
    return shards_[(device * 0x9e3779b97f4a7c15ull) >> 48 & (shards_.size() - 1)];
  }

  mutable std::vector<Shard> shards_;
};

}  // namespace raptrack::verify
