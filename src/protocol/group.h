// Group key distribution on top of pairwise Vehicle-Key sessions.
//
// IoV applications (platooning, intersection coordination) often need one
// key shared by N vehicles. Following the star construction of the group
// key generation literature the paper cites ([15]), a hub (typically the
// RSU, or the platoon leader) first establishes an independent pairwise
// Vehicle-Key session key with every member, then samples a fresh group
// key and distributes it to each member sealed by a KeySchedule over the
// pairwise key (hub as initiator, member as responder, session id = group
// epoch; AES-128-CTR + HMAC). Rekeying on membership change is a new
// distribution round; leaving members only ever saw group keys from epochs
// they belonged to.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "protocol/message.h"

namespace vkey::protocol {

class GroupKeyHub {
 public:
  /// `hub_seed` drives group-key sampling (in production: a CSPRNG).
  explicit GroupKeyHub(std::uint64_t hub_seed);

  /// Register a member with its established pairwise 128-bit session key.
  void add_member(const std::string& member_id, const BitVec& pairwise_key);

  /// Remove a member; the current epoch's key is considered compromised and
  /// the next distribute() call rotates it.
  void remove_member(const std::string& member_id);

  std::size_t member_count() const { return members_.size(); }
  std::uint64_t epoch() const { return epoch_; }

  /// Sample a fresh group key for a new epoch and wrap it for every member.
  /// Returns one kData message per member (message nonce = epoch).
  std::vector<std::pair<std::string, Message>> distribute();

  /// The current epoch's group key (valid after the first distribute()).
  BitVec group_key() const;

 private:
  std::uint64_t epoch_ = 0;
  vkey::Rng rng_;
  std::optional<BitVec> group_key_;
  std::map<std::string, BitVec> members_;
};

/// Member side: unwrap the distributed group key with the pairwise key.
/// nullopt if authentication fails (wrong pairwise key or tampering).
std::optional<BitVec> unwrap_group_key(const BitVec& pairwise_key,
                                       const Message& wrapped);

}  // namespace vkey::protocol
