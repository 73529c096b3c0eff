#include "protocol/group.h"

#include "common/error.h"
#include "crypto/secret_buffer.h"
#include "protocol/key_schedule.h"
#include "protocol/session.h"

namespace vkey::protocol {

GroupKeyHub::GroupKeyHub(std::uint64_t hub_seed) : rng_(hub_seed) {}

void GroupKeyHub::add_member(const std::string& member_id,
                             const BitVec& pairwise_key) {
  VKEY_REQUIRE(pairwise_key.size() == kFinalKeyBits,
               "pairwise key must be a full-width session key");
  VKEY_REQUIRE(!member_id.empty(), "member id must be non-empty");
  members_[member_id] = pairwise_key;
}

void GroupKeyHub::remove_member(const std::string& member_id) {
  const auto it = members_.find(member_id);
  VKEY_REQUIRE(it != members_.end(), "unknown member: " + member_id);
  members_.erase(it);
  group_key_.reset();  // force rotation on the next distribution
}

BitVec GroupKeyHub::group_key() const {
  VKEY_REQUIRE(group_key_.has_value(), "no group key distributed yet");
  return *group_key_;
}

std::vector<std::pair<std::string, Message>> GroupKeyHub::distribute() {
  VKEY_REQUIRE(!members_.empty(), "no members to distribute to");
  ++epoch_;
  BitVec key(128);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key.set(i, rng_.bernoulli(0.5));
  }
  group_key_ = key;

  std::vector<std::pair<std::string, Message>> out;
  out.reserve(members_.size());
  // The serialized group key exists in the clear only for the duration of
  // the wrap loop; every member receives it sealed by the hub's side of a
  // KeySchedule over their pairwise key.
  auto payload = key.to_bytes();
  for (const auto& [id, pairwise] : members_) {
    KeySchedule hub(pairwise, /*session_id=*/epoch_,
                    KeySchedule::Role::kInitiator);
    out.emplace_back(id, hub.seal(/*nonce=*/epoch_, payload));
  }
  crypto::secure_wipe(payload);
  return out;
}

std::optional<BitVec> unwrap_group_key(const BitVec& pairwise_key,
                                       const Message& wrapped) {
  KeySchedule member(pairwise_key, /*session_id=*/wrapped.session_id,
                     KeySchedule::Role::kResponder);
  const auto payload = member.open(wrapped, /*now_ms=*/0.0);
  if (!payload.has_value() || payload->size() != 16) return std::nullopt;
  return BitVec::from_bytes(*payload, 128);
}

}  // namespace vkey::protocol
