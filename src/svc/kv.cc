#include "svc/kv.h"

#include <bit>
#include <functional>
#include <string_view>
#include <vector>

namespace ftss::svc {

Value Command::encode() const {
  Value v;
  v["key"] = Value(key);
  v["val"] = val;
  if (client >= 0) {
    v["client"] = Value(client);
    v["seq"] = Value(seq);
  }
  return v;
}

Value encode_batch(const std::vector<Command>& commands) {
  if (commands.empty()) return Value();
  if (commands.size() == 1) return commands.front().encode();
  Value::Array batch;
  batch.reserve(commands.size());
  for (const Command& cmd : commands) batch.push_back(cmd.encode());
  return Value(std::move(batch));
}

const Value& KvStore::get(std::string_view key) const {
  static const Value null;
  auto it = data_.find(key);
  return it == data_.end() ? null : it->second;
}

KvStore::Batch KvStore::decode_batch(const Value& decision) {
  Batch batch;
  const auto decode = [](const Value& cmd, Batch::Entry& entry) {
    entry.client = cmd.at("client").int_or(-1);
    entry.seq = cmd.at("seq").int_or(-1);
    const Value& key = cmd.at("key");
    if (!key.is_string()) return;  // the example's garbage skip
    const auto val = cmd.as_map().find("val");
    if (val == cmd.as_map().end()) return;
    entry.key = &key.as_string();
    entry.val = &val->second;
  };
  if (decision.is_null() ||
      (decision.is_array() && decision.as_array().empty())) {
    batch.empty = true;
    return batch;
  }
  if (!decision.is_array() || decision.as_array().size() == 1) {
    const Value& cmd =
        decision.is_array() ? decision.as_array().front() : decision;
    decode(cmd, batch.entries.emplace_back());
    batch.keys = batch.entries.front().key != nullptr ? 1 : 0;
    return batch;
  }
  const Value::Array& commands = decision.as_array();
  batch.entries.resize(commands.size());
  // Key ids: an open-addressing table, at most half full, of the entry
  // where each distinct key first appears.
  constexpr std::uint32_t kFree = ~std::uint32_t{0};
  std::vector<std::uint32_t> first(std::bit_ceil(2 * commands.size()), kFree);
  const std::size_t mask = first.size() - 1;
  for (std::uint32_t i = 0; i < commands.size(); ++i) {
    Batch::Entry& entry = batch.entries[i];
    decode(commands[i], entry);
    if (entry.key == nullptr) continue;
    std::size_t slot = std::hash<std::string_view>{}(*entry.key) & mask;
    while (first[slot] != kFree &&
           *batch.entries[first[slot]].key != *entry.key) {
      slot = (slot + 1) & mask;
    }
    if (first[slot] == kFree) {
      first[slot] = i;
      entry.key_id = batch.keys++;
    } else {
      entry.key_id = batch.entries[first[slot]].key_id;
    }
  }
  return batch;
}

ApplyStats KvStore::apply(const Batch& batch) {
  ApplyStats stats;
  stats.empty = batch.empty;
  const std::vector<Batch::Entry>& entries = batch.entries;
  // Admit pass, in command order.
  last_admitted_.assign(batch.keys, kNotAdmitted);
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    const Batch::Entry& entry = entries[i];
    if (entry.key == nullptr) {
      ++stats.garbage;
      continue;
    }
    if (entry.client >= 0 && !floor_.admit(entry.client, entry.seq)) {
      ++stats.deduped;
      continue;
    }
    last_admitted_[entry.key_id] = i;
    ++stats.applied;
  }
  // Write pass: each key once, from its last admitted command.
  for (const std::uint32_t i : last_admitted_) {
    if (i == kNotAdmitted) continue;
    const Batch::Entry& entry = entries[i];
    if (entry.val->is_null()) {
      data_.erase(*entry.key);
    } else {
      data_[*entry.key] = *entry.val;
    }
  }
  applied_total_ += stats.applied;
  deduped_total_ += stats.deduped;
  garbage_total_ += stats.garbage;
  return stats;
}

bool KvStore::SeqFloor::admit(std::int64_t client, std::int64_t seq) {
  constexpr std::size_t kInitialSlots = 16;
  if (slots_.empty()) slots_.resize(kInitialSlots);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(client);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.client == client) {
      if (seq <= slot.seq) return false;
      slot.seq = seq;
      return true;
    }
    if (slot.client < 0) {
      if ((used_ + 1) * 4 > slots_.size() * 3) {
        grow();
        return admit(client, seq);
      }
      slot = {client, seq};
      ++used_;
      return true;
    }
  }
}

std::size_t KvStore::SeqFloor::home(std::int64_t client) const {
  // Fibonacci hashing: the top log2(size) bits of id * 2^64/phi, so dense
  // ids spread and ids that differ only in high bits do not collide.
  const std::uint64_t h = static_cast<std::uint64_t>(client) *
                          0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(h >> (std::countl_zero(slots_.size()) + 1));
}

void KvStore::SeqFloor::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.client < 0) continue;
    std::size_t i = home(slot.client);
    while (slots_[i].client >= 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::uint64_t KvStore::fingerprint() const { return to_value().hash(); }

Value KvStore::to_value() const { return Value(data_); }

}  // namespace ftss::svc
