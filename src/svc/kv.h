// The replicated key-value state machine: command encoding and the store
// every replica materializes from the decided command log.
//
// This is THE decoding path for decided values — the serving layer, the
// batching-transparency oracle and examples/replicated_kv.cpp all apply
// decisions through it, so the garbage-command-skip behavior cannot silently
// diverge between them (tests/services_test.cc pins the grid).
//
// Decision shapes (what a consensus instance can decide):
//   * a single command map  — batch size 1, exactly the shape the original
//     replicated_kv example proposed one-command-per-instance;
//   * an array of command maps — a batch, applied in array order;
//   * null / empty array — an empty batch (pipelining backpressure
//     heartbeat), applies nothing;
//   * anything else — garbage from a corrupted era, skipped and counted.
//
// Commands carry an optional (client, seq) identity.  The store deduplicates
// by it: a command whose seq is not greater than the client's last applied
// seq is skipped.  This makes the request plane's at-least-once retransmit
// (instances lost to systemic corruption are re-proposed) safe: re-applying
// an already-applied command cannot clobber a later write to the same key.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/value.h"

namespace ftss::svc {

struct Command {
  std::string key;
  Value val;             // null means delete
  std::int64_t client = -1;  // <0: anonymous (no dedup), the example's shape
  std::int64_t seq = -1;

  Value encode() const;
};

// Defensive decode of one command map.  nullopt (garbage) when `v` is not a
// map, its "key" is not a string, or it has no "val" entry at all.  A null
// "val" is a valid delete.  Missing/non-int client or seq decode as -1.
std::optional<Command> decode_command(const Value& v);

// Encode a batch for proposal.  Size 1 encodes the bare command map —
// byte-identical to the original one-command-per-instance example — and
// size 0 encodes null (the empty heartbeat batch).
Value encode_batch(const std::vector<Command>& commands);

// What applying one decided value did.
struct ApplyStats {
  int applied = 0;     // commands that mutated (or deleted from) the store
  int deduped = 0;     // skipped: (client, seq) already applied
  int garbage = 0;     // skipped: undecodable command (corrupted era)
  bool empty = false;  // the decision was an empty batch
};

class KvStore {
 public:
  // Applies one decided value (single command, batch array, empty, or
  // garbage) in order.  Totals accumulate on the store; the return value
  // covers only this decision.
  ApplyStats apply_decision(const Value& decision);

  const Value::Map& data() const { return data_; }
  std::size_t size() const { return data_.size(); }
  // Null when absent.
  const Value& get(std::string_view key) const;

  std::int64_t applied_total() const { return applied_total_; }
  std::int64_t deduped_total() const { return deduped_total_; }
  std::int64_t garbage_total() const { return garbage_total_; }

  // Stable content hash of the materialized map (dedup bookkeeping
  // excluded: two stores with identical contents fingerprint equal).
  std::uint64_t fingerprint() const;
  Value to_value() const;

  friend bool operator==(const KvStore& a, const KvStore& b) {
    return a.data_ == b.data_;
  }

 private:
  void apply_one(const Value& cmd, ApplyStats& stats);

  Value::Map data_;
  // Per-client dedup floor.  Hashed: apply_one is its only reader, and it is
  // never iterated, fingerprinted or compared.
  std::unordered_map<std::int64_t, std::int64_t> last_seq_;
  std::int64_t applied_total_ = 0;
  std::int64_t deduped_total_ = 0;
  std::int64_t garbage_total_ = 0;
};

}  // namespace ftss::svc
