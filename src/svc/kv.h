// The replicated key-value state machine: command encoding and the store
// every replica materializes from the decided command log.
//
// This is THE decoding path for decided values — the serving layer, the
// batching-transparency oracle and examples/replicated_kv.cpp all apply
// decisions through it, so the garbage-command-skip behavior cannot silently
// diverge between them (tests/services_test.cc pins the grid).  Applying is
// decode then apply: KvStore::decode_batch reads a decided value once and
// numbers its distinct keys, and KvStore::apply runs the result against one
// store.  Every replica applies every decided value, so the serving pump
// decodes each value once and applies the batch to all of them.
//
// apply runs in two passes.  The admit pass runs every command through the
// dedup floor in command order (whether a command is admitted depends on its
// client's earlier commands) and records, per key, the last command
// admitted.  The write pass then sets each such key once, or erases it for a
// null value.  A later write to a key overwrites an earlier one, so the
// store ends where command-by-command application leaves it, but a batch of
// 1024 commands over 64 keys makes at most 64 string-keyed map writes
// instead of 1024, and what is left per command is the floor probe
// (EXPERIMENTS.md EXP34).
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
// The per-client floor is a flat open-addressing table that allocates on the
// first command carrying a client id and grows with the number of distinct
// clients, never with the ids' values.
#pragma once

#include <cstdint>
#include <string>
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
  // One decided value, decoded: an entry per command, in order.  Entries
  // point into the decoded value, which must outlive the batch.
  struct Batch {
    struct Entry {
      // Null for garbage: the command is not a map, its "key" is not a
      // string, or it has no "val" entry at all.  A null "val" is a valid
      // delete.
      const std::string* key = nullptr;
      const Value* val = nullptr;
      // Read from every entry, garbage included; missing or non-int
      // decode as -1.
      std::int64_t client = -1;
      std::int64_t seq = -1;
      // Index of `key` among the batch's distinct keys, numbered in order
      // of first appearance (0 for garbage).
      std::uint32_t key_id = 0;
    };
    std::vector<Entry> entries;
    std::uint32_t keys = 0;  // distinct keys among the non-garbage entries
    bool empty = false;      // null or an empty array: applies nothing
  };

  // Decodes one decided value (single command, batch array, empty, or
  // garbage).  Pure: it reads no store.  Only an array of two or more
  // commands builds a table to number its keys.
  static Batch decode_batch(const Value& decision);

  // Applies a decoded batch: the admit pass, then the write pass.  Totals
  // accumulate on the store; the return value covers only this batch.
  ApplyStats apply(const Batch& batch);
  // One decided value, decoded for this store alone.
  ApplyStats apply_decision(const Value& decision) {
    return apply(decode_batch(decision));
  }

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
  // Per-client dedup floor: each client's last applied seq.  Open
  // addressing with linear probing, doubled past 3/4 full.  apply() is its
  // only reader; it is never iterated, fingerprinted or compared.
  class SeqFloor {
   public:
    // True iff `seq` is above `client`'s floor (or the client is new), in
    // which case it becomes the floor.  `client` must be >= 0.
    bool admit(std::int64_t client, std::int64_t seq);

   private:
    // Client ids are >= 0, so -1 marks an empty slot and every seq value
    // stays a legal floor.
    struct Slot {
      std::int64_t client = -1;
      std::int64_t seq = 0;
    };
    std::size_t home(std::int64_t client) const;
    void grow();

    std::vector<Slot> slots_;  // empty until the first admit; power of two
    std::size_t used_ = 0;
  };

  Value::Map data_;
  SeqFloor floor_;
  // apply()'s working buffer: per key id, the index of the batch's last
  // admitted command for that key, or kNotAdmitted.
  static constexpr std::uint32_t kNotAdmitted = ~std::uint32_t{0};
  std::vector<std::uint32_t> last_admitted_;
  std::int64_t applied_total_ = 0;
  std::int64_t deduped_total_ = 0;
  std::int64_t garbage_total_ = 0;
};

}  // namespace ftss::svc
