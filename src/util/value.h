// Dynamic value type used for all protocol states and message payloads.
//
// The paper's systemic-failure model lets an adversary replace the *entire*
// state of every process with arbitrary contents.  Representing states and
// payloads as one dynamic, recursively-structured value type means a single
// corruption API can mangle any protocol's state uniformly, and history
// recording / full-information relays need no per-protocol serialization.
#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ftss {

// A JSON-like immutable-ish value: null, bool, integer, string, array, map.
// Ordered (operator<=>) so values can key std::map and be deterministically
// sorted; equality is deep.  Doubles are deliberately excluded so equality
// and ordering stay exact (protocol states must compare reproducibly).
//
// Arrays and maps live behind an immutable, refcounted node, so copying a
// Value is a refcount bump, never a deep copy.  This is the full-information
// hot path: Π⁺ payloads grow with history, and the simulator copies each one
// n+ times per round (broadcast fan-out, history recording, snapshots).
// Mutation goes through the copy-on-write accessors (operator[],
// mutable_array, mutable_map), which clone the node first iff it is shared.
// The node also caches the content hash, so repeated hash() calls on a deep
// shared tree walk it once.  COW caveat (same as any shared-buffer type):
// references returned by a mutating accessor are invalidated by the next
// copy-then-mutate of the same Value, so use them immediately.
class Value {
 public:
  using Array = std::vector<Value>;
  // Transparent comparator so the hot-path tag reads (at("c"), at("ROUND"))
  // probe with a string_view instead of materializing a std::string per
  // lookup; ordering and iteration are exactly std::less<std::string>'s.
  using Map = std::map<std::string, Value, std::less<>>;

  Value() = default;
  Value(bool b) : v_(b) {}                        // NOLINT(google-explicit-constructor)
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}        // NOLINT
  Value(long i) : v_(static_cast<std::int64_t>(i)) {}       // NOLINT
  Value(long long i) : v_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(const char* s) : v_(std::string(s)) {}    // NOLINT
  Value(std::string s) : v_(std::move(s)) {}      // NOLINT
  Value(Array a) : v_(std::make_shared<ArrayRep>(std::move(a))) {}  // NOLINT
  Value(Map m) : v_(std::make_shared<MapRep>(std::move(m))) {}      // NOLINT

  static Value array(std::initializer_list<Value> items) {
    return Value(Array(items));
  }
  // An array of exactly these items, each moved in (array() copies out of
  // its initializer_list).  Builds the async stack's positional messages.
  template <typename... Items>
  static Value tuple(Items&&... items) {
    Array a;
    a.reserve(sizeof...(items));
    (a.emplace_back(std::forward<Items>(items)), ...);
    return Value(std::move(a));
  }
  static Value map(std::initializer_list<Map::value_type> items) {
    return Value(Map(items));
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<ArrayPtr>(v_); }
  bool is_map() const { return std::holds_alternative<MapPtr>(v_); }

  // Checked accessors: throw std::bad_variant_access on type mismatch.
  // Protocol code deliberately uses the *_or forms when reading state that a
  // systemic failure may have replaced with a value of the wrong type.
  bool as_bool() const { return std::get<bool>(v_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<ArrayPtr>(v_)->items; }
  const Map& as_map() const { return std::get<MapPtr>(v_)->items; }
  // Copy-on-write: clones the underlying node iff other Values share it.
  Array& mutable_array() { return own(std::get<ArrayPtr>(v_)).items; }
  Map& mutable_map() { return own(std::get<MapPtr>(v_)).items; }

  // Tolerant accessors for possibly-corrupted values.
  bool bool_or(bool fallback) const {
    return is_bool() ? as_bool() : fallback;
  }
  std::int64_t int_or(std::int64_t fallback) const {
    return is_int() ? as_int() : fallback;
  }
  std::string string_or(std::string fallback) const {
    return is_string() ? as_string() : std::move(fallback);
  }

  // Map convenience: value at `key`, or the shared null sentinel if absent /
  // not a map.  Inline on purpose: every protocol reads its tags ("c",
  // "ROUND", ...) through here once per delivered message, and only at the
  // call site does the compiler see the literal key's length.  A map of at
  // most kScanMapSize entries (the sync protocols' messages) is scanned in
  // key order for the first key equal to the probe; each test compares the
  // lengths, then that many bytes inline.  Figure 1's tag is the first key
  // of {"c", "p", "type"} and Π⁺'s the first of {"ROUND", "STATE"}, so
  // those reads cost one length test and one short compare, where a tree
  // walk makes two or three three-way compares.  Larger maps keep find().
  const Value& at(std::string_view key) const {
    const Value* found = lookup(key);
    return found != nullptr ? *found : kNullValue;
  }
  bool contains(std::string_view key) const {
    return lookup(key) != nullptr;
  }
  // Mutating map access; converts a non-map value into an empty map first
  // (used when repairing corrupted state in stabilizing protocols).
  Value& operator[](const std::string& key);

  // Array convenience.
  std::size_t size() const;

  // Integers are the overwhelmingly common case on the hot path (protocol
  // payload elements, ROUND tags), so both comparisons take an inline
  // int-vs-int fast path and fall out of line for everything else.
  friend bool operator==(const Value& a, const Value& b) {
    if (a.is_int() && b.is_int()) return a.as_int() == b.as_int();
    return eq_slow(a, b);
  }
  friend std::strong_ordering operator<=>(const Value& a, const Value& b) {
    if (a.is_int() && b.is_int()) return a.as_int() <=> b.as_int();
    return cmp_slow(a, b);
  }

  // Compact single-line JSON rendering (strings escaped), for logs, test
  // diagnostics and repro files.  parse() round-trips it exactly.
  std::string to_string() const;

  // Parses the to_string format (a JSON subset: null, true/false, 64-bit
  // integers, strings, arrays, objects).  Returns nullopt on malformed
  // input — useful for loading saved corrupted-state reproductions.
  static std::optional<Value> parse(std::string_view text);

  // Stable content hash (FNV-1a over a canonical encoding).  Cached per
  // array/map node; mutation through the COW accessors invalidates it.
  std::uint64_t hash() const;

  // Identity of the refcounted array/map node (nullptr for scalars).  Two
  // Values report the same identity iff they share one COW node — i.e. they
  // are deep-equal *by construction*.  The wire encoder keys substructure
  // interning off this: full-information payloads share history subtrees via
  // COW, so repeated subtrees encode as back-references instead of bytes.
  const void* node_identity() const {
    if (is_array()) return std::get<ArrayPtr>(v_).get();
    if (is_map()) return std::get<MapPtr>(v_).get();
    return nullptr;
  }

 private:
  // What at() returns on a miss; one object, so every miss has one address.
  static const Value kNullValue;

  // The largest map at() and contains() scan instead of searching.  The
  // scan wins when the key comes first and loses on a late or absent key,
  // since each step is an out-of-line tree increment (BM_ValueAt,
  // EXPERIMENTS.md EXP32); above four entries (states, reports,
  // snapshots) that loss grows with the map.
  static constexpr std::size_t kScanMapSize = 4;

  // The value at `key`, or null if absent or not a map.
  const Value* lookup(std::string_view key) const {
    const MapPtr* node = std::get_if<MapPtr>(&v_);
    if (node == nullptr) return nullptr;
    const Map& m = (*node)->items;
    if (m.size() <= kScanMapSize) {
      for (const auto& [k, v] : m) {
        if (k == key) return &v;
      }
      return nullptr;
    }
    const auto it = m.find(key);
    return it == m.end() ? nullptr : &it->second;
  }

  static bool eq_slow(const Value& a, const Value& b);
  static std::strong_ordering cmp_slow(const Value& a, const Value& b);

  // Refcounted container node.  `items` is logically immutable while the
  // node is shared; the COW accessors below enforce that by cloning first.
  // The hash cache uses a ready flag (acquire/release paired with the value
  // store) rather than a sentinel so every 64-bit hash value stays exact —
  // Value::hash() results are observable (corrupted-state clamping keys off
  // them) and must not change.
  template <typename T>
  struct Rep {
    T items;
    mutable std::atomic<std::uint64_t> cached_hash{0};
    mutable std::atomic<bool> hash_ready{false};

    Rep() = default;
    explicit Rep(T i) : items(std::move(i)) {}
    Rep(const Rep& other) : items(other.items) {}  // fresh (empty) hash cache
    Rep& operator=(const Rep&) = delete;
  };
  using ArrayRep = Rep<Array>;
  using MapRep = Rep<Map>;
  using ArrayPtr = std::shared_ptr<ArrayRep>;
  using MapPtr = std::shared_ptr<MapRep>;

  // Make `ptr`'s node exclusively ours and drop its cached hash (we are
  // about to hand out a mutable reference into it).
  template <typename RepT>
  static RepT& own(std::shared_ptr<RepT>& ptr) {
    if (ptr.use_count() > 1) {
      ptr = std::make_shared<RepT>(*ptr);
    } else {
      ptr->hash_ready.store(false, std::memory_order_relaxed);
    }
    return *ptr;
  }

  std::variant<std::monostate, bool, std::int64_t, std::string, ArrayPtr,
               MapPtr>
      v_;
};

// constinit: initialized before any dynamic initializer can call at().
inline constinit const Value Value::kNullValue{};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace ftss
