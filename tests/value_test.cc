#include "util/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

namespace ftss {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int());
  EXPECT_EQ(v.size(), 0u);
}

TEST(Value, IntConstructionAndAccess) {
  Value v(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_EQ(Value(42L).as_int(), 42);
  EXPECT_EQ(Value(42LL).as_int(), 42);
}

TEST(Value, BoolIsNotInt) {
  Value v(true);
  EXPECT_TRUE(v.is_bool());
  EXPECT_FALSE(v.is_int());
  EXPECT_TRUE(v.as_bool());
}

TEST(Value, StringConstruction) {
  Value from_literal("hi");
  Value from_string(std::string("hi"));
  EXPECT_TRUE(from_literal.is_string());
  EXPECT_EQ(from_literal, from_string);
  EXPECT_EQ(from_literal.as_string(), "hi");
}

TEST(Value, ArrayConstructionAndSize) {
  Value v = Value::array({Value(1), Value("x"), Value()});
  EXPECT_TRUE(v.is_array());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.as_array()[0].as_int(), 1);
  EXPECT_TRUE(v.as_array()[2].is_null());
}

TEST(Value, MapConstructionAndAt) {
  Value v = Value::map({{"a", Value(1)}, {"b", Value("x")}});
  EXPECT_TRUE(v.is_map());
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_TRUE(v.contains("b"));
  EXPECT_FALSE(v.contains("c"));
  EXPECT_TRUE(v.at("c").is_null());
}

TEST(Value, AtOnNonMapReturnsNull) {
  const Value sentinel_owner = Value::map({});
  const Value* sentinel = &sentinel_owner.at("k");
  EXPECT_TRUE(sentinel->is_null());
  const Value receivers[] = {Value(), Value(true), Value(7), Value("s"),
                             Value::array({Value(1), Value("k")})};
  for (const Value& v : receivers) {
    EXPECT_TRUE(v.at("k").is_null()) << v;
    EXPECT_EQ(&v.at("k"), sentinel) << v;
    EXPECT_EQ(&v.at(""), sentinel) << v;
    EXPECT_FALSE(v.contains("k")) << v;
    EXPECT_FALSE(v.contains("")) << v;
  }
}

// The lookup contract the inline at()/contains() must keep: exact matches
// among keys that share prefixes or differ only in a high byte, the same
// answer for every key spelling, and one sentinel address for every miss.
TEST(Value, MapLookupFindsExactKeysAndSharesOneMissSentinel) {
  const std::string high_byte("c\x80");
  Value v;
  v[""] = Value(0);
  v["c"] = Value(1);
  v["ca"] = Value(2);
  v["cc"] = Value(3);
  v[high_byte] = Value(4);

  const std::pair<std::string, std::int64_t> present[] = {
      {"", 0}, {"c", 1}, {"ca", 2}, {"cc", 3}, {high_byte, 4}};
  for (const auto& [key, want] : present) {
    const std::string_view view(key);
    EXPECT_EQ(v.at(key).as_int(), want) << key;
    EXPECT_EQ(v.at(view).as_int(), want) << key;
    EXPECT_EQ(&v.at(key), &v.at(view)) << key;
    EXPECT_TRUE(v.contains(key)) << key;
    EXPECT_TRUE(v.contains(view)) << key;
  }
  EXPECT_EQ(v.at("").as_int(), 0);
  EXPECT_EQ(v.at("c").as_int(), 1);
  EXPECT_EQ(v.at("ca").as_int(), 2);
  EXPECT_EQ(v.at("cc").as_int(), 3);
  EXPECT_EQ(v.at("c\x80").as_int(), 4);

  const Value scalar(7);
  const Value* sentinel = &scalar.at("c");
  const std::string missing[] = {"b", "cb", "cd", "caa", "c\x7f",
                                 "c\x81", "C", std::string(1, '\0')};
  for (const std::string& key : missing) {
    EXPECT_EQ(&v.at(key), sentinel) << key;
    EXPECT_EQ(&v.at(std::string_view(key)), sentinel) << key;
    EXPECT_FALSE(v.contains(key)) << key;
    EXPECT_FALSE(v.contains(std::string_view(key))) << key;
  }
  EXPECT_EQ(&v.at("missing"), sentinel);
  EXPECT_FALSE(v.contains("missing"));
  EXPECT_TRUE(sentinel->is_null());
}

// at() and contains() against the map's own find(), on every window of a
// sorted key pool that fits in 0 to 8 entries, so small and large maps
// alike are held to it.  The pool has keys sharing prefixes, the empty key,
// embedded NULs and high bytes; the absent probes sort before, between and
// after a window's keys.
TEST(Value, MapLookupAgreesWithFindAtEverySize) {
  using namespace std::string_literals;
  const std::string pool[] = {""s,  "\0"s,   "ROUND"s,  "STATE"s, "c"s,
                              "c\0"s, "ca"s, "cc"s,     "c\x80"s, "p"s,
                              "type"s, "\xff"s};
  const std::string between[] = {"\0\0"s, "A"s,    "ROUNDS"s, "b"s,
                                 "c\0\0"s, "c\x01"s, "caa"s,   "cb"s,
                                 "c\x7f"s, "c\x81"s, "d"s,     "typ"s,
                                 "typf"s,  "\xff\xff"s};
  const Value scalar(7);
  const Value* sentinel = &scalar.at("c");
  const std::size_t pool_size = std::size(pool);
  for (std::size_t size = 0; size <= 8; ++size) {
    for (std::size_t first = 0; first + size <= pool_size; ++first) {
      Value::Map items;
      for (std::size_t i = first; i < first + size; ++i) {
        items.emplace(pool[i], Value(static_cast<std::int64_t>(i)));
      }
      const Value v(std::move(items));
      const Value::Map& m = v.as_map();
      ASSERT_EQ(m.size(), size);
      auto probe = [&](const std::string& key) {
        const auto it = m.find(key);
        const Value* want = it == m.end() ? sentinel : &it->second;
        SCOPED_TRACE(::testing::Message() << "size " << size << " first "
                                        << first << " key " << Value(key));
        EXPECT_EQ(&v.at(key), want);
        EXPECT_EQ(&v.at(std::string_view(key)), want);
        EXPECT_EQ(v.contains(key), it != m.end());
        EXPECT_EQ(v.contains(std::string_view(key)), it != m.end());
      };
      for (const std::string& key : pool) probe(key);
      for (const std::string& key : between) probe(key);
    }
  }
}

TEST(Value, IndexOperatorCreatesMap) {
  Value v(3);  // starts as an int
  v["k"] = Value(9);
  EXPECT_TRUE(v.is_map());
  EXPECT_EQ(v.at("k").as_int(), 9);
}

TEST(Value, TolerantAccessors) {
  EXPECT_EQ(Value("junk").int_or(-1), -1);
  EXPECT_EQ(Value(5).int_or(-1), 5);
  EXPECT_EQ(Value(5).bool_or(true), true);
  EXPECT_EQ(Value(false).bool_or(true), false);
  EXPECT_EQ(Value(5).string_or("d"), "d");
  EXPECT_EQ(Value("s").string_or("d"), "s");
}

TEST(Value, DeepEquality) {
  Value a = Value::map({{"x", Value::array({Value(1), Value(2)})}});
  Value b = Value::map({{"x", Value::array({Value(1), Value(2)})}});
  Value c = Value::map({{"x", Value::array({Value(1), Value(3)})}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Value, TotalOrderAcrossTypes) {
  // null < bool < int < string < array < map.
  EXPECT_LT(Value(), Value(false));
  EXPECT_LT(Value(true), Value(0));
  EXPECT_LT(Value(999), Value(""));
  EXPECT_LT(Value("zzz"), Value(Value::Array{}));
  EXPECT_LT(Value(Value::Array{}), Value(Value::Map{}));
}

TEST(Value, OrderWithinTypes) {
  EXPECT_LT(Value(-5), Value(3));
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value::array({Value(1)}), Value::array({Value(1), Value(1)}));
  EXPECT_LT(Value::array({Value(1), Value(2)}), Value::array({Value(2)}));
  EXPECT_LT(Value::map({{"a", Value(1)}}), Value::map({{"b", Value(0)}}));
}

TEST(Value, OrderingIsStrongAndConsistentWithEquality) {
  Value a = Value::array({Value(1), Value("x")});
  Value b = Value::array({Value(1), Value("x")});
  EXPECT_EQ(a <=> b, std::strong_ordering::equal);
}

TEST(Value, ToStringRendersCompactly) {
  Value v = Value::map({{"n", Value()},
                        {"b", Value(true)},
                        {"i", Value(-2)},
                        {"s", Value("hi")},
                        {"a", Value::array({Value(1), Value(2)})}});
  EXPECT_EQ(v.to_string(), R"({"a":[1,2],"b":true,"i":-2,"n":null,"s":"hi"})");
}

TEST(Value, StreamOperatorMatchesToString) {
  Value v = Value::array({Value(1), Value("x")});
  std::ostringstream os;
  os << v;
  EXPECT_EQ(os.str(), v.to_string());
}

TEST(Value, HashIsContentBased) {
  Value a = Value::map({{"x", Value(1)}});
  Value b = Value::map({{"x", Value(1)}});
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Value, HashDistinguishesTypesAndContents) {
  EXPECT_NE(Value(1).hash(), Value(true).hash());
  EXPECT_NE(Value(1).hash(), Value(2).hash());
  EXPECT_NE(Value("1").hash(), Value(1).hash());
  EXPECT_NE(Value::array({Value(1)}).hash(), Value::array({Value(1), Value()}).hash());
}

TEST(Value, MutableAccessors) {
  Value v = Value::array({Value(1)});
  v.mutable_array().push_back(Value(2));
  EXPECT_EQ(v.size(), 2u);

  Value m = Value::map({{"a", Value(1)}});
  m.mutable_map()["b"] = Value(2);
  EXPECT_EQ(m.at("b").as_int(), 2);
}

TEST(Value, CheckedAccessorThrowsOnMismatch) {
  EXPECT_THROW(Value("x").as_int(), std::bad_variant_access);
  EXPECT_THROW(Value(1).as_string(), std::bad_variant_access);
}

// Copies of array/map values share one immutable rep; mutation detaches the
// writer (copy-on-write).  These tests pin value semantics across sharing.

TEST(Value, CopyThenMutateLeavesTheOriginalUntouched) {
  Value a = Value::array({Value(1), Value(2)});
  Value b = a;
  b.mutable_array().push_back(Value(3));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_NE(a, b);

  Value m = Value::map({{"k", Value(1)}});
  Value m2 = m;
  m2["k"] = Value(99);
  EXPECT_EQ(m.at("k").as_int(), 1);
  EXPECT_EQ(m2.at("k").as_int(), 99);
}

TEST(Value, SharedCopiesCompareEqualAndFast) {
  Value a = Value::map({{"xs", Value::array({Value(1), Value(2)})}});
  Value b = a;  // shares the rep: equality short-circuits on pointer identity
  EXPECT_EQ(a, b);
  EXPECT_EQ(a <=> b, std::strong_ordering::equal);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Value, HashCacheInvalidatedByMutation) {
  Value a = Value::array({Value(1), Value(2)});
  const auto h1 = a.hash();  // warms the cache
  a.mutable_array()[0] = Value(7);
  const auto h2 = a.hash();
  EXPECT_NE(h1, h2);
  // The mutated value hashes identically to a fresh equal value.
  EXPECT_EQ(h2, Value::array({Value(7), Value(2)}).hash());
}

TEST(Value, HashCacheSurvivesSharingAndDetach) {
  Value a = Value::map({{"a", Value(1)}});
  Value b = a;
  (void)a.hash();   // cache on the shared rep
  b["a"] = Value(2);  // detaches b; a keeps the cached rep
  EXPECT_EQ(a.hash(), Value::map({{"a", Value(1)}}).hash());
  EXPECT_EQ(b.hash(), Value::map({{"a", Value(2)}}).hash());
}

TEST(Value, SelfAssignmentThroughSharedRepsIsSafe) {
  Value m;
  m["a"] = Value::array({Value(1), Value(2)});
  m["b"] = m.at("a");       // share the inner array
  m["a"] = m.at("b");       // and alias it back onto itself
  m["b"].mutable_array()[0] = Value(9);
  EXPECT_EQ(m.at("a"), Value::array({Value(1), Value(2)}));
  EXPECT_EQ(m.at("b"), Value::array({Value(9), Value(2)}));
}

TEST(Value, RoundTripUnchangedUnderSharing) {
  Value a = Value::map(
      {{"k", Value::array({Value(1), Value("x"), Value(true)})}});
  Value b = a;
  b["extra"] = Value(2);
  EXPECT_EQ(Value::parse(a.to_string()), a);
  EXPECT_EQ(Value::parse(b.to_string()), b);
}

}  // namespace
}  // namespace ftss
