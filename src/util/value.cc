#include "util/value.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "util/fnv.h"

namespace ftss {

namespace {
// Variant alternative index used as the major sort key so heterogeneous
// values have a total order.
int type_rank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_bool()) return 1;
  if (v.is_int()) return 2;
  if (v.is_string()) return 3;
  if (v.is_array()) return 4;
  return 5;
}
}  // namespace

Value& Value::operator[](const std::string& key) {
  if (!is_map()) v_ = std::make_shared<MapRep>();
  return own(std::get<MapPtr>(v_)).items[key];
}

std::size_t Value::size() const {
  if (is_array()) return as_array().size();
  if (is_map()) return as_map().size();
  if (is_string()) return as_string().size();
  return 0;
}

bool Value::eq_slow(const Value& a, const Value& b) {
  if (a.v_.index() != b.v_.index()) return false;
  // Shared node => deep-equal by construction (COW never mutates in place).
  if (a.is_array()) {
    const auto& x = std::get<Value::ArrayPtr>(a.v_);
    const auto& y = std::get<Value::ArrayPtr>(b.v_);
    return x == y || x->items == y->items;
  }
  if (a.is_map()) {
    const auto& x = std::get<Value::MapPtr>(a.v_);
    const auto& y = std::get<Value::MapPtr>(b.v_);
    return x == y || x->items == y->items;
  }
  return a.v_ == b.v_;
}

std::strong_ordering Value::cmp_slow(const Value& a, const Value& b) {
  if (int ra = type_rank(a), rb = type_rank(b); ra != rb) {
    return ra <=> rb;
  }
  if (a.is_null()) return std::strong_ordering::equal;
  if (a.is_bool()) return a.as_bool() <=> b.as_bool();
  if (a.is_int()) return a.as_int() <=> b.as_int();
  if (a.is_string()) return a.as_string() <=> b.as_string();
  if (a.is_array()) {
    if (std::get<Value::ArrayPtr>(a.v_) == std::get<Value::ArrayPtr>(b.v_)) {
      return std::strong_ordering::equal;
    }
    const auto& x = a.as_array();
    const auto& y = b.as_array();
    for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
      if (auto c = x[i] <=> y[i]; c != 0) return c;
    }
    return x.size() <=> y.size();
  }
  if (std::get<Value::MapPtr>(a.v_) == std::get<Value::MapPtr>(b.v_)) {
    return std::strong_ordering::equal;
  }
  const auto& x = a.as_map();
  const auto& y = b.as_map();
  auto ix = x.begin();
  auto iy = y.begin();
  for (; ix != x.end() && iy != y.end(); ++ix, ++iy) {
    if (auto c = ix->first <=> iy->first; c != 0) return c;
    if (auto c = ix->second <=> iy->second; c != 0) return c;
  }
  return x.size() <=> y.size();
}

std::string Value::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

namespace {
void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}
}  // namespace

std::ostream& operator<<(std::ostream& os, const Value& v) {
  if (v.is_null()) return os << "null";
  if (v.is_bool()) return os << (v.as_bool() ? "true" : "false");
  if (v.is_int()) return os << v.as_int();
  if (v.is_string()) {
    write_escaped(os, v.as_string());
    return os;
  }
  if (v.is_array()) {
    os << '[';
    bool first = true;
    for (const auto& e : v.as_array()) {
      if (!first) os << ',';
      first = false;
      os << e;
    }
    return os << ']';
  }
  os << '{';
  bool first = true;
  for (const auto& [k, e] : v.as_map()) {
    if (!first) os << ',';
    first = false;
    write_escaped(os, k);
    os << ':' << e;
  }
  return os << '}';
}

// --- Parsing -----------------------------------------------------------------

namespace {
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    auto v = parse_value();
    skip_ws();
    if (!v || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    if (depth_ >= kMaxDepth) return std::nullopt;
    const char c = text_[pos_];
    if (c == 'n') return consume_word("null") ? std::optional<Value>(Value())
                                              : std::nullopt;
    if (c == 't') return consume_word("true") ? std::optional<Value>(Value(true))
                                              : std::nullopt;
    if (c == 'f') {
      return consume_word("false") ? std::optional<Value>(Value(false))
                                   : std::nullopt;
    }
    if (c == '"') return parse_string_value();
    if (c == '[') return parse_array();
    if (c == '{') return parse_map();
    return parse_int();
  }

  std::optional<Value> parse_int() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return std::nullopt;
    }
    errno = 0;
    char* end = nullptr;
    const std::string token(text_.substr(start, pos_ - start));
    const long long parsed = std::strtoll(token.c_str(), &end, 10);
    if (errno == ERANGE || end != token.c_str() + token.size()) {
      return std::nullopt;
    }
    return Value(static_cast<std::int64_t>(parsed));
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code |= h - 'A' + 10;
            } else {
              return std::nullopt;
            }
          }
          if (code > 0xff) return std::nullopt;  // bytes only (see writer)
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> parse_string_value() {
    auto s = parse_string();
    if (!s) return std::nullopt;
    return Value(std::move(*s));
  }

  std::optional<Value> parse_array() {
    if (!consume('[')) return std::nullopt;
    ++depth_;
    Value::Array items;
    skip_ws();
    if (consume(']')) {
      --depth_;
      return Value(std::move(items));
    }
    while (true) {
      auto v = parse_value();
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) {
        --depth_;
        return Value(std::move(items));
      }
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Value> parse_map() {
    if (!consume('{')) return std::nullopt;
    ++depth_;
    Value::Map items;
    skip_ws();
    if (consume('}')) {
      --depth_;
      return Value(std::move(items));
    }
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      auto v = parse_value();
      if (!v) return std::nullopt;
      // Duplicate keys are malformed, not last-wins: the binary wire decoder
      // (wire/codec.cc) rejects them as kDuplicateMapKey, and the two
      // adversary-facing decoders must agree on what they accept.
      if (!items.emplace(std::move(*key), std::move(*v)).second) {
        return std::nullopt;
      }
      skip_ws();
      if (consume('}')) {
        --depth_;
        return Value(std::move(items));
      }
      if (!consume(',')) return std::nullopt;
    }
  }

  // Parsing recurses once per nesting level; repro files and corrupted-state
  // dumps come from untrusted places (attack inputs, hand-edited files), so
  // the depth is capped well below stack-overflow territory.  Every value
  // this codebase writes is orders of magnitude shallower.
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};
}  // namespace

std::optional<Value> Value::parse(std::string_view text) {
  return Parser(text).run();
}

namespace {
void hash_value(std::uint64_t& h, const Value& v) {
  int rank = v.is_null()   ? 0
             : v.is_bool() ? 1
             : v.is_int()  ? 2
             : v.is_string() ? 3
             : v.is_array()  ? 4
                             : 5;
  h = fnv1a_bytes(h, &rank, sizeof(rank));
  if (v.is_bool()) {
    bool b = v.as_bool();
    h = fnv1a_bytes(h, &b, sizeof(b));
  } else if (v.is_int()) {
    std::int64_t i = v.as_int();
    h = fnv1a_bytes(h, &i, sizeof(i));
  } else if (v.is_string()) {
    h = fnv1a_bytes(h, v.as_string());
  } else if (v.is_array()) {
    for (const auto& e : v.as_array()) hash_value(h, e);
  } else if (v.is_map()) {
    for (const auto& [k, e] : v.as_map()) {
      h = fnv1a_bytes(h, k);
      hash_value(h, e);
    }
  }
}
}  // namespace

namespace {
// Lazily computes and caches the node's content hash.  The cache is written
// value-then-ready (release) and read ready-then-value (acquire) so
// concurrent readers of a shared node either see the complete pair or
// recompute the same deterministic hash themselves.
template <typename RepT>
std::uint64_t cached_node_hash(const RepT& rep, const Value& v) {
  if (rep.hash_ready.load(std::memory_order_acquire)) {
    return rep.cached_hash.load(std::memory_order_relaxed);
  }
  std::uint64_t h = kFnv1aBasis;
  hash_value(h, v);
  rep.cached_hash.store(h, std::memory_order_relaxed);
  rep.hash_ready.store(true, std::memory_order_release);
  return h;
}
}  // namespace

std::uint64_t Value::hash() const {
  if (is_array()) return cached_node_hash(*std::get<ArrayPtr>(v_), *this);
  if (is_map()) return cached_node_hash(*std::get<MapPtr>(v_), *this);
  std::uint64_t h = kFnv1aBasis;
  hash_value(h, *this);
  return h;
}

}  // namespace ftss
