// Command-line plumbing the four tools (ftss_check, ftss_conform,
// ftss_trace, ftss_svc) share: one flag reader, so every tool reports a
// missing or malformed flag value the same way (one line on stderr, exit
// status 2), and whole-file reads and writes.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "util/numeric.h"

namespace ftss {

// Walks argv one flag at a time; the tool keeps its own unknown-flag and
// --help handling:
//
//   FlagReader flags("ftss_x", argc, argv);
//   while (flags.next()) {
//     if (flags.flag() == "--trials") trials = flags.number(0, kMaxInt);
//     else if (flags.flag() == "--out") out = flags.value();
//     else ...
//   }
class FlagReader {
 public:
  FlagReader(const char* tool, int argc, char** argv)
      : tool_(tool), argc_(argc), argv_(argv) {}

  // Steps to the next argument; false once every one has been read.
  bool next() {
    if (i_ + 1 >= argc_) return false;
    flag_ = argv_[++i_];
    return true;
  }

  // The argument next() stepped to.
  const std::string& flag() const { return flag_; }

  // The flag's value: the argument after it, which it consumes.
  const char* value() {
    if (i_ + 1 >= argc_) {
      std::cerr << tool_ << ": " << flag_ << " needs a value\n";
      std::exit(2);
    }
    return argv_[++i_];
  }

  // A numeric flag's value: all of the argument after it, inside [lo, hi].
  template <typename T>
  T number(T lo, T hi) {
    const char* text = value();
    const std::optional<T> parsed = parse_integer(text, lo, hi);
    if (!parsed) {
      std::cerr << tool_ << ": " << flag_ << " needs an integer in [" << lo
                << ", " << hi << "], got '" << text << "'\n";
      std::exit(2);
    }
    return *parsed;
  }

 private:
  const char* tool_;
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string flag_;
};

// All of the file at `path`, or nullopt if it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

// Writes `text` to `path`; if the file cannot be opened or written, or
// the close that flushes it fails, prints "<tool>: cannot write <path>" and
// returns false.
inline bool write_file(const char* tool, const std::string& path,
                       const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::cerr << tool << ": cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace ftss
