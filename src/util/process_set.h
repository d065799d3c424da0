// Word-packed dynamic set of process ids.
//
// The simulator's hot loop is dominated by set algebra over [0, n):
// happened-before influence closures (union per delivered message), coterie
// intersection (per round), and the §2.4 suspect filter (copy + membership
// test per message).  std::set and std::vector<bool> make each of those an
// allocation or a bit-at-a-time loop; ProcessSet stores the same sets as
// 64-bit words, so union/intersect/equality are O(n/64) word ops and copies
// of systems up to 128 processes fit in the object itself (no heap at all).
//
// Semantics: a ProcessSet has a fixed universe [0, n) chosen at
// construction.  Binary operations require operands with the same universe.
// Iteration visits members in ascending id order — the same order std::set
// iteration produced — so histories, traces and dumps render identically.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "util/fnv.h"
#include "util/process_set_simd.h"

namespace ftss {

class ProcessSet {
 public:
  ProcessSet() = default;
  explicit ProcessSet(int n) : n_(n), nwords_((n + 63) / 64) {
    if (nwords_ > kInlineWords) heap_ = new std::uint64_t[nwords_]();
  }

  ProcessSet(const ProcessSet& other) : n_(other.n_), nwords_(other.nwords_) {
    if (nwords_ > kInlineWords) heap_ = new std::uint64_t[nwords_];
    std::memcpy(words(), other.words(), sizeof(std::uint64_t) * nwords_);
  }

  ProcessSet(ProcessSet&& other) noexcept
      : n_(other.n_), nwords_(other.nwords_), heap_(other.heap_) {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    other.heap_ = nullptr;
    other.n_ = 0;
    other.nwords_ = 0;
  }

  ProcessSet& operator=(const ProcessSet& other) {
    if (this == &other) return *this;
    if (nwords_ != other.nwords_) {
      delete[] heap_;
      heap_ = other.nwords_ > kInlineWords ? new std::uint64_t[other.nwords_]
                                           : nullptr;
    }
    n_ = other.n_;
    nwords_ = other.nwords_;
    std::memcpy(words(), other.words(), sizeof(std::uint64_t) * nwords_);
    return *this;
  }

  ProcessSet& operator=(ProcessSet&& other) noexcept {
    if (this == &other) return *this;
    delete[] heap_;
    n_ = other.n_;
    nwords_ = other.nwords_;
    heap_ = other.heap_;
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    other.heap_ = nullptr;
    other.n_ = 0;
    other.nwords_ = 0;
    return *this;
  }

  ~ProcessSet() { delete[] heap_; }

  // Size of the universe [0, n), NOT the member count (see count()).
  int universe() const { return n_; }

  bool contains(int p) const {
    assert(p >= 0 && p < n_);
    return (words()[p >> 6] >> (p & 63)) & 1;
  }

  void insert(int p) {
    assert(p >= 0 && p < n_);
    words()[p >> 6] |= std::uint64_t{1} << (p & 63);
  }

  void erase(int p) {
    assert(p >= 0 && p < n_);
    words()[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
  }

  // Remove every member; the universe is unchanged (and nothing is freed).
  void clear() {
    std::memset(words(), 0, sizeof(std::uint64_t) * nwords_);
  }

  // Make the set the full universe [0, n).
  void insert_all() {
    std::memset(words(), 0xff, sizeof(std::uint64_t) * nwords_);
    mask_tail();
  }

  // Complement within the universe.
  void flip_all() {
    std::uint64_t* w = words();
    for (int i = 0; i < nwords_; ++i) w[i] = ~w[i];
    mask_tail();
  }

  int count() const {
    const std::uint64_t* w = words();
    if (use_simd()) return detail::ps_popcount_avx2(w, nwords_);
    int c = 0;
    for (int i = 0; i < nwords_; ++i) c += std::popcount(w[i]);
    return c;
  }

  bool empty() const {
    const std::uint64_t* w = words();
    for (int i = 0; i < nwords_; ++i) {
      if (w[i] != 0) return false;
    }
    return true;
  }

  ProcessSet& operator|=(const ProcessSet& other) {
    assert(n_ == other.n_);
    std::uint64_t* w = words();
    const std::uint64_t* o = other.words();
    if (use_simd()) {
      detail::ps_or_avx2(w, o, nwords_);
      return *this;
    }
    for (int i = 0; i < nwords_; ++i) w[i] |= o[i];
    return *this;
  }

  // *this |= other, reporting whether any bit was newly set.  This is what
  // lets the causality tracker maintain per-process dirty bits from actual
  // deliveries instead of re-copying every influence set every round.
  bool or_with_changed(const ProcessSet& other) {
    assert(n_ == other.n_);
    std::uint64_t* w = words();
    const std::uint64_t* o = other.words();
    if (use_simd()) return detail::ps_or_changed_avx2(w, o, nwords_);
    std::uint64_t diff = 0;
    for (int i = 0; i < nwords_; ++i) {
      diff |= o[i] & ~w[i];
      w[i] |= o[i];
    }
    return diff != 0;
  }

  ProcessSet& operator&=(const ProcessSet& other) {
    assert(n_ == other.n_);
    std::uint64_t* w = words();
    const std::uint64_t* o = other.words();
    if (use_simd()) {
      detail::ps_and_avx2(w, o, nwords_);
      return *this;
    }
    for (int i = 0; i < nwords_; ++i) w[i] &= o[i];
    return *this;
  }

  friend bool operator==(const ProcessSet& a, const ProcessSet& b) {
    if (a.n_ != b.n_) return false;
    if (a.use_simd()) return detail::ps_equal_avx2(a.words(), b.words(), a.nwords_);
    return std::memcmp(a.words(), b.words(),
                       sizeof(std::uint64_t) * a.nwords_) == 0;
  }

  // Stable FNV-1a content hash (universe size + member words).  Tail bits
  // beyond n are always zero, so equal sets hash equally.
  std::uint64_t hash() const {
    std::uint64_t h = fnv1a_u64(kFnv1aBasis, static_cast<std::uint64_t>(n_));
    const std::uint64_t* w = words();
    for (int i = 0; i < nwords_; ++i) h = fnv1a_u64(h, w[i]);
    return h;
  }

  // Visits members in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    const std::uint64_t* ws = words();
    for (int i = 0; i < nwords_; ++i) {
      for (std::uint64_t w = ws[i]; w != 0; w &= w - 1) {
        f(i * 64 + std::countr_zero(w));
      }
    }
  }

  // Minimal forward iteration (ascending), so range-for call sites read like
  // the std::set they replaced.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = int;
    using difference_type = std::ptrdiff_t;
    using pointer = const int*;
    using reference = int;

    const_iterator(const ProcessSet* s, int pos) : set_(s), pos_(pos) {
      advance_to_member();
    }
    int operator*() const { return pos_; }
    const_iterator& operator++() {
      ++pos_;
      advance_to_member();
      return *this;
    }
    // Bound to the owning set: iterators into two different sets never
    // compare equal, even at the same position.  (Comparing pos_ alone made
    // e.g. `a.begin() == b.begin()` vacuously true for equally-sized sets.)
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.set_ == b.set_ && a.pos_ == b.pos_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    void advance_to_member() {
      const std::uint64_t* ws = set_->words();
      while (pos_ < set_->n_) {
        const std::uint64_t w = ws[pos_ >> 6] >> (pos_ & 63);
        if (w != 0) {
          pos_ += std::countr_zero(w);
          return;
        }
        pos_ = ((pos_ >> 6) + 1) * 64;
      }
      pos_ = set_->n_;
    }

    const ProcessSet* set_;
    int pos_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, n_); }

  // Interop with the observer-facing std::vector<bool> record shapes.
  std::vector<bool> to_bools() const {
    std::vector<bool> out(n_, false);
    for_each([&out](int p) { out[p] = true; });
    return out;
  }

  static ProcessSet of_bools(const std::vector<bool>& bools) {
    ProcessSet s(static_cast<int>(bools.size()));
    for (int p = 0; p < s.n_; ++p) {
      if (bools[p]) s.insert(p);
    }
    return s;
  }

 private:
  // Systems up to 128 processes (every bench/test grid we run) live entirely
  // inside the object: copying an influence snapshot is two word stores.
  static constexpr int kInlineWords = 2;

  std::uint64_t* words() { return heap_ != nullptr ? heap_ : inline_; }
  const std::uint64_t* words() const {
    return heap_ != nullptr ? heap_ : inline_;
  }

  // Inline-capacity sets (n <= 128) stay on the scalar loops: at 1-2 words
  // the vector setup costs more than it saves.  Heap sets of 4+ words (the
  // large-n grid) take the AVX2 kernels when compiled in and supported.
  bool use_simd() const { return detail::kPsUseAvx2 && nwords_ >= 4; }

  // Zero the bits at and beyond n in the last word, so equality/hash are
  // content-only and flip_all/insert_all stay within the universe.
  void mask_tail() {
    if (n_ & 63) {
      words()[nwords_ - 1] &= (std::uint64_t{1} << (n_ & 63)) - 1;
    }
  }

  int n_ = 0;
  int nwords_ = 0;
  std::uint64_t inline_[kInlineWords] = {0, 0};
  std::uint64_t* heap_ = nullptr;
};

}  // namespace ftss
