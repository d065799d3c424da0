// A main for the libFuzzer harnesses in builds without libFuzzer: feeds
// LLVMFuzzerTestOneInput a fixed set of inputs, one of each length from 0
// to kInputs - 1 bytes, cut from one splitmix64 stream.  A harness that
// traps or crashes fails the run; each input is the same in every build.
#include <array>
#include <cstddef>
#include <cstdint>

#include "util/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

int main() {
  constexpr std::size_t kInputs = 256;
  std::array<std::uint8_t, kInputs> input{};
  std::uint64_t k = 0;  // index into the stream from state 0
  for (std::size_t size = 0; size < kInputs; ++size) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < size; ++i) {
      if (i % 8 == 0) word = ftss::splitmix64(k++ * ftss::kSplitmixGamma);
      input[i] = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
    }
    LLVMFuzzerTestOneInput(input.data(), size);
  }
  return 0;
}
