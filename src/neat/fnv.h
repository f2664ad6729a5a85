// FNV-1a (64-bit): the one hash behind every digest the engine prints or
// compares — verdict, corpus and coverage digests, system state digests,
// and the scenario executor's run and campaign digests.
//
// Only the hash lives here. Each caller keeps its own framing (field
// separators or terminators, hex width), and a digest's bytes are part of
// the goldens that pin it, so a caller's framing never changes.

#ifndef NEAT_FNV_H_
#define NEAT_FNV_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace neat {

class Fnv1a {
 public:
  void MixByte(uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }
  // The bytes of `text`, with no terminator.
  void Mix(std::string_view text) {
    for (const char c : text) {
      MixByte(static_cast<uint8_t>(c));
    }
  }
  // The eight bytes of `word`, least significant first.
  void MixWord(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      MixByte(static_cast<uint8_t>(word >> (byte * 8)));
    }
  }

  uint64_t value() const { return hash_; }
  // Lowercase hex without leading zeros.
  std::string Hex() const {
    char digits[16];
    return std::string(digits, std::to_chars(digits, digits + sizeof(digits), hash_, 16).ptr);
  }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace neat

#endif  // NEAT_FNV_H_
