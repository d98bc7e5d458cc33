// FIPS 180-4 SHA-256, implemented from scratch so the library has no
// external crypto dependency. Used for GCC-to-root binding (the paper
// attaches each General Certificate Constraint to a root by SHA-256 hash),
// for certificate fingerprints, and as the core of SimSig tags.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace anchor {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  // Streaming interface: update() any number of times, then finish().
  void update(BytesView data);
  Digest finish();

  // One-shot convenience.
  static Digest hash(BytesView data);
  static Bytes hash_bytes(BytesView data);
  static std::string hash_hex(BytesView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// Hash functor for digest-keyed containers: a SHA-256 digest is already
// uniformly distributed, so its first word is the bucket hash.
struct DigestHash {
  std::size_t operator()(const Sha256::Digest& digest) const {
    std::size_t h;
    std::memcpy(&h, digest.data(), sizeof h);
    return h;
  }
};

}  // namespace anchor
