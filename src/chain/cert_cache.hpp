// Parsed-certificate cache behind VerifyService's DER-boundary entry points
// (validate, validate_batch, evaluate_gccs). It is keyed by a cheap
// non-cryptographic hash of the DER, and every hit is confirmed by
// comparing the cached certificate's der() byte for byte, so a key
// collision costs a reparse and never serves the wrong certificate. The
// only SHA-256 over a certificate's bytes stays the one parse computes for
// its fingerprint.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "util/sharded_cache.hpp"
#include "x509/certificate.hpp"

namespace anchor::chain {

// Default cache key: the standard library's word-at-a-time string hash.
struct DerKey {
  std::size_t operator()(BytesView der) const {
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(der.data()), der.size()));
  }
};

// `KeyFn` is a template parameter so tests can force collisions.
template <typename KeyFn = DerKey>
class CertCache {
 public:
  CertCache(std::size_t capacity, std::size_t shards)
      : cache_(capacity, shards) {}

  // The certificate for `der`: the cached one on a confirmed hit (`hit` is
  // set), otherwise a fresh parse, which replaces whatever shared the key.
  // Parse failures are not cached.
  Result<x509::CertPtr> get_or_parse(BytesView der, bool& hit) {
    const std::size_t key = KeyFn{}(der);
    x509::CertPtr cached;
    hit = cache_.get(key, cached) && std::ranges::equal(cached->der(), der);
    if (hit) return cached;
    auto parsed = x509::Certificate::parse(der);
    if (parsed) cache_.put(key, parsed.value());
    return parsed;
  }

  std::size_t size() const { return cache_.size(); }
  std::uint64_t evictions() const { return cache_.evictions(); }

 private:
  ShardedLruCache<std::size_t, x509::CertPtr> cache_;
};

}  // namespace anchor::chain
