// CRLite-style compressed revocation (Larisch et al., CRLite; folded into
// this reproduction via the SoK delegation/revocation axis, PAPERS.md): a
// keyed Bloom-filter cascade over (issuer SPKI hash, serial) built from
// enrolled issuers' full serial universes.
//
// Construction: level 1 is a Bloom filter over the revoked set R, sized
// against the known-valid universe S. Any s in S that level 1 falsely
// reports becomes the include set of level 2 (tested against R), whose
// false positives seed level 3, and so on until a level produces none.
// Lookup walks the cascade: the first level that does *not* contain the key
// decides (odd level -> not revoked, even level -> revoked); exhausting the
// cascade inside level L decides by L's parity. Because the cascade is
// rebuilt until the residual false-positive set is empty, every key in
// R ∪ S gets the *correct* answer — zero false positives (and zero false
// negatives) for enrolled issuers, by construction. Keys outside R ∪ S of
// an enrolled issuer may fall either way, which is why deployment keys the
// universe on everything the CA ever issued; unenrolled issuers are
// reported kUnknown so callers fall back to other sources.
//
// The cascade is deterministic for a given (contents, salt): serialization
// is byte-stable, so carrying it inside RootStore::serialize() keeps store
// content hashes — and therefore RSF snapshot/delta transcripts — stable.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "revocation/provider.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/sha256.hpp"

namespace anchor::revocation {

class CompressedRevocationSet : public Provider {
 public:
  class Builder {
   public:
    // Declares the CA holding `issuer_spki` enrolled: its serial universe is
    // fully known, so lookups against it are authoritative.
    void enroll(BytesView issuer_spki);
    void enroll(const x509::Certificate& issuer);

    // Records one serial of an enrolled issuer as revoked / known-valid.
    // Implicitly enrolls the issuer.
    void add_revoked(BytesView issuer_spki, BytesView serial);
    void add_revoked(const x509::Certificate& issuer,
                     const x509::Certificate& subject);
    void add_valid(BytesView issuer_spki, BytesView serial);
    void add_valid(const x509::Certificate& issuer,
                   const x509::Certificate& subject);

    // Builds the cascade. Fails if any (issuer, serial) was recorded both
    // revoked and valid. `salt` keys the hash family — rebuilds with a new
    // salt produce structurally different (but equally correct) cascades.
    Result<CompressedRevocationSet> build(std::uint64_t salt = 0x43524c6974ULL)
        const;

   private:
    std::set<std::string> enrolled_;  // hex(sha256(spki))
    std::set<std::string> revoked_;   // hex key (see key_for)
    std::set<std::string> valid_;
  };

  // True iff the CA holding `issuer_spki` is enrolled in this cascade.
  bool is_enrolled(BytesView issuer_spki) const;

  // True iff the (enrolled-issuer, serial) pair walks the cascade to a
  // "revoked" verdict. Meaningless for unenrolled issuers — callers must
  // gate on is_enrolled (check() below does).
  bool contains(BytesView issuer_spki, BytesView serial) const;

  // Provider: kUnknown for unenrolled issuers, else kRevoked/kGood.
  const char* name() const override { return "crlite"; }
  RevocationStatus check(const x509::Certificate& cert,
                         BytesView issuer_spki) const override;

  std::size_t level_count() const { return levels_.size(); }
  std::size_t enrolled_count() const { return enrolled_.size(); }
  // Filter payload (cascade bit arrays only) — the number the paper-style
  // size comparison against the OneCRL-equivalent GCC reports.
  std::size_t filter_bytes() const;
  // Full serialized footprint including enrollment list and framing.
  std::size_t size_bytes() const { return serialize().size(); }

  // Deterministic text serialization ("anchor-crlite/v1"); round-trips.
  std::string serialize() const;
  static Result<CompressedRevocationSet> deserialize(std::string_view text);

  bool operator==(const CompressedRevocationSet& other) const;

 private:
  friend class Builder;

  struct Level {
    std::uint32_t bits = 0;    // filter size in bits
    std::uint32_t hashes = 0;  // hash functions per key
    Bytes data;                // ceil(bits/8) bytes
  };

  static std::string key_for(const Sha256::Digest& spki_hash, BytesView serial);
  // The cascade walk for one key (see the header comment for the parity rule).
  bool cascade_contains(const std::string& key) const;
  bool level_contains(const Level& level, std::size_t index,
                      const std::string& key) const;
  static void level_insert(Level& level, std::size_t index,
                           const std::string& key, std::uint64_t salt);

  std::uint64_t salt_ = 0;
  std::vector<Level> levels_;
  std::set<std::string> enrolled_;  // hex(sha256(spki)), sorted for serialize
};

}  // namespace anchor::revocation
