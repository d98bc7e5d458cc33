// SimSig: the simulated signature scheme documented in DESIGN.md §5.
//
// The paper's mechanisms (GCCs, RSFs, chain building) depend only on
// issuer/subject linkage and on whether a signature verifies — never on the
// asymmetric primitive that produced it. SimSig replaces RSA/ECDSA with a
// deterministic SHA-256 construction so the repository is dependency-free:
//
//   key id    = H("anchor-simsig-key" || secret)        (the "public key")
//   signature = H("anchor-simsig-sig" || secret || msg) (the "tag")
//
// Verification recomputes the tag, which requires the secret; to keep the
// public/private split honest at the API level, verification goes through a
// KeyRegistry that maps key ids to signing secrets and plays the role of
// "doing the math" a real asymmetric verify would. The registry checks
// key id = H(key-domain || secret) once, when a pair is registered, and
// refuses a pair that fails it — so verify() hashes only the tag. Forging a signature for
// an unknown secret still requires inverting SHA-256, so negative tests
// (tampered certificates must fail) behave exactly as with real crypto.
//
// The chain verifier depends only on the abstract SignatureScheme interface,
// so a real backend can be slotted in without touching callers.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace anchor {

struct SimKeyPair {
  Bytes key_id;  // acts as the SubjectPublicKeyInfo
  Bytes secret;  // never serialized into certificates
};

// Abstract verification interface used by the chain verifier.
class SignatureScheme {
 public:
  virtual ~SignatureScheme() = default;

  // True iff `signature` is valid for `message` under `key_id`.
  virtual bool verify(BytesView key_id, BytesView message,
                      BytesView signature) const = 0;
};

class SimSig final : public SignatureScheme {
 public:
  // Deterministic keygen from a seed label (e.g. the CA's name).
  static SimKeyPair keygen(std::string_view label);

  static Bytes sign(const SimKeyPair& key, BytesView message);

  // Registers a key pair so verify() can recompute tags for its key id.
  // Returns false, registering nothing, if `key.key_id` is not derived from
  // `key.secret`: such a pair could never have produced a valid signature.
  bool register_key(const SimKeyPair& key);

  bool verify(BytesView key_id, BytesView message,
              BytesView signature) const override;

  std::size_t registered_keys() const { return secrets_.size(); }

 private:
  std::unordered_map<Sha256::Digest, Bytes, DigestHash> secrets_;  // key id -> secret
};

}  // namespace anchor
