#include "util/simsig.hpp"

#include <algorithm>

namespace anchor {

namespace {
constexpr std::string_view kKeyDomain = "anchor-simsig-key";
constexpr std::string_view kSigDomain = "anchor-simsig-sig";

Bytes domain_hash(std::string_view domain, BytesView a, BytesView b) {
  Sha256 h;
  Bytes d = to_bytes(domain);
  h.update(BytesView(d.data(), d.size()));
  h.update(a);
  h.update(b);
  Sha256::Digest digest = h.finish();
  return Bytes(digest.begin(), digest.end());
}
}  // namespace

SimKeyPair SimSig::keygen(std::string_view label) {
  SimKeyPair pair;
  Bytes label_bytes = to_bytes(label);
  pair.secret = domain_hash("anchor-simsig-secret", BytesView(label_bytes), {});
  pair.key_id = domain_hash(kKeyDomain, BytesView(pair.secret), {});
  return pair;
}

Bytes SimSig::sign(const SimKeyPair& key, BytesView message) {
  return domain_hash(kSigDomain, BytesView(key.secret), message);
}

bool SimSig::register_key(const SimKeyPair& key) {
  const Bytes expect_id = domain_hash(kKeyDomain, BytesView(key.secret), {});
  if (!ct_equal(BytesView(expect_id), BytesView(key.key_id))) return false;
  Sha256::Digest id;
  std::copy(key.key_id.begin(), key.key_id.end(), id.begin());
  secrets_[id] = key.secret;
  return true;
}

bool SimSig::verify(BytesView key_id, BytesView message,
                    BytesView signature) const {
  // Registered ids are SHA-256 outputs; any other length is unknown.
  if (key_id.size() != Sha256::kDigestSize) return false;
  Sha256::Digest id;
  std::copy(key_id.begin(), key_id.end(), id.begin());
  auto it = secrets_.find(id);
  if (it == secrets_.end()) return false;
  // The id was checked against the secret at registration, so only the tag
  // is recomputed: H(sig-domain || secret || message), streamed.
  Sha256 h;
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(kSigDomain.data()),
                     kSigDomain.size()));
  h.update(BytesView(it->second));
  h.update(message);
  const Sha256::Digest expect = h.finish();
  return ct_equal(BytesView(expect), signature);
}

}  // namespace anchor
