#include "util/simsig.hpp"

#include <gtest/gtest.h>

namespace anchor {
namespace {

TEST(SimSig, KeygenIsDeterministic) {
  SimKeyPair a = SimSig::keygen("Example CA");
  SimKeyPair b = SimSig::keygen("Example CA");
  EXPECT_EQ(a.key_id, b.key_id);
  EXPECT_EQ(a.secret, b.secret);
  SimKeyPair c = SimSig::keygen("Other CA");
  EXPECT_NE(a.key_id, c.key_id);
}

TEST(SimSig, KeyIdDoesNotLeakSecret) {
  SimKeyPair key = SimSig::keygen("Example CA");
  EXPECT_NE(key.key_id, key.secret);
  EXPECT_EQ(key.key_id.size(), 32u);
  EXPECT_EQ(key.secret.size(), 32u);
}

TEST(SimSig, SignVerifyRoundTrip) {
  SimSig registry;
  SimKeyPair key = SimSig::keygen("Signer");
  registry.register_key(key);
  Bytes message = to_bytes("to be signed");
  Bytes signature = SimSig::sign(key, message);
  EXPECT_TRUE(registry.verify(key.key_id, message, signature));
}

TEST(SimSig, TamperedMessageFails) {
  SimSig registry;
  SimKeyPair key = SimSig::keygen("Signer");
  registry.register_key(key);
  Bytes message = to_bytes("payload");
  Bytes signature = SimSig::sign(key, message);
  Bytes tampered = to_bytes("Payload");
  EXPECT_FALSE(registry.verify(key.key_id, tampered, signature));
}

TEST(SimSig, TamperedSignatureFails) {
  SimSig registry;
  SimKeyPair key = SimSig::keygen("Signer");
  registry.register_key(key);
  Bytes message = to_bytes("payload");
  Bytes signature = SimSig::sign(key, message);
  signature[0] ^= 0xff;
  EXPECT_FALSE(registry.verify(key.key_id, message, signature));
}

TEST(SimSig, UnknownKeyFails) {
  SimSig registry;
  SimKeyPair key = SimSig::keygen("Signer");
  // Not registered.
  Bytes message = to_bytes("payload");
  Bytes signature = SimSig::sign(key, message);
  EXPECT_FALSE(registry.verify(key.key_id, message, signature));
}

TEST(SimSig, WrongKeySignatureFails) {
  SimSig registry;
  SimKeyPair a = SimSig::keygen("A");
  SimKeyPair b = SimSig::keygen("B");
  registry.register_key(a);
  registry.register_key(b);
  Bytes message = to_bytes("payload");
  Bytes signature = SimSig::sign(a, message);
  EXPECT_FALSE(registry.verify(b.key_id, message, signature));
  EXPECT_TRUE(registry.verify(a.key_id, message, signature));
}

TEST(SimSig, SignaturesDifferPerMessage) {
  SimKeyPair key = SimSig::keygen("Signer");
  EXPECT_NE(SimSig::sign(key, to_bytes("m1")), SimSig::sign(key, to_bytes("m2")));
}

// The key id is checked against the secret once, at registration: a pair
// whose id does not derive from its secret is refused, so nothing signed
// under it verifies — neither under the claimed id nor under the secret's
// real one (which was never registered).
TEST(SimSig, RegisterRefusesKeyIdNotDerivedFromSecret) {
  SimSig registry;
  SimKeyPair honest = SimSig::keygen("Honest CA");
  SimKeyPair forged{honest.key_id, SimSig::keygen("Forger").secret};
  EXPECT_FALSE(registry.register_key(forged));
  EXPECT_EQ(registry.registered_keys(), 0u);
  Bytes tbs = to_bytes("tbs certificate");
  EXPECT_FALSE(registry.verify(forged.key_id, tbs, SimSig::sign(forged, tbs)));

  // Registering the honest pair afterwards does not let the forger's
  // signatures through: the tag is recomputed from the honest secret.
  EXPECT_TRUE(registry.register_key(honest));
  EXPECT_FALSE(registry.verify(honest.key_id, tbs, SimSig::sign(forged, tbs)));
  Bytes signature = SimSig::sign(honest, tbs);
  EXPECT_TRUE(registry.verify(honest.key_id, tbs, signature));

  // A tampered TBS still fails under the registered key.
  Bytes tampered = tbs;
  tampered.back() ^= 0x01;
  EXPECT_FALSE(registry.verify(honest.key_id, tampered, signature));
  // So does a key id of the wrong length.
  EXPECT_FALSE(registry.verify(BytesView(honest.key_id).first(31), tbs,
                               signature));
}

TEST(SimSig, RegisteredKeysCount) {
  SimSig registry;
  EXPECT_EQ(registry.registered_keys(), 0u);
  registry.register_key(SimSig::keygen("A"));
  registry.register_key(SimSig::keygen("B"));
  registry.register_key(SimSig::keygen("A"));  // duplicate id
  EXPECT_EQ(registry.registered_keys(), 2u);
}

}  // namespace
}  // namespace anchor
