"""Signature schemes side by side
================================

Walks the three interchangeable signature backends through their lifecycle:
key generation, signing a model-update hash, verification, and what happens
to tampered or cross-signed messages. Ends with a small timing table.
"""

import hashlib

from pqsbfl import SchemeId, keygen, measure_primitives, sign, verify

# A model-update digest is what actually gets signed in the protocol:
# 32 bytes of SHA3-256, never the raw model parameters.
update_digest = hashlib.sha3_256(b"pretend these are canonical model bytes").digest()

print("key material and signature sizes")
print("-" * 60)
for scheme in (SchemeId.PQC, SchemeId.ECDSA, SchemeId.NONE):
    key = keygen(scheme, rng_seed=2024)
    sig = sign(key, update_digest)
    ok = verify(key.public_key, scheme, update_digest, sig.bytes)
    print(
        f"{scheme.value:>5}: pk {len(key.public_key):4d} B  "
        f"sk {len(key.private_key):4d} B  sig {len(sig.bytes):4d} B  valid={ok}"
    )

# ML-DSA-65 sizes are fixed by the standard: 1952/4032/3309 bytes.
# ECDSA's DER signature length varies a little signature to signature.
# The NONE baseline "signs" by hashing, so its signature is a 32-byte digest.

print()
print("tampering, wrong keys and other schemes never verify")
print("-" * 60)
key = keygen(SchemeId.PQC, rng_seed=7)
sig = sign(key, update_digest).bytes  # the verifier names the scheme; only bytes travel

flipped = bytearray(sig)
flipped[100] ^= 0x01  # a single flipped bit anywhere breaks the signature
print("bit-flipped signature:", verify(key.public_key, SchemeId.PQC, update_digest, bytes(flipped)))

other_digest = hashlib.sha3_256(b"a different model").digest()
print("different message:    ", verify(key.public_key, SchemeId.PQC, other_digest, sig))

other_key = keygen(SchemeId.PQC, rng_seed=8)
print("another client's key: ", verify(other_key.public_key, SchemeId.PQC, update_digest, sig))

none_sig = hashlib.sha256(update_digest).digest()  # what a NONE client "signs"
print("NONE bytes under PQC: ", verify(key.public_key, SchemeId.PQC, update_digest, none_sig))

print()
print("primitive timings (means over 50 trials, one warm-up excluded)")
print("-" * 60)
for scheme in (SchemeId.PQC, SchemeId.ECDSA, SchemeId.NONE):
    t = measure_primitives(scheme, trials=50)
    print(
        f"{scheme.value:>5}: keygen {t.keygen_ms:8.3f} ms  "
        f"sign {t.sign_ms:7.3f} ms  verify {t.verify_ms:7.3f} ms"
    )
# Note: PQC key generation here includes deriving the full 4032-byte
# standard private-key encoding, not just the backend's 32-byte seed.
