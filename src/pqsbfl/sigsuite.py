"""Pluggable digital signatures for authenticating model updates.

Three interchangeable backends:

* ``PQC``   -- ML-DSA-65 (FIPS 204, lattice-based). Key generation, signing
  and verification run on the OpenSSL backend of the ``cryptography``
  package; the expanded standard encodings come from
  :mod:`pqsbfl._mldsa_keyexpand`, which expands a whole batch of seeds at
  once (``keygen_batch``); every key's expanded public key is still
  cross-checked against the backend's own encoding.
* ``ECDSA`` -- classical ECDSA over SECP256k1 with SHA-256 message digesting
  and DER-encoded signatures. DER length varies with integer encoding, so
  signature sizes are recorded per signature, never pinned.
* ``NONE``  -- hash-only baseline. "Signing" is SHA-256 of the message and
  the key material is a pair of fixed opaque tokens, so payload and size
  accounting stay meaningful without any cryptography.

ECDSA signs deterministically (RFC 6979): one key and message always give
the same signature. ML-DSA signs in the backend's default hedged
(randomized) mode, as the backend has no deterministic one, so two ML-DSA
signatures over the same message generally differ; only verification
outcomes are comparable across runs.

All operations are pure given their inputs (entropy and clocks aside) and
safe to call concurrently; key material is immutable after creation.
"""

import enum
import hashlib
import os
import struct
import time
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, mldsa

from . import _mldsa_keyexpand as _expand
from .errors import MalformedKey, SchemeMismatch, UnsupportedScheme

__all__ = [
    "SchemeId",
    "KeyPair",
    "Signature",
    "CryptoTimings",
    "keygen",
    "keygen_batch",
    "sign",
    "verify",
    "digest_model",
    "measure_primitives",
    "HASH_BYTES",
    "NONE_PUBLIC_TOKEN",
    "NONE_PRIVATE_TOKEN",
]

HASH_BYTES = 32

# Fixed opaque tokens for the hash-only baseline. The sizes (26/27 bytes)
# are part of the reporting contract; the bytes carry no cryptographic
# meaning and are never read by sign/verify.
NONE_PUBLIC_TOKEN = b"PQS-BFL-NONE-PUBLIC-TOKEN0"
NONE_PRIVATE_TOKEN = b"PQS-BFL-NONE-PRIVATE-TOKEN0"

_SECP256K1_ORDER = int(
    "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141", 16
)


class SchemeId(enum.Enum):
    """Identifier of one signature scheme; serializes as its name."""

    PQC = "PQC"
    ECDSA = "ECDSA"
    NONE = "NONE"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "SchemeId":
        try:
            return cls(name)
        except ValueError:
            raise UnsupportedScheme(f"unknown scheme {name!r}") from None


@dataclass(frozen=True)
class KeyPair:
    """One client's key material under one scheme.

    ``public_key``/``private_key`` hold the scheme's standard encodings
    (raw FIPS 204 encodings for PQC, PEM for ECDSA, fixed tokens for NONE).
    ``handle`` is the live backend signing object; it is required for
    signing under PQC/ECDSA and is never serialized.
    """

    scheme: SchemeId
    public_key: bytes
    private_key: bytes
    handle: object = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Signature:
    scheme: SchemeId
    bytes: bytes  # noqa: A003 - field name fixed by the wire format

    def __len__(self) -> int:
        return len(self.bytes)


@dataclass(frozen=True)
class CryptoTimings:
    """Mean primitive timings in milliseconds over ``trials`` runs."""

    scheme: SchemeId
    keygen_ms: float
    sign_ms: float
    verify_ms: float
    trials: int


def _pqc_seed(rng_seed: int) -> bytes:
    return hashlib.sha256(b"ml-dsa-65 keygen seed" + struct.pack("<Q", rng_seed & (2**64 - 1))).digest()


def _ecdsa_scalar(rng_seed: int) -> int:
    # Deterministic scalar in [1, order): hash a counter stream and reject
    # out-of-range candidates (rejection probability ~2^-128).
    counter = 0
    while True:
        h = hashlib.sha256(
            b"secp256k1 scalar" + struct.pack("<QI", rng_seed & (2**64 - 1), counter)
        ).digest()
        v = int.from_bytes(h, "big")
        if 1 <= v < _SECP256K1_ORDER:
            return v
        counter += 1


def keygen(scheme: SchemeId, rng_seed: int) -> KeyPair:
    """Generate a key pair; :func:`keygen_batch` on a batch of one."""
    return keygen_batch(scheme, [rng_seed])[0]


def keygen_batch(scheme: SchemeId, rng_seeds: list) -> list:
    """One key pair per seed, in order; deterministic in each seed alone.

    Under PQC the FIPS 204 expansion runs once over all seeds, and every
    key's expanded public key is checked against the backend's encoding for
    the same seed (:class:`MalformedKey` on any disagreement). NONE and
    ECDSA generate key by key.

    Raises :class:`UnsupportedScheme` when the backend lacks the algorithm
    (ML-DSA needs an OpenSSL >= 3.5 build of ``cryptography``).
    """
    if scheme is SchemeId.PQC:
        seeds = [_pqc_seed(s) for s in rng_seeds]
        try:
            handles = [mldsa.MLDSA65PrivateKey.from_seed_bytes(seed) for seed in seeds]
        except UnsupportedAlgorithm as exc:
            raise UnsupportedScheme(f"ML-DSA-65 backend unavailable: {exc}") from exc
        keys = [KeyPair(scheme, public_key, private_key, handle)
                for handle, (public_key, private_key) in zip(handles, _expand.expand_seeds(seeds))]
        # The expansion re-derives each public key from scratch; byte
        # equality with the backend validates the whole expansion pipeline.
        if any(key.public_key != key.handle.public_key().public_bytes_raw() for key in keys):
            raise MalformedKey("expanded public key disagrees with the signing backend")
        return keys

    if scheme is SchemeId.NONE:
        return [KeyPair(scheme, NONE_PUBLIC_TOKEN, NONE_PRIVATE_TOKEN) for _ in rng_seeds]

    if scheme is SchemeId.ECDSA:
        return [_ecdsa_keygen(s) for s in rng_seeds]

    raise UnsupportedScheme(f"unknown scheme {scheme!r}")


def _ecdsa_keygen(rng_seed: int) -> KeyPair:
    handle = ec.derive_private_key(_ecdsa_scalar(rng_seed), ec.SECP256K1())
    public_key = handle.public_key().public_bytes(
        serialization.Encoding.PEM,
        serialization.PublicFormat.SubjectPublicKeyInfo,
    )
    private_key = handle.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )
    return KeyPair(SchemeId.ECDSA, public_key, private_key, handle)


def sign(key: KeyPair, message: bytes) -> Signature:
    """Sign ``message`` under ``key``; raises :class:`MalformedKey` if the
    pair carries no usable signing material for its scheme."""
    if key.scheme is SchemeId.NONE:
        return Signature(SchemeId.NONE, hashlib.sha256(message).digest())

    if key.scheme is SchemeId.PQC:
        if not isinstance(key.handle, mldsa.MLDSA65PrivateKey):
            raise MalformedKey("PQC key pair has no signing handle")
        return Signature(SchemeId.PQC, key.handle.sign(message))

    if key.scheme is SchemeId.ECDSA:
        if not isinstance(key.handle, ec.EllipticCurvePrivateKey):
            raise MalformedKey("ECDSA key pair has no signing handle")
        der = key.handle.sign(message, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))
        return Signature(SchemeId.ECDSA, der)

    raise UnsupportedScheme(f"unknown scheme {key.scheme!r}")


def verify(public_key: bytes, scheme: SchemeId, message: bytes, sig: Signature) -> bool:
    """True iff ``sig`` authenticates ``message`` under ``public_key``.

    Pure and deterministic for fixed inputs. Malformed keys or signature
    bytes verify as invalid; a scheme tag disagreement raises
    :class:`SchemeMismatch` instead (it is a caller bug, not a forgery).
    """
    if sig.scheme is not scheme:
        raise SchemeMismatch(f"signature is {sig.scheme}, checked under {scheme}")

    if scheme is SchemeId.NONE:
        return sig.bytes == hashlib.sha256(message).digest()

    if scheme is SchemeId.PQC:
        try:
            pk = mldsa.MLDSA65PublicKey.from_public_bytes(public_key)
            pk.verify(sig.bytes, message)
            return True
        except (InvalidSignature, ValueError):
            return False
        except UnsupportedAlgorithm as exc:
            raise UnsupportedScheme(f"ML-DSA-65 backend unavailable: {exc}") from exc

    if scheme is SchemeId.ECDSA:
        try:
            pk = serialization.load_pem_public_key(public_key)
            pk.verify(sig.bytes, message, ec.ECDSA(hashes.SHA256()))
            return True
        except (InvalidSignature, ValueError, TypeError):
            return False

    raise UnsupportedScheme(f"unknown scheme {scheme!r}")


def digest_model(params) -> bytes:
    """SHA3-256 digest of a model's canonical byte encoding.

    Equal parameters (values and layout) always digest equally; the
    canonical encoding is defined by :func:`pqsbfl.fedcore.canonical_bytes`.
    """
    from .fedcore import canonical_bytes

    return hashlib.sha3_256(canonical_bytes(params)).digest()


def measure_primitives(
    scheme: SchemeId, trials: int = 100, message_len: int = 32
) -> CryptoTimings:
    """Mean wall-clock timings of keygen/sign/verify over fresh operations.

    One untimed warm-up iteration per primitive is excluded from the means.
    Signing and verification run over ``trials`` distinct random messages
    of ``message_len`` bytes under a single fresh key pair.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    messages = [os.urandom(message_len) for _ in range(trials)]
    seed0 = int.from_bytes(os.urandom(8), "little")

    keygen(scheme, seed0)  # warm-up
    t0 = time.perf_counter()
    for i in range(trials):
        key = keygen(scheme, seed0 + 1 + i)
    keygen_ms = (time.perf_counter() - t0) / trials * 1e3

    sign(key, messages[0])  # warm-up
    t0 = time.perf_counter()
    sigs = [sign(key, m) for m in messages]
    sign_ms = (time.perf_counter() - t0) / trials * 1e3

    verify(key.public_key, scheme, messages[0], sigs[0])  # warm-up
    t0 = time.perf_counter()
    for m, s in zip(messages, sigs):
        verify(key.public_key, scheme, m, s)
    verify_ms = (time.perf_counter() - t0) / trials * 1e3

    return CryptoTimings(scheme, keygen_ms, sign_ms, verify_ms, trials)
