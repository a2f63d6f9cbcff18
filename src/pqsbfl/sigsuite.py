"""Pluggable digital signatures for authenticating model updates.

Three interchangeable backends:

* ``PQC``   -- ML-DSA-65 (FIPS 204, lattice-based). Key generation, signing
  and verification run on the OpenSSL backend of the ``cryptography``
  package (imported on first use); the expanded standard encodings come from
  :mod:`pqsbfl._mldsa_keyexpand`, which expands a whole batch of seeds at
  once (``keygen_batch``); every key's expanded public key is still
  cross-checked against the backend's own encoding.
* ``ECDSA`` -- classical ECDSA over SECP256k1 with SHA-256 message digesting
  and DER-encoded signatures. DER length varies with integer encoding, so
  signature sizes are recorded per signature, never pinned.
* ``NONE``  -- hash-only baseline. "Signing" is SHA-256 of the message and
  the key material is a pair of fixed opaque tokens, so payload and size
  accounting stay meaningful without ever importing ``cryptography``.

ECDSA signs deterministically (RFC 6979): one key and message always give
the same signature. ML-DSA signs in the backend's default hedged
(randomized) mode, as the backend has no deterministic one, so two ML-DSA
signatures over the same message generally differ; only verification
outcomes are comparable across runs.

All operations are pure given their inputs (entropy and clocks aside) and
safe to call concurrently; key material is immutable after creation.
"""

import enum
import functools
import hashlib
import os
import struct
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from . import _mldsa_keyexpand as _expand
from .errors import MalformedKey, UnsupportedScheme
from .fedcore import canonical_bytes

__all__ = [
    "SchemeId",
    "KeyPair",
    "Signature",
    "CryptoTimings",
    "keygen",
    "keygen_batch",
    "sign",
    "verify",
    "well_formed_key",
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


@dataclass(frozen=True)
class CryptoTimings:
    """One ``crypto.csv`` row, its fields in column order: mean primitive
    timings in milliseconds over ``trials`` runs, the mean length in bytes
    of the ``trials`` signatures made, and the key sizes in bytes."""

    scheme: SchemeId
    trials: int
    keygen_ms: float
    sign_ms: float
    verify_ms: float
    sig_size_b: float
    public_key_b: int
    private_key_b: int


@functools.cache
def _backend() -> SimpleNamespace:
    """What PQC and ECDSA use from ``cryptography``, imported on first call."""
    try:
        from cryptography import exceptions
        from cryptography.hazmat.primitives import hashes, serialization
        from cryptography.hazmat.primitives.asymmetric import ec, mldsa
    except ImportError as exc:
        raise UnsupportedScheme(f"signature backend unavailable: {exc}") from exc
    return SimpleNamespace(exceptions=exceptions, SHA256=hashes.SHA256,
                           serialization=serialization, ec=ec, mldsa=mldsa)


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

    Raises :class:`UnsupportedScheme` when ``cryptography`` cannot be
    imported or lacks the algorithm (ML-DSA needs an OpenSSL >= 3.5 build).
    """
    if scheme is SchemeId.PQC:
        backend = _backend()
        seeds = [_pqc_seed(s) for s in rng_seeds]
        try:
            handles = [backend.mldsa.MLDSA65PrivateKey.from_seed_bytes(seed) for seed in seeds]
        except backend.exceptions.UnsupportedAlgorithm as exc:
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
    ec, serialization = _backend().ec, _backend().serialization
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
        if not isinstance(key.handle, _backend().mldsa.MLDSA65PrivateKey):
            raise MalformedKey("PQC key pair has no signing handle")
        return Signature(SchemeId.PQC, key.handle.sign(message))

    if key.scheme is SchemeId.ECDSA:
        backend = _backend()
        if not isinstance(key.handle, backend.ec.EllipticCurvePrivateKey):
            raise MalformedKey("ECDSA key pair has no signing handle")
        der = key.handle.sign(message, backend.ec.ECDSA(backend.SHA256(), deterministic_signing=True))
        return Signature(SchemeId.ECDSA, der)

    raise UnsupportedScheme(f"unknown scheme {key.scheme!r}")


def verify(public_key: bytes, scheme: SchemeId, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` authenticates ``message`` under ``public_key``.

    The verifier names the scheme; ``signature`` is raw bytes and carries
    no tag of its own. Pure and deterministic for fixed inputs. Malformed
    keys or signature bytes, bytes of another scheme among them, verify as
    invalid; so does an ECDSA key that is not on secp256k1.
    """
    if scheme is SchemeId.NONE:
        return signature == hashlib.sha256(message).digest()

    if scheme is SchemeId.PQC:
        backend = _backend()
        try:
            pk = backend.mldsa.MLDSA65PublicKey.from_public_bytes(public_key)
            pk.verify(signature, message)
            return True
        except (backend.exceptions.InvalidSignature, ValueError):
            return False
        except backend.exceptions.UnsupportedAlgorithm as exc:
            raise UnsupportedScheme(f"ML-DSA-65 backend unavailable: {exc}") from exc

    if scheme is SchemeId.ECDSA:
        pk = _secp256k1_key(public_key)
        if pk is None:
            return False
        backend = _backend()
        try:
            pk.verify(signature, message, backend.ec.ECDSA(backend.SHA256()))
            return True
        except (backend.exceptions.InvalidSignature, ValueError, TypeError):
            return False

    raise UnsupportedScheme(f"unknown scheme {scheme!r}")


def _secp256k1_key(public_key: bytes):
    """The secp256k1 public key an SPKI PEM encodes, or None for any other bytes."""
    backend = _backend()
    try:
        pk = backend.serialization.load_pem_public_key(public_key)
    except (backend.exceptions.UnsupportedAlgorithm, ValueError, TypeError):
        return None
    if not (isinstance(pk, backend.ec.EllipticCurvePublicKey)
            and isinstance(pk.curve, backend.ec.SECP256K1)):
        return None
    return pk


def well_formed_key(public_key: bytes, scheme: SchemeId) -> bool:
    """True iff ``public_key`` is a key some signature could verify against
    under ``scheme``: exactly :data:`~pqsbfl._mldsa_keyexpand.PUBLIC_KEY_BYTES`
    bytes for PQC (the backend loads any string of that length), an SPKI PEM
    of a secp256k1 EC key for ECDSA, and non-empty for NONE, whose
    verification never reads the key."""
    if scheme is SchemeId.PQC:
        return len(public_key) == _expand.PUBLIC_KEY_BYTES
    if scheme is SchemeId.ECDSA:
        return _secp256k1_key(public_key) is not None
    if scheme is SchemeId.NONE:
        return len(public_key) > 0
    raise UnsupportedScheme(f"unknown scheme {scheme!r}")


def digest_model(params) -> bytes:
    """SHA3-256 digest of a model's canonical byte encoding.

    Equal parameters (values and layout) always digest equally; the
    canonical encoding is defined by :func:`pqsbfl.fedcore.canonical_bytes`.
    """
    return hashlib.sha3_256(canonical_bytes(params)).digest()


def measure_primitives(scheme: SchemeId, trials: int = 100) -> CryptoTimings:
    """Mean wall-clock timings of keygen/sign/verify over fresh operations,
    the mean size of the signatures made, and the sizes of the last key
    generated, which signs and verifies them.

    One untimed warm-up iteration per primitive is excluded from the means.
    Signing and verification run over ``trials`` distinct random messages
    of ``HASH_BYTES`` bytes, the length of the update hashes the protocol
    signs, under a single fresh key pair.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    messages = [os.urandom(HASH_BYTES) for _ in range(trials)]
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
    sigs = [s.bytes for s in sigs]

    verify(key.public_key, scheme, messages[0], sigs[0])  # warm-up
    t0 = time.perf_counter()
    for m, s in zip(messages, sigs):
        verify(key.public_key, scheme, m, s)
    verify_ms = (time.perf_counter() - t0) / trials * 1e3

    sig_size_b = sum(len(s) for s in sigs) / trials
    return CryptoTimings(scheme, trials, keygen_ms, sign_ms, verify_ms, sig_size_b,
                         len(key.public_key), len(key.private_key))
