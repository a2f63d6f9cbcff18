"""FIPS 204 key expansion for ML-DSA-65 seed keys.

The OpenSSL backend used for signing stores ML-DSA-65 private keys in their
32-byte seed form and never exposes the expanded encoding. Wire formats and
size accounting in this package need the standard encodings instead: the
1952-byte public key and the 4032-byte expanded private key. This module
derives both from a seed by running the FIPS 204 key-generation pipeline
(seed expansion, matrix/secret sampling, NTT arithmetic, Power2Round,
bit packing).

Polynomials are int64 rows of a (rows, 256) array: A is (6, 5, 256), the
secrets s1 and s2 are (5, 256) and (6, 256), and the NTTs transform the
last axis of any such array in one pass per layer. Every coefficient is
reduced below q < 2^23 before a product, so a product stays below
q^2 < 2^46 and the sum of the 5 products of a row of A*s1 below 2^50,
well inside int64.

Only key expansion lives here. Signing and verification stay on the vetted
OpenSSL backend, and callers are expected to cross-check the public key
produced here against the backend's own encoding for the same seed, which
exercises every step of this pipeline.

No constant-time discipline is attempted: this code handles simulator key
material only and runs once per key pair.
"""

import hashlib
import struct

import numpy as np

_Q = 8380417          # prime modulus, 2^23 - 2^13 + 1
_N = 256              # polynomial degree
_D = 13               # low-order bits dropped from t
_K = 6                # module rows (ML-DSA-65)
_L = 5                # module columns
_ETA = 4              # secret coefficient bound

PUBLIC_KEY_BYTES = 32 + _K * 320                        # 1952
PRIVATE_KEY_BYTES = 128 + (_L + _K) * 128 + _K * 416    # 4032
SIGNATURE_BYTES = 48 + _L * 640 + 55 + _K               # 3309
SEED_BYTES = 32


def _bitrev8(n: int) -> int:
    r = 0
    for _ in range(8):
        r = (r << 1) | (n & 1)
        n >>= 1
    return r


# 512th root of unity is 1753; zetas stored in bit-reversed order.
_ZETAS = np.array([pow(1753, _bitrev8(i), _Q) for i in range(_N)], dtype=np.int64)
_N_INV = pow(_N, _Q - 2, _Q)
# Layer m splits each row into m blocks of 2 * (128 // m) coefficients and
# gives block j the zeta _ZETAS[m + j] (the inverse NTT runs them backwards).
_LAYER_BLOCKS = [1 << i for i in range(8)]


def _ntt(f: np.ndarray) -> np.ndarray:
    """Forward NTT (FIPS 204 Alg. 41) along the last axis of (..., 256)."""
    f = np.array(f, dtype=np.int64)
    for m in _LAYER_BLOCKS:
        b = f.reshape(*f.shape[:-1], m, 2, _N // (2 * m))
        t = _ZETAS[m:2 * m, None] * b[..., 1, :] % _Q
        b[..., 1, :] = (b[..., 0, :] - t) % _Q
        b[..., 0, :] = (b[..., 0, :] + t) % _Q
    return f


def _inv_ntt(f: np.ndarray) -> np.ndarray:
    """Inverse NTT (FIPS 204 Alg. 42) along the last axis, scaled by 256^-1."""
    f = np.array(f, dtype=np.int64)
    for m in reversed(_LAYER_BLOCKS):
        b = f.reshape(*f.shape[:-1], m, 2, _N // (2 * m))
        diff = (b[..., 1, :] - b[..., 0, :]) % _Q
        b[..., 0, :] = (b[..., 0, :] + b[..., 1, :]) % _Q
        b[..., 1, :] = _ZETAS[2 * m - 1:m - 1:-1, None] * diff % _Q
    return f * _N_INV % _Q


def _rej_ntt_poly(seed34: bytes) -> np.ndarray:
    """Uniform polynomial in the NTT domain via 3-byte rejection sampling."""
    xof = hashlib.shake_128(seed34)
    need = 3 * 300  # ~300 candidates; acceptance rate is q / 2^23 ~ 0.999
    while True:
        buf = np.frombuffer(xof.digest(need), dtype=np.uint8).astype(np.int64)
        triples = buf[: 3 * (len(buf) // 3)].reshape(-1, 3)
        z = triples[:, 0] | (triples[:, 1] << 8) | ((triples[:, 2] & 0x7F) << 16)
        z = z[z < _Q]
        if len(z) >= _N:
            return z[:_N]
        need += 3 * 64


def _rej_bounded_poly(seed66: bytes) -> np.ndarray:
    """Secret polynomial with centered coefficients in [-eta, eta]."""
    xof = hashlib.shake_256(seed66)
    need = 192  # 384 nibbles at 9/16 acceptance comfortably covers 256
    while True:
        buf = np.frombuffer(xof.digest(need), dtype=np.uint8).astype(np.int64)
        nibbles = np.empty(2 * len(buf), dtype=np.int64)
        nibbles[0::2] = buf & 0x0F
        nibbles[1::2] = buf >> 4
        accepted = nibbles[nibbles < 9]
        if len(accepted) >= _N:
            return _ETA - accepted[:_N]
        need += 64


def _bit_pack(values: np.ndarray, width: int) -> bytes:
    """Little-endian-bit packing of nonnegative values, `width` bits each,
    in row-major order (a (rows, 256) array packs row after row)."""
    vals = np.asarray(values, dtype=np.uint32).reshape(-1)
    bits = ((vals[:, None] >> np.arange(width, dtype=np.uint32)) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def _bit_unpack(data: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_bit_pack`; used by consistency checks and tests."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bits = bits[: count * width].reshape(count, width).astype(np.int64)
    return bits @ (1 << np.arange(width, dtype=np.int64))


def expand_seed(seed: bytes) -> tuple[bytes, bytes]:
    """Expand a 32-byte ML-DSA-65 seed into (public_key, private_key) bytes.

    Returns the standard encodings: 1952-byte public key and 4032-byte
    expanded private key. Deterministic in the seed.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")

    expanded = hashlib.shake_256(seed + bytes([_K, _L])).digest(128)
    rho, rho_prime, cap_k = expanded[:32], expanded[32:96], expanded[96:128]

    # A is sampled directly in the NTT domain as (row, column, coefficient);
    # the XOF index bytes are (column, row).
    a_hat = np.array([[_rej_ntt_poly(rho + bytes([s, r])) for s in range(_L)]
                      for r in range(_K)])
    s1_s2 = np.array([_rej_bounded_poly(rho_prime + struct.pack("<H", r))
                      for r in range(_L + _K)])
    s1, s2 = s1_s2[:_L], s1_s2[_L:]

    s1_hat = _ntt(s1 % _Q)
    t = (_inv_ntt(np.einsum("rsn,sn->rn", a_hat, s1_hat) % _Q) + s2) % _Q
    # Power2Round: t0 centered in (-2^(d-1), 2^(d-1)], t = t1*2^d + t0.
    half = 1 << (_D - 1)
    t0 = t & ((1 << _D) - 1)
    t0 = np.where(t0 > half, t0 - (1 << _D), t0)
    t1 = (t - t0) >> _D

    public_key = rho + _bit_pack(t1, 10)
    tr = hashlib.shake_256(public_key).digest(64)
    private_key = (rho + cap_k + tr + _bit_pack(_ETA - s1_s2, 4)
                   + _bit_pack(half - t0, 13))

    assert len(public_key) == PUBLIC_KEY_BYTES
    assert len(private_key) == PRIVATE_KEY_BYTES
    return public_key, private_key
