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
last axis of any such array with two 16 x 16 matrix products and one
elementwise product (see the factorisation above `_ntt`). Each sampler draws
all polynomials of its distribution in one pass over the joined XOF outputs.

Each transform reduces mod q three times, once after each product. With
inputs below q in absolute value and table entries below q < 2^23, a
16-term sum of products stays below 16q^2 < 2^50 and a twiddle product
below q^2 < 2^46; A*s1 sums 5 products of reduced coefficients, below
5q^2 < 2^49. Every value stays inside int64.

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


# FIPS 204's NTT (Alg. 41) maps coefficients a[j] to a_hat[i] = sum_j a[j] *
# zeta^((2 * brv8(i) + 1) * j), zeta = 1753 a primitive 512th root of unity
# mod q; Alg. 42 inverts it. For j = 16 * j1 + j0 and i = 16 * i1 + i0,
# brv8(i) = 16 * brv4(i0) + brv4(i1), and as zeta^512 = 1 the power splits
# into the three factors of _FACTORS: a 16-point transform along j1 (_M1),
# a twiddle (_TW) and a 16-point transform along j0 (_M2).
_BRV4 = [int(f"{i:04b}"[::-1], 2) for i in range(16)]
_FACTORS = (lambda i1, j1: 16 * (2 * _BRV4[i1] + 1) * j1,   # _M1[i1, j1]
            lambda i1, j0: (2 * _BRV4[i1] + 1) * j0,        # _TW[i1, j0]
            lambda i0, j0: 32 * _BRV4[i0] * j0)             # _M2[i0, j0]


def _table(exponent, sign: int = 1, scale: int = 1) -> np.ndarray:
    """16 x 16 table of scale * zeta^(sign * exponent(row, column)) mod q.

    Built in plain Python: numpy arithmetic at import would page in numpy
    code that runs without ML-DSA keys never use."""
    return np.array([[scale * pow(1753, sign * exponent(r, c) % 512, _Q) % _Q
                      for c in range(16)] for r in range(16)], dtype=np.int64)


_M1, _TW, _M2 = (_table(e) for e in _FACTORS)
# The inverse NTT uses the inverse powers, with its 256^-1 folded into _M1_INV.
_M1_INV = _table(_FACTORS[0], sign=-1, scale=pow(_N, -1, _Q))
_TW_INV, _M2_INV = (_table(e, sign=-1) for e in _FACTORS[1:])


def _ntt(f: np.ndarray) -> np.ndarray:
    """Forward NTT (FIPS 204 Alg. 41) along the last axis of (..., 256).

    Takes coefficients of absolute value below q; returns them in [0, q).
    """
    x = np.asarray(f, dtype=np.int64).reshape(*np.shape(f)[:-1], 16, 16)  # [j1, j0]
    b = _M1 @ x % _Q * _TW % _Q                                            # [i1, j0]
    return (b @ _M2.T % _Q).reshape(np.shape(f))                           # [i1, i0]


def _inv_ntt(f: np.ndarray) -> np.ndarray:
    """Inverse NTT (FIPS 204 Alg. 42) along the last axis, scaled by 256^-1.

    Takes coefficients of absolute value below q; returns them in [0, q).
    """
    y = np.asarray(f, dtype=np.int64).reshape(*np.shape(f)[:-1], 16, 16)  # [i1, i0]
    d = y @ _M2_INV % _Q * _TW_INV % _Q                                    # [i1, j0]
    return (_M1_INV.T @ d % _Q).reshape(np.shape(f))                       # [j1, j0]


# Initial XOF output per polynomial. A: 300 candidates at acceptance
# q / 2^23 ~ 0.999. s1, s2: 544 nibbles at acceptance 9/16 give 306 on
# average and 256 lies 4.3 standard deviations below that, so about 1 row
# in 1e5 needs a longer digest (384 nibbles would give only 216 on average).
_UNIFORM_DIGEST_BYTES = 3 * 300
_BOUNDED_DIGEST_BYTES = 272


def _first_accepted(xofs: list, nbytes: int, decode) -> np.ndarray:
    """(len(xofs), 256): each row the first 256 accepted candidates of its XOF.

    ``decode(raw, rows, nbytes)`` maps ``rows`` digests of ``nbytes`` each,
    joined in ``raw`` (plus one padding byte), to (rows, candidates) arrays
    of candidate values and acceptance. Rows with fewer than 256 accepted
    candidates are digested again at twice the size until every row is full.
    """
    out = np.empty((len(xofs), _N), dtype=np.int64)
    rows = np.arange(len(xofs))
    while len(rows):
        raw = b"".join([xofs[i].digest(nbytes) for i in rows] + [bytes(1)])
        values, ok = decode(raw, len(rows), nbytes)
        rank = np.cumsum(ok, axis=1, dtype=np.int16)
        full = rank[:, -1] >= _N
        ok &= rank <= _N
        ok &= full[:, None]
        out[rows[full]] = values[ok].reshape(-1, _N)
        rows = rows[~full]
        nbytes *= 2
    return out


def _decode_uniform(raw: bytes, rows: int, nbytes: int):
    # Each candidate is the low 23 bits of a little-endian word read at every
    # third byte (the padding byte covers the last row's last word).
    words = np.ndarray((rows, nbytes // 3), dtype="<u4", buffer=raw, strides=(nbytes, 3))
    z = words & 0x7FFFFF
    return z, z < _Q


def _decode_bounded(raw: bytes, rows: int, nbytes: int):
    buf = np.frombuffer(raw, dtype=np.uint8, count=rows * nbytes).reshape(rows, nbytes)
    nibbles = np.stack((buf & 0x0F, buf >> 4), axis=-1).reshape(rows, -1)
    return _ETA - nibbles.astype(np.int8), nibbles < 9


def _rej_ntt_polys(seeds34: list) -> np.ndarray:
    """Uniform polynomials in the NTT domain (FIPS 204 Alg. 30), one row per
    seed, by 3-byte rejection sampling of SHAKE-128 output."""
    return _first_accepted([hashlib.shake_128(s) for s in seeds34],
                           _UNIFORM_DIGEST_BYTES, _decode_uniform)


def _rej_bounded_polys(seeds66: list) -> np.ndarray:
    """Secret polynomials with centered coefficients in [-eta, eta] (FIPS 204
    Alg. 31), one row per seed, by nibble rejection on SHAKE-256 output."""
    return _first_accepted([hashlib.shake_256(s) for s in seeds66],
                           _BOUNDED_DIGEST_BYTES, _decode_bounded)


def _bit_pack(values: np.ndarray, width: int) -> bytes:
    """Little-endian-bit packing of nonnegative values, `width` <= 16 bits
    each, in row-major order (a (rows, 256) array packs row after row)."""
    vals = np.asarray(values, dtype="<u2").reshape(-1, 1).view(np.uint8)
    bits = np.unpackbits(vals, axis=1, count=width, bitorder="little")
    return np.packbits(bits, bitorder="little").tobytes()


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
    a_hat = _rej_ntt_polys([rho + bytes([s, r]) for r in range(_K)
                            for s in range(_L)]).reshape(_K, _L, _N)
    s1_s2 = _rej_bounded_polys([rho_prime + struct.pack("<H", r)
                                for r in range(_L + _K)])
    s1, s2 = s1_s2[:_L], s1_s2[_L:]

    s1_hat = _ntt(s1)
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
