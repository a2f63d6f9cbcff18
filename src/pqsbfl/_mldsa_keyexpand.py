"""FIPS 204 key expansion for ML-DSA-65 seed keys.

The OpenSSL backend used for signing stores ML-DSA-65 private keys in their
32-byte seed form and never exposes the expanded encoding. Wire formats and
size accounting in this package need the standard encodings instead: the
1952-byte public key and the 4032-byte expanded private key. This module
derives both from a seed by running the FIPS 204 key-generation pipeline
(seed expansion, matrix/secret sampling, NTT arithmetic, Power2Round,
bit packing).

All keys of a batch go through the pipeline together, with a leading key
axis: polynomials are rows of (keys, rows, 256) arrays. A is uint32
(keys, 6, 5, 256), the secrets s1 and s2 are int8 (keys, 5, 256) and
(keys, 6, 256), and the NTTs transform the last axis of any such array with
two 16 x 16 matrix products and one elementwise product (see the
factorisation above `_ntt`). Each sampler draws all polynomials of its
distribution, for every key, in one pass over the joined XOF outputs, and
each encoded field is bit-packed once for the whole batch and sliced per key.

The samplers share one selection routine, `_first_accepted`. A row whose
first 256 candidates are all accepted is copied as it is (for A, about
(q / 2^23)^256 ~ 78 % of rows); every other row takes its first 256
accepted candidates by a gather over the positions of all accepted ones.

The NTTs and A*s1 run in float64 from end to end, and every value stays an
integer below 2^53, so float64 holds it exactly. Inputs are below q in
absolute value and table entries below q < 2^23, so every entry of a matrix
product is a sum of 16 integer products below q^2 < 2^46 each, below
16q^2 < 2^50 in absolute value, whatever the summation order or use of fused
multiply-add; a twiddle product stays below q^2 and a sum of A*s1 below
5q^2 < 2^49. `_reduce` maps such a p to p mod q as p - floor(p / q) * q.
The quotient p / q lies below 16q < 2^27 in absolute value, so its
correctly rounded value is off by at most 2^-27. That is less than the
1/q ~ 2^-23 gap between p / q and the next integer when q does not divide
p, and the quotient is exact when q does, so the floor is exact, and so
are its product with q and the difference.

Only key expansion lives here. Signing and verification stay on the vetted
OpenSSL backend, and callers are expected to cross-check the public key
produced here against the backend's own encoding for the same seed, which
exercises every step of this pipeline.

No constant-time discipline is attempted: this code handles simulator key
material only and runs once per batch of key pairs.
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
    """16 x 16 float64 table of scale * zeta^(sign * exponent(row, column))
    mod q, exact (entries are below q < 2^23).

    Built in plain Python: numpy arithmetic at import would page in numpy
    code that runs without ML-DSA keys never use."""
    return np.array([[scale * pow(1753, sign * exponent(r, c) % 512, _Q) % _Q
                      for c in range(16)] for r in range(16)], dtype=np.float64)


_M1, _TW, _M2 = (_table(e) for e in _FACTORS)
# The inverse NTT uses the inverse powers, with its 256^-1 folded into _M1_INV.
_M1_INV = _table(_FACTORS[0], sign=-1, scale=pow(_N, -1, _Q))
_TW_INV, _M2_INV = (_table(e, sign=-1) for e in _FACTORS[1:])


def _reduce(p: np.ndarray) -> np.ndarray:
    """p mod q, in place, for a float64 array of integers of absolute value
    below 16q^2 (exact; see the module docstring)."""
    quotient = np.floor(p / _Q)
    quotient *= _Q
    p -= quotient
    return p


def _ntt(f: np.ndarray) -> np.ndarray:
    """Forward NTT (FIPS 204 Alg. 41) along the last axis of (..., 256).

    Takes integer coefficients of absolute value below q; returns float64
    integers in [0, q).
    """
    x = np.asarray(f, dtype=np.float64).reshape(-1, 16, 16)   # [j1, j0]
    b = _reduce(_M1 @ x)                                       # [i1, j0]
    b *= _TW
    b = _reduce(b).reshape(-1, 16)
    return _reduce(b @ _M2.T).reshape(np.shape(f))             # [i1, i0]


def _inv_ntt(f: np.ndarray) -> np.ndarray:
    """Inverse NTT (FIPS 204 Alg. 42) along the last axis, scaled by 256^-1.

    Takes integer coefficients of absolute value below q; returns float64
    integers in [0, q).
    """
    y = np.asarray(f, dtype=np.float64).reshape(-1, 16)       # [i1, i0]
    d = _reduce(y @ _M2_INV).reshape(-1, 16, 16)               # [i1, j0]
    d *= _TW_INV
    return _reduce(_M1_INV.T @ _reduce(d)).reshape(np.shape(f))  # [j1, j0]


# Initial XOF output per polynomial. A: 840 bytes, five SHAKE-128 blocks of
# 168, give 280 candidates at acceptance q / 2^23 ~ 0.999, about 0.27
# rejections on average where 24 would be needed to fall short. s1, s2: 544
# nibbles at acceptance 9/16 give 306 on average and 256 lies 4.3 standard
# deviations below that, so about 1 row in 1e5 needs a longer digest (384
# nibbles would give only 216 on average). A short row is digested again at
# twice the size, so the output never depends on these sizes.
_UNIFORM_DIGEST_BYTES = 5 * 168
_BOUNDED_DIGEST_BYTES = 272


def _first_accepted(xofs: list, nbytes: int, decode, dtype) -> np.ndarray:
    """(len(xofs), 256) of ``dtype``: each row the first 256 accepted
    candidates of its XOF.

    ``decode(raw, rows, nbytes)`` maps ``rows`` digests of ``nbytes`` each,
    joined in ``raw`` (plus one padding byte), to (rows, candidates) arrays
    of candidate values and acceptance. Rows with fewer than 256 accepted
    candidates are digested again at twice the size until every row is full.
    """
    out = np.empty((len(xofs), _N), dtype=dtype)
    rows = np.arange(len(xofs))
    while len(rows):
        # The joined digests are freed as soon as they are decoded.
        values, ok = decode(b"".join([xofs[i].digest(nbytes) for i in rows] + [bytes(1)]),
                            len(rows), nbytes)
        # A row whose first 256 candidates are all accepted is copied as it
        # is; a digest too short to hold 256 candidates has no such row.
        clean = ok[:, :_N].all(axis=1) & (ok.shape[1] >= _N)
        if clean.any():
            out[rows[clean]] = values[clean, :_N]
            values, ok, rows = values[~clean], ok[~clean], rows[~clean]
        counts = np.count_nonzero(ok, axis=1)
        full = counts >= _N
        # Row r's accepted positions start at offset starts[r] of the flat
        # list of accepted positions of all full rows, in row order.
        accepted = np.flatnonzero(ok[full])
        starts = np.cumsum(counts[full]) - counts[full]
        out[rows[full]] = values[full].ravel()[accepted[starts[:, None] + np.arange(_N)]]
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
                           _UNIFORM_DIGEST_BYTES, _decode_uniform, np.uint32)


def _rej_bounded_polys(seeds66: list) -> np.ndarray:
    """Secret polynomials with centered coefficients in [-eta, eta] (FIPS 204
    Alg. 31), one row per seed, by nibble rejection on SHAKE-256 output."""
    return _first_accepted([hashlib.shake_256(s) for s in seeds66],
                           _BOUNDED_DIGEST_BYTES, _decode_bounded, np.int8)


def _bit_pack(values: np.ndarray, width: int) -> bytes:
    """Little-endian-bit packing of nonnegative values, `width` <= 16 bits
    each, in row-major order (a (rows, 256) array packs row after row); the
    number of values must be a multiple of 8.

    Each group of 8 values fills `width` bytes, accumulated in two 64-bit
    words: value j takes bits j * width onwards of the 128-bit pair."""
    groups = np.asarray(values, dtype=np.uint64).reshape(-1, 8)
    words = np.zeros((len(groups), 2), dtype="<u8")
    for j in range(8):
        v, shift = groups[:, j], j * width
        if shift < 64:
            words[:, 0] |= v << shift
            if shift + width > 64:
                words[:, 1] |= v >> (64 - shift)
        else:
            words[:, 1] |= v << (shift - 64)
    return words.view(np.uint8)[:, :width].tobytes()


def _bit_unpack(data: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_bit_pack`, bit by bit; used by consistency checks
    and tests."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    bits = bits[: count * width].reshape(count, width).astype(np.int64)
    return bits @ (1 << np.arange(width, dtype=np.int64))


def expand_seeds(seeds: list) -> list:
    """Expand 32-byte ML-DSA-65 seeds into (public_key, private_key) pairs.

    Returns one pair per seed, in order, each in the standard encodings:
    1952-byte public key and 4032-byte expanded private key. Deterministic
    in each seed and independent of the other seeds of the batch.
    """
    for seed in seeds:
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    n = len(seeds)
    if not n:
        return []

    expanded = [hashlib.shake_256(seed + bytes([_K, _L])).digest(128) for seed in seeds]
    rhos = [e[:32] for e in expanded]

    # A is sampled directly in the NTT domain as (key, row, column,
    # coefficient); the XOF index bytes are (column, row).
    a_hat = _rej_ntt_polys([rho + bytes([s, r]) for rho in rhos for r in range(_K)
                            for s in range(_L)]).reshape(n, _K, _L, _N)
    s1_s2 = _rej_bounded_polys([e[32:96] + struct.pack("<H", r) for e in expanded
                                for r in range(_L + _K)]).reshape(n, _L + _K, _N)

    s1_hat = _ntt(s1_s2[:, :_L])
    a_s1 = _reduce(np.einsum("krsn,ksn->krn", a_hat.astype(np.float64), s1_hat))
    t = (_inv_ntt(a_s1).astype(np.int64) + s1_s2[:, _L:]) % _Q
    # Power2Round: t0 centered in (-2^(d-1), 2^(d-1)], t = t1*2^d + t0.
    half = 1 << (_D - 1)
    t0 = t & ((1 << _D) - 1)
    t0 = np.where(t0 > half, t0 - (1 << _D), t0)
    t1 = (t - t0) >> _D

    # Each field packs all keys at once; every key's share is whole bytes.
    t1_packed = _bit_pack(t1, 10)
    s_packed = _bit_pack(_ETA - s1_s2, 4)
    t0_packed = _bit_pack(half - t0, 13)
    t1_len, s_len, t0_len = len(t1_packed) // n, len(s_packed) // n, len(t0_packed) // n

    pairs = []
    for i, (rho, e) in enumerate(zip(rhos, expanded)):
        public_key = rho + t1_packed[i * t1_len:(i + 1) * t1_len]
        tr = hashlib.shake_256(public_key).digest(64)
        private_key = (rho + e[96:128] + tr + s_packed[i * s_len:(i + 1) * s_len]
                       + t0_packed[i * t0_len:(i + 1) * t0_len])
        assert len(public_key) == PUBLIC_KEY_BYTES
        assert len(private_key) == PRIVATE_KEY_BYTES
        pairs.append((public_key, private_key))
    return pairs


def expand_seed(seed: bytes) -> tuple[bytes, bytes]:
    """Expand one seed: :func:`expand_seeds` on a batch of one."""
    return expand_seeds([seed])[0]
