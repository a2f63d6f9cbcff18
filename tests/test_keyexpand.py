"""Key-expansion pipeline checks against the OpenSSL backend.

The expansion re-derives the ML-DSA-65 public key from the seed through an
independent code path (sampling, NTT, Power2Round, packing), so byte
equality with OpenSSL's public key for the same seed validates the whole
pipeline. The private-key encoding is pinned by a known answer and checked
for structural consistency by unpacking it and replaying the t = A*s1 + s2
relation with a schoolbook product, which also serves as the NTT's oracle.
The batched rejection samplers are checked against byte-by-byte reference
samplers written from FIPS 204 Alg. 30 and 31.
"""

import hashlib

import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric import mldsa

from pqsbfl import _mldsa_keyexpand as kx


def _openssl_public_key(seed: bytes) -> bytes:
    return mldsa.MLDSA65PrivateKey.from_seed_bytes(seed).public_key().public_bytes_raw()


@pytest.mark.parametrize("trial", range(8))
def test_public_key_matches_openssl(trial):
    seed = hashlib.sha256(f"expansion-trial-{trial}".encode()).digest()
    pk, sk = kx.expand_seed(seed)
    assert len(pk) == kx.PUBLIC_KEY_BYTES == 1952
    assert len(sk) == kx.PRIVATE_KEY_BYTES == 4032
    assert pk == _openssl_public_key(seed)


def test_deterministic_in_seed():
    seed = bytes(range(32))
    assert kx.expand_seed(seed) == kx.expand_seed(seed)
    other = kx.expand_seed(bytes(31) + b"\x01")
    assert kx.expand_seed(seed) != other


def test_rejects_wrong_seed_length():
    with pytest.raises(ValueError):
        kx.expand_seed(b"short")
    with pytest.raises(ValueError):
        kx.expand_seed(bytes(33))


def test_private_key_header_structure():
    seed = hashlib.sha256(b"header-structure").digest()
    pk, sk = kx.expand_seed(seed)
    # layout: rho(32) || K(32) || tr(64) || packed secrets
    assert sk[:32] == pk[:32]
    assert sk[64:128] == hashlib.shake_256(pk).digest(64)


def test_private_key_known_answer():
    # SHA3-256 over public || private key for four fixed seeds, captured from
    # the per-polynomial implementation this module replaced; pins the
    # private key, which OpenSSL cannot check, byte for byte.
    h = hashlib.sha3_256()
    for i in range(4):
        pk, sk = kx.expand_seed(hashlib.sha256(f"known-answer-{i}".encode()).digest())
        h.update(pk + sk)
    assert h.hexdigest() == (
        "22d97364ef614b89a3bcbbfae689a1aaab2f91bbbe3c78b8e1d15541ec70c336"
    )


Q, N = 8380417, 256


def _ref_rej_ntt_poly(seed34: bytes) -> list:
    """FIPS 204 Alg. 30 (RejNTTPoly), one 3-byte candidate at a time."""
    stream = hashlib.shake_128(seed34).digest(3 * 1024)
    coeffs, pos = [], 0
    while len(coeffs) < N:
        b0, b1, b2 = stream[pos:pos + 3]
        pos += 3
        z = ((b2 & 0x7F) << 16) | (b1 << 8) | b0  # CoeffFromThreeBytes
        if z < Q:
            coeffs.append(z)
    return coeffs


def _ref_rej_bounded_poly(seed66: bytes, eta: int = 4) -> list:
    """FIPS 204 Alg. 31 (RejBoundedPoly), one byte (two nibbles) at a time."""
    stream = hashlib.shake_256(seed66).digest(1024)
    coeffs, pos = [], 0
    while len(coeffs) < N:
        z = stream[pos]
        pos += 1
        for nibble in (z & 0x0F, z >> 4):  # CoeffFromHalfByte for eta = 4
            if nibble < 9 and len(coeffs) < N:
                coeffs.append(eta - nibble)
    return coeffs


# (uniform, bounded) initial digest sizes: the module's own; tiny, so every
# row is digested again; and just short of the expected need, so some rows
# of one call are refilled while the others are done.
@pytest.mark.parametrize("sizes", [None, (3, 1), (3 * 256, 228)])
def test_batched_samplers_match_reference(sizes, monkeypatch):
    if sizes is not None:
        monkeypatch.setattr(kx, "_UNIFORM_DIGEST_BYTES", sizes[0])
        monkeypatch.setattr(kx, "_BOUNDED_DIGEST_BYTES", sizes[1])
    seeds = [hashlib.sha256(f"sampler-{i}".encode()).digest() for i in range(200)]
    seeds34 = [s + bytes([i % 5, i % 6]) for i, s in enumerate(seeds)]
    seeds66 = [s + s + i.to_bytes(2, "little") for i, s in enumerate(seeds)]

    a = kx._rej_ntt_polys(seeds34)
    s = kx._rej_bounded_polys(seeds66)
    assert a.shape == s.shape == (200, N)
    for i in range(200):
        assert a[i].tolist() == _ref_rej_ntt_poly(seeds34[i]), i
        assert s[i].tolist() == _ref_rej_bounded_poly(seeds66[i]), i


def _negacyclic_product(a, b):
    """Schoolbook product in Z_q[X]/(X^256 + 1): X^256 wraps around to -1."""
    full = np.convolve(a % Q, b % Q)  # exact: 256 products below 2^46 each
    full = np.append(full, 0)
    return (full[:N] - full[N:]) % Q


def _from_ntt_domain(a_hat):
    """Coefficients of polynomials given by their NTT-domain values, from the
    definition: a_hat[i] = a(zeta^(2 * brv8(i) + 1)) with zeta = 1753, so
    a[j] = 256^-1 * sum_i a_hat[i] * zeta^(-(2 * brv8(i) + 1) * j)."""
    inv_roots = np.array(
        [pow(1753, -(2 * int(f"{i:08b}"[::-1], 2) + 1), Q) for i in range(N)],
        dtype=np.int64,
    )
    powers = np.ones((N, N), dtype=np.int64)  # powers[j, i] = inv_roots[i]^j
    for j in range(1, N):
        powers[j] = powers[j - 1] * inv_roots % Q
    return (a_hat % Q) @ powers.T % Q * pow(N, -1, Q) % Q


def test_ntt_product_matches_schoolbook_oracle():
    rng = np.random.default_rng(2024)
    # Worst cases for the unreduced sums of products: all q - 1, and 0 / q - 1
    # alternating (both phases).
    worst = np.array([np.full(N, Q - 1), np.arange(N) % 2 * (Q - 1),
                      (np.arange(N) + 1) % 2 * (Q - 1)], dtype=np.int64)
    a = np.vstack([rng.integers(0, Q, size=(7, N), dtype=np.int64), worst, worst])
    b = np.vstack([rng.integers(0, Q, size=(7, N), dtype=np.int64), worst, worst[::-1]])
    product = kx._inv_ntt(kx._ntt(a) * kx._ntt(b) % Q)
    for row, (x, y) in enumerate(zip(a, b)):
        assert np.array_equal(product[row], _negacyclic_product(x, y)), row
    # Each transform on its own against the NTT's definition.
    assert np.array_equal(kx._inv_ntt(worst), _from_ntt_domain(worst))
    assert np.array_equal(_from_ntt_domain(kx._ntt(worst)), worst)
    assert np.array_equal(kx._ntt(kx._inv_ntt(worst)), worst)


def test_private_key_secrets_consistent_with_public_key():
    # Unpack s1/s2/t0 from the private key, recompute t = A*s1 + s2 without
    # the module's NTT (A interpolated from its definition, products by
    # schoolbook), and check it splits into the t1 packed in the
    # (OpenSSL-validated) public key plus the t0 packed in the private key.
    seed = hashlib.sha256(b"secret-consistency").digest()
    pk, sk = kx.expand_seed(seed)
    rho = pk[:32]

    d, eta = 13, 4
    k_dim, l_dim = 6, 5

    t1 = kx._bit_unpack(pk[32:], k_dim * N, 10).reshape(k_dim, N)
    secrets = eta - kx._bit_unpack(sk[128:128 + (l_dim + k_dim) * 128],
                                   (l_dim + k_dim) * N, 4).reshape(-1, N)
    s1, s2 = secrets[:l_dim], secrets[l_dim:]
    t0 = (1 << (d - 1)) - kx._bit_unpack(sk[128 + (l_dim + k_dim) * 128:],
                                         k_dim * N, 13).reshape(k_dim, N)
    assert len(sk) == 128 + (l_dim + k_dim) * 128 + k_dim * 416

    a = _from_ntt_domain(np.array(
        [[_ref_rej_ntt_poly(rho + bytes([s, r])) for s in range(l_dim)]
         for r in range(k_dim)]
    ))
    for r in range(k_dim):
        t = (sum(_negacyclic_product(a[r, s], s1[s]) for s in range(l_dim)) + s2[r]) % Q
        assert np.array_equal(t, (t1[r] * (1 << d) + t0[r]) % Q)


def test_ntt_roundtrip():
    rng = np.random.default_rng(1234)
    polys = rng.integers(0, Q, size=(11, N), dtype=np.int64)
    assert np.array_equal(kx._inv_ntt(kx._ntt(polys)), polys)
    assert np.array_equal(kx._inv_ntt(kx._ntt(polys[0])), polys[0])


def test_bit_pack_roundtrip():
    rng = np.random.default_rng(99)
    for width in (4, 10, 13):
        vals = rng.integers(0, 1 << width, size=256, dtype=np.int64)
        packed = kx._bit_pack(vals, width)
        assert len(packed) == 256 * width // 8
        assert np.array_equal(kx._bit_unpack(packed, 256, width), vals)
