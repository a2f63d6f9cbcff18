"""Signature-suite contracts: sizes, roundtrips, tamper rejection, hashing."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsbfl import fedcore, sigsuite
from pqsbfl.errors import MalformedKey, SchemeMismatch, UnsupportedScheme
from pqsbfl.protocol import derive_seed
from pqsbfl.sigsuite import (
    NONE_PRIVATE_TOKEN,
    NONE_PUBLIC_TOKEN,
    KeyPair,
    SchemeId,
    Signature,
    digest_model,
    keygen,
    keygen_batch,
    measure_primitives,
    sign,
    verify,
)

ALL_SCHEMES = (SchemeId.PQC, SchemeId.ECDSA, SchemeId.NONE)


def _flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


class TestSizes:
    def test_pqc_sizes_pinned_on_every_call(self):
        for seed in range(4):
            key = keygen(SchemeId.PQC, seed)
            assert len(key.public_key) == 1952
            assert len(key.private_key) == 4032
            assert len(sign(key, b"m" * 32).bytes) == 3309

    def test_none_tokens_fixed(self):
        key = keygen(SchemeId.NONE, 123)
        assert key.public_key == NONE_PUBLIC_TOKEN
        assert key.private_key == NONE_PRIVATE_TOKEN
        assert len(key.public_key) == 26
        assert len(key.private_key) == 27
        again = keygen(SchemeId.NONE, 456)
        assert again.public_key == key.public_key
        assert again.private_key == key.private_key

    def test_none_signature_is_sha256(self):
        key = keygen(SchemeId.NONE, 0)
        msg = b"baseline message"
        sig = sign(key, msg)
        assert sig.bytes == hashlib.sha256(msg).digest()
        assert len(sig.bytes) == 32

    def test_ecdsa_der_size_recorded_not_pinned(self):
        # DER length varies with integer encoding; the overwhelming bulk of
        # signatures lands in 68..72 bytes and is never asserted exactly.
        key = keygen(SchemeId.ECDSA, 1)
        lengths = {len(sign(key, b"x" * 32).bytes) for _ in range(64)}
        assert lengths <= set(range(64, 73))
        assert max(lengths) >= 70


class TestKeygen:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_deterministic_in_seed(self, scheme):
        a = keygen(scheme, 987654321)
        b = keygen(scheme, 987654321)
        assert a.public_key == b.public_key
        assert a.private_key == b.private_key

    @pytest.mark.parametrize("scheme", (SchemeId.PQC, SchemeId.ECDSA))
    def test_distinct_seeds_distinct_keys(self, scheme):
        assert keygen(scheme, 1).public_key != keygen(scheme, 2).public_key

    def test_ecdsa_self_signed_roundtrip(self):
        key = keygen(SchemeId.ECDSA, 42)
        msg = b"self-signed test message"
        assert verify(key.public_key, SchemeId.ECDSA, msg, sign(key, msg))

    def test_unknown_scheme_name_rejected(self):
        with pytest.raises(UnsupportedScheme):
            SchemeId.from_name("RSA")


class TestKeygenBatch:
    def test_init_phase_batch_known_answer(self):
        # SHA3-256 over public || private key of the 16 client keys and the
        # aggregator key that init_phase derives for master seed 2025,
        # captured from the per-key expansion this batch replaced.
        seeds = [derive_seed(2025, "keygen", cid) for cid in range(16)]
        seeds.append(derive_seed(2025, "keygen-aggregator"))
        h = hashlib.sha3_256()
        for key in keygen_batch(SchemeId.PQC, seeds):
            h.update(key.public_key + key.private_key)
        assert h.hexdigest() == (
            "50a93ecb0431a456e9680828569e4a69d7c4aaa636bff672c3da5b354b8e3bf1"
        )

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_batch_matches_per_key_keygen(self, scheme):
        seeds = [7, 123456789, 7, 2**64 - 1]
        batch = keygen_batch(scheme, seeds)
        assert [(k.public_key, k.private_key) for k in batch] == [
            (k.public_key, k.private_key) for k in (keygen(scheme, s) for s in seeds)
        ]
        assert keygen_batch(scheme, []) == []

    def test_one_corrupted_expansion_fails_the_batch(self, monkeypatch):
        expand_seeds = sigsuite._expand.expand_seeds

        def corrupt_third(seeds):
            pairs = expand_seeds(seeds)
            public_key, private_key = pairs[2]
            pairs[2] = (_flip_bit(public_key, 8 * 100), private_key)
            return pairs

        monkeypatch.setattr(sigsuite._expand, "expand_seeds", corrupt_third)
        with pytest.raises(MalformedKey):
            keygen_batch(SchemeId.PQC, [10, 11, 12, 13])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(UnsupportedScheme):
            keygen_batch("RSA", [1])


class TestSignVerify:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_roundtrip(self, scheme):
        key = keygen(scheme, 7)
        msg = hashlib.sha3_256(b"model bytes").digest()
        assert verify(key.public_key, scheme, msg, sign(key, msg))

    @settings(max_examples=25, deadline=None)
    @given(msg=st.binary(min_size=0, max_size=200))
    def test_roundtrip_fuzzed_messages(self, msg):
        for scheme in ALL_SCHEMES:
            key = keygen(scheme, 11)
            assert verify(key.public_key, scheme, msg, sign(key, msg))

    @pytest.mark.parametrize("scheme", (SchemeId.PQC, SchemeId.ECDSA))
    def test_single_bit_tampers_rejected(self, scheme):
        # >=1000 total random flips across both schemes; zero false accepts
        key = keygen(scheme, 21)
        msg = b"h" * 32
        sig = sign(key, msg)
        rng = np.random.default_rng(2024)
        for _ in range(250):
            bit = int(rng.integers(0, len(sig.bytes) * 8))
            bad = Signature(scheme, _flip_bit(sig.bytes, bit))
            assert not verify(key.public_key, scheme, msg, bad)
            bit = int(rng.integers(0, len(msg) * 8))
            assert not verify(key.public_key, scheme, _flip_bit(msg, bit), sig)

    def test_cross_key_verification_rejected(self):
        msg = b"k" * 32
        for scheme in ALL_SCHEMES[:2]:
            key_a = keygen(scheme, 100)
            key_b = keygen(scheme, 200)
            sig = sign(key_a, msg)
            assert not verify(key_b.public_key, scheme, msg, sig)

    def test_verify_is_deterministic(self):
        key = keygen(SchemeId.PQC, 5)
        msg = b"d" * 32
        sig = sign(key, msg)
        bad = Signature(SchemeId.PQC, _flip_bit(sig.bytes, 17))
        assert all(verify(key.public_key, SchemeId.PQC, msg, sig) for _ in range(5))
        assert not any(verify(key.public_key, SchemeId.PQC, msg, bad) for _ in range(5))

    def test_scheme_mismatch_raises(self):
        key = keygen(SchemeId.PQC, 5)
        sig = sign(key, b"m")
        with pytest.raises(SchemeMismatch):
            verify(key.public_key, SchemeId.ECDSA, b"m", sig)

    def test_malformed_public_key_is_invalid_not_error(self):
        key = keygen(SchemeId.PQC, 5)
        sig = sign(key, b"m")
        assert not verify(b"\x00" * 10, SchemeId.PQC, b"m", sig)
        ekey = keygen(SchemeId.ECDSA, 5)
        esig = sign(ekey, b"m")
        assert not verify(b"not a pem key", SchemeId.ECDSA, b"m", esig)

    def test_sign_without_handle_raises_malformed_key(self):
        key = keygen(SchemeId.PQC, 5)
        hollow = KeyPair(SchemeId.PQC, key.public_key, key.private_key)
        with pytest.raises(MalformedKey):
            sign(hollow, b"m")

    def test_hedged_pqc_signatures_differ_but_both_verify(self):
        key = keygen(SchemeId.PQC, 5)
        msg = b"same message" * 2
        s1, s2 = sign(key, msg), sign(key, msg)
        assert verify(key.public_key, SchemeId.PQC, msg, s1)
        assert verify(key.public_key, SchemeId.PQC, msg, s2)


class TestDigestModel:
    def test_empty_params_golden_digest(self):
        # Golden value computed once with OpenSSL's SHA3-256 (independent of
        # hashlib's built-in Keccak) over the canonical empty encoding.
        empty = fedcore.ModelParams(np.zeros(0, dtype=np.float32), ())
        assert digest_model(empty).hex() == (
            "8b0a2385d83c8bf7be27e59996f7d881d3bf1fc6606f81ce600b753ad94192a2"
        )

    def test_equal_params_equal_digest(self):
        layout = (("hidden.weight", (2, 3)), ("hidden.bias", (3,)))
        vals = np.arange(9, dtype=np.float32)
        a = fedcore.ModelParams(vals.copy(), layout)
        b = fedcore.ModelParams(vals.copy(), layout)
        assert digest_model(a) == digest_model(b)

    def test_single_element_perturbations_change_digest(self):
        rng = np.random.default_rng(31337)
        layout = (("w", (10, 10)),)
        base = fedcore.ModelParams(rng.standard_normal(100).astype(np.float32), layout)
        ref = digest_model(base)
        for _ in range(100):
            idx = int(rng.integers(0, 100))
            mutated = base.copy()
            mutated.values[idx] += np.float32(1e-3) * (1 + abs(mutated.values[idx]))
            assert digest_model(mutated) != ref

    def test_digest_depends_only_on_canonical_form(self):
        # Assembling the same layers from differently-ordered intermediate
        # dicts must not matter once the canonical layout is applied.
        layout = (("a", (2,)), ("b", (2,)))
        blocks = {"b": np.array([3, 4], np.float32), "a": np.array([1, 2], np.float32)}
        from_scrambled = fedcore.ModelParams(
            np.concatenate([blocks[name] for name, _ in layout]), layout
        )
        direct = fedcore.ModelParams(np.array([1, 2, 3, 4], np.float32), layout)
        assert digest_model(from_scrambled) == digest_model(direct)


class TestMeasurePrimitives:
    def test_single_trial_boundary(self):
        t = measure_primitives(SchemeId.NONE, trials=1)
        assert t.trials == 1
        assert t.keygen_ms >= 0 and t.sign_ms >= 0 and t.verify_ms >= 0

    def test_none_is_submillisecond(self):
        t = measure_primitives(SchemeId.NONE, trials=50)
        assert t.sign_ms < 1.0
        assert t.verify_ms < 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            measure_primitives(SchemeId.NONE, trials=0)
