"""Ledger contracts: gas arithmetic, contract semantics, chain integrity."""

import copy
import dataclasses
import functools
import hashlib
import json
import struct

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec, x25519
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqsbfl.errors import InfeasibleCalibration
from pqsbfl.ledger import (
    CALIBRATION_SIG_SIZES,
    DEFAULT_GAS_TARGETS,
    ChainCheck,
    Receipt,
    SimulatedLedger,
    Transaction,
    TxKind,
    calibrate_gas,
    chain_verify,
    export_chain,
)
from pqsbfl.protocol import ExperimentConfig, init_phase, run_round
from pqsbfl.sigsuite import HASH_BYTES, SchemeId, Signature, keygen, sign


def _address(tag: str) -> bytes:
    return hashlib.sha3_256(tag.encode()).digest()


def _spki_pem(private_key) -> bytes:
    return private_key.public_key().public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo)


class TestRegistration:
    def test_pqc_registration_gas(self):
        # 21000 + 16*1952 + 20000*ceil(1952/32) = 1,272,232
        ledger = SimulatedLedger()
        key = keygen(SchemeId.PQC, 1)
        receipt = ledger.register_client(_address("a"), key.public_key, SchemeId.PQC)
        assert receipt.verified
        assert receipt.gas_used == 21_000 + 16 * 1952 + 20_000 * 61 == 1_272_232

    def test_none_registration_gas(self):
        # 21000 + 16*26 + 20000*1 = 41,416
        ledger = SimulatedLedger()
        key = keygen(SchemeId.NONE, 1)
        receipt = ledger.register_client(_address("a"), key.public_key, SchemeId.NONE)
        assert receipt.gas_used == 41_416

    def test_duplicate_registration_rejected_but_charged(self):
        ledger = SimulatedLedger()
        key1 = keygen(SchemeId.PQC, 1)
        key2 = keygen(SchemeId.PQC, 2)
        addr = _address("a")
        ledger.register_client(addr, key1.public_key, SchemeId.PQC)
        receipt = ledger.register_client(addr, key2.public_key, SchemeId.PQC)
        assert not receipt.verified
        assert receipt.gas_used > 0
        # the original key was not silently replaced
        assert ledger.state.registry[addr][0] == key1.public_key

    @pytest.mark.parametrize("scheme, gas", [
        (SchemeId.PQC, 52_232),    # 21000 + 16*1952
        (SchemeId.ECDSA, 23_784),  # 21000 + 16*174
        (SchemeId.NONE, 21_416),   # 21000 + 16*26
    ], ids=["PQC", "ECDSA", "NONE"])
    def test_rejected_registration_charged_no_storage(self, scheme, gas):
        ledger = SimulatedLedger()
        key = keygen(scheme, 1)
        stored = ledger.register_client(_address("a"), key.public_key, scheme)
        repeat = ledger.register_client(_address("a"), key.public_key, scheme)
        assert not repeat.verified
        assert repeat.gas_used == gas
        slots = -(-len(key.public_key) // 32)
        assert stored.gas_used == gas + 20_000 * slots

    def test_registry_monotonic(self):
        ledger = SimulatedLedger()
        sizes = []
        for i in range(4):
            key = keygen(SchemeId.NONE, i)
            ledger.register_client(_address(f"c{i}"), key.public_key, SchemeId.NONE)
            sizes.append(len(ledger.state.registry))
        assert sizes == sorted(sizes) == [1, 2, 3, 4]

    @pytest.mark.parametrize("scheme, key", [
        (SchemeId.PQC, b""),
        (SchemeId.PQC, b"\x01" * 4),
        (SchemeId.PQC, b"\x01" * 1951),
        (SchemeId.PQC, b"\x01" * 1953),
        (SchemeId.ECDSA, _spki_pem(x25519.X25519PrivateKey.from_private_bytes(bytes(range(32))))),
        (SchemeId.ECDSA, _spki_pem(ec.derive_private_key(5, ec.SECP256R1()))),
        (SchemeId.ECDSA, b"-----BEGIN PUBLIC KEY-----\nZ2FyYmFnZQ==\n-----END PUBLIC KEY-----\n"),
        (SchemeId.NONE, b""),
    ], ids=["PQC-0", "PQC-4", "PQC-1951", "PQC-1953", "ECDSA-x25519", "ECDSA-p256",
            "ECDSA-garbage", "NONE-empty"])
    def test_key_that_cannot_verify_rejected_and_charged(self, scheme, key):
        ledger = SimulatedLedger()
        addr = _address("a")
        receipt = ledger.register_client(addr, key, scheme)
        assert not receipt.verified
        assert receipt.gas_used == ledger.gas.register_gas(len(key), stored=False)
        assert ledger.state.registry == {}
        # the address is not locked out: its scheme's own key still registers
        valid = keygen(scheme, 1).public_key
        assert ledger.register_client(addr, valid, scheme).verified
        assert ledger.state.registry == {addr: (valid, scheme)}
        block = ledger.mine_block()
        assert block.transactions[0].tx_hash() == receipt.tx_hash
        assert chain_verify(ledger.chain).intact

    def test_registration_that_does_not_encode_writes_nothing(self):
        ledger = SimulatedLedger()
        with pytest.raises(KeyError):  # a scheme name, not a SchemeId, has no record code
            ledger.register_client(_address("a"), b"pk", "NONE")
        assert ledger.state.registry == {}


class TestSubmitUpdate:
    def _registered(self, scheme, seed=5):
        ledger = SimulatedLedger()
        key = keygen(scheme, seed)
        addr = _address("client")
        ledger.register_client(addr, key.public_key, scheme)
        return ledger, key, addr

    def test_pqc_submission_gas_matches_target(self):
        ledger, key, addr = self._registered(SchemeId.PQC)
        digest = hashlib.sha3_256(b"update").digest()
        receipt = ledger.submit_update(addr, 1, digest, sign(key, digest))
        assert receipt.verified
        assert receipt.gas_used == 1_724_100

    def test_none_submission_gas_matches_target(self):
        ledger, key, addr = self._registered(SchemeId.NONE)
        digest = hashlib.sha3_256(b"update").digest()
        receipt = ledger.submit_update(addr, 1, digest, sign(key, digest))
        assert receipt.gas_used == 173_650

    def test_ecdsa_submission_gas_matches_target_at_nominal_size(self):
        ledger, key, addr = self._registered(SchemeId.ECDSA)
        digest = hashlib.sha3_256(b"update").digest()
        sig = sign(key, digest)
        i = 0
        while len(sig.bytes) != 71:  # calibration assumes the 71-byte average
            # ECDSA signs deterministically: vary the message to vary the size
            digest = hashlib.sha3_256(b"update" + bytes([i])).digest()
            sig = sign(key, digest)
            i += 1
        receipt = ledger.submit_update(addr, 1, digest, sig)
        assert receipt.gas_used == 188_900

    def test_tampered_signature_rejected_without_state_write(self):
        ledger, key, addr = self._registered(SchemeId.PQC)
        digest = hashlib.sha3_256(b"update").digest()
        sig = sign(key, digest)
        bad = bytearray(sig.bytes)
        bad[100] ^= 0x40
        receipt = ledger.submit_update(addr, 1, digest, Signature(SchemeId.PQC, bytes(bad)))
        assert not receipt.verified
        assert receipt.gas_used > 0
        assert ledger.state.verified_updates == {}

    def test_duplicate_round_slot_write_once(self):
        ledger, key, addr = self._registered(SchemeId.PQC)
        d1 = hashlib.sha3_256(b"u1").digest()
        d2 = hashlib.sha3_256(b"u2").digest()
        assert ledger.submit_update(addr, 1, d1, sign(key, d1)).verified
        replay = ledger.submit_update(addr, 1, d2, sign(key, d2))
        assert not replay.verified
        assert _update_hashes(ledger.state.verified_updates) == {1: {addr: d1}}

    def test_unregistered_client_rejected_and_charged(self):
        ledger = SimulatedLedger()
        key = keygen(SchemeId.PQC, 5)
        digest = hashlib.sha3_256(b"u").digest()
        sig = sign(key, digest)
        receipt = ledger.submit_update(_address("ghost"), 1, digest, sig)
        assert not receipt.verified
        assert receipt.gas_used == ledger.gas.submit_gas(
            SchemeId.PQC, len(sig.bytes), stored=False
        )
        assert ledger.state.registry == {} and ledger.state.verified_updates == {}
        ledger.mine_block()
        assert chain_verify(ledger.chain).intact

    def test_scheme_mismatch_rejected_and_charged(self):
        ledger, key, addr = self._registered(SchemeId.PQC)
        none_key = keygen(SchemeId.NONE, 0)
        digest = hashlib.sha3_256(b"u").digest()
        receipt = ledger.submit_update(addr, 1, digest, sign(none_key, digest))
        assert not receipt.verified
        assert receipt.gas_used == ledger.gas.submit_gas(SchemeId.NONE, 32, stored=False)
        assert ledger.state.verified_updates == {}
        ledger.mine_block()
        # intact: the replay rejected it too, or the block's root would differ
        assert chain_verify(ledger.chain).intact

    def test_non_secp256k1_key_under_ecdsa_rejects_submission(self):
        # The contract refuses to store the key, charging the registration
        # as rejected; the address stays unregistered, so a submission from
        # it is rejected and charged, and never raises.
        ledger = SimulatedLedger()
        addr = _address("x25519")
        pem = _spki_pem(x25519.X25519PrivateKey.from_private_bytes(bytes(range(32))))
        registration = ledger.register_client(addr, pem, SchemeId.ECDSA)
        assert not registration.verified
        assert registration.gas_used == 21_000 + 16 * len(pem) == 22_808
        assert ledger.state.registry == {}
        digest = hashlib.sha3_256(b"u").digest()
        sig = sign(keygen(SchemeId.ECDSA, 5), digest)
        receipt = ledger.submit_update(addr, 1, digest, sig)
        assert not receipt.verified
        assert receipt.gas_used == ledger.gas.submit_gas(
            SchemeId.ECDSA, len(sig.bytes), stored=False
        )
        assert ledger.state.verified_updates == {}
        block = ledger.mine_block()
        assert block.height == receipt.block_height
        assert block.transactions[-1].tx_hash() == receipt.tx_hash
        assert chain_verify(ledger.chain).intact

    @pytest.mark.parametrize("submit", ["submit_update", "submit_aggregation"])
    def test_submit_that_does_not_encode_writes_nothing(self, submit):
        ledger, key, addr = self._registered(SchemeId.NONE)
        digest = hashlib.sha3_256(b"u").digest()
        with pytest.raises(struct.error):  # the round does not fit the record's int64
            getattr(ledger, submit)(addr, 2**63, digest, sign(key, digest))
        assert ledger.state.verified_updates == {}
        assert ledger.state.aggregation_records == {}
        ledger.mine_block()
        assert chain_verify(ledger.chain).intact

    def test_short_hash_rejected_and_charged(self):
        ledger, key, addr = self._registered(SchemeId.NONE)
        digest = hashlib.sha3_256(b"u").digest()[:31]
        sig = sign(key, digest)
        receipt = ledger.submit_update(addr, 1, digest, sig)
        assert not receipt.verified
        # charged for the payload it sent: 31 hash bytes + 32 signature bytes
        assert receipt.gas_used == ledger.gas.submit_gas(SchemeId.NONE, 31, stored=False)
        # an empty submission cannot hold a hash; charged as an empty signature
        receipt = ledger.submit_update(addr, 1, b"", Signature(SchemeId.NONE, b""))
        assert not receipt.verified
        assert receipt.gas_used == ledger.gas.submit_gas(SchemeId.NONE, 0, stored=False)
        assert ledger.state.verified_updates == {}
        ledger.mine_block()
        assert chain_verify(ledger.chain).intact


class TestVerifiedOnlyWrites:
    @settings(max_examples=20, deadline=None)
    @given(corrupt=st.lists(st.booleans(), min_size=9, max_size=9), bit=st.integers(0, 2**16))
    @example(corrupt=[True, True, True, True, False, False, False, True, False], bit=8 * 2068)
    @example(corrupt=[False, True, False, True, True, True, True, False, True], bit=0)
    def test_state_entries_exactly_match_valid_submissions(self, corrupt, bit):
        # Interleave valid and tampered submissions over three rounds and
        # check, after every one, that the per-round tables hold exactly the
        # valid set and that no round has an empty table: a rejected
        # submission must not create its round's entry.
        ledger = SimulatedLedger()
        keys = _client_keys(SchemeId.PQC)
        addrs = {i: _address(f"c{i}") for i in range(3)}
        for i in range(3):
            ledger.register_client(addrs[i], keys[i].public_key, SchemeId.PQC)

        expected = {}
        flags = iter(corrupt)
        for rnd in (1, 2, 3):
            for i in range(3):
                digest = hashlib.sha3_256(f"{rnd}-{i}".encode()).digest()
                sig = sign(keys[i], digest)
                tampered = next(flags)
                if tampered:
                    sig = Signature(SchemeId.PQC, _flip_bit(sig.bytes, bit % (8 * len(sig.bytes))))
                receipt = ledger.submit_update(addrs[i], rnd, digest, sig)
                assert receipt.verified == (not tampered)
                if not tampered:
                    expected[(rnd, addrs[i])] = digest
                tables = ledger.state.verified_updates
                assert all(tables.values())
                assert {
                    (r, a): tx.update_hash for r, t in tables.items() for a, tx in t.items()
                } == expected


class TestSubmitAggregation:
    def test_valid_aggregator_signature_records(self):
        ledger = SimulatedLedger()
        agg = keygen(SchemeId.PQC, 9)
        addr = _address("aggregator")
        ledger.register_client(addr, agg.public_key, SchemeId.PQC)
        digest = hashlib.sha3_256(b"global").digest()
        receipt = ledger.submit_aggregation(addr, 3, digest, sign(agg, digest))
        assert receipt.verified
        assert ledger.state.aggregation_records[3].update_hash == digest

    def test_non_aggregator_key_rejected(self):
        ledger = SimulatedLedger()
        agg = keygen(SchemeId.PQC, 9)
        impostor = keygen(SchemeId.PQC, 10)
        addr = _address("aggregator")
        ledger.register_client(addr, agg.public_key, SchemeId.PQC)
        digest = hashlib.sha3_256(b"global").digest()
        receipt = ledger.submit_aggregation(addr, 3, digest, sign(impostor, digest))
        assert not receipt.verified
        assert 3 not in ledger.state.aggregation_records

    def test_duplicate_round_rejected(self):
        ledger = SimulatedLedger()
        agg = keygen(SchemeId.PQC, 9)
        addr = _address("aggregator")
        ledger.register_client(addr, agg.public_key, SchemeId.PQC)
        d1 = hashlib.sha3_256(b"g1").digest()
        d2 = hashlib.sha3_256(b"g2").digest()
        assert ledger.submit_aggregation(addr, 3, d1, sign(agg, d1)).verified
        assert not ledger.submit_aggregation(addr, 3, d2, sign(agg, d2)).verified
        assert ledger.state.aggregation_records[3].update_hash == d1


class TestCalibration:
    def test_calibrated_surcharges(self):
        model = calibrate_gas(DEFAULT_GAS_TARGETS)
        assert model.g_verify == {
            SchemeId.PQC: 1_629_644,
            SchemeId.ECDSA: 146_252,
            SchemeId.NONE: 131_626,
        }

    def test_target_below_base_infeasible(self):
        with pytest.raises(InfeasibleCalibration):
            calibrate_gas({SchemeId.NONE: 20_000})
        with pytest.raises(InfeasibleCalibration):
            calibrate_gas({SchemeId.NONE: -5})

    @pytest.mark.parametrize("target", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_target_infeasible(self, target):
        with pytest.raises(InfeasibleCalibration, match="finite and positive"):
            calibrate_gas({SchemeId.PQC: target})

    def test_target_bounded_by_the_evm_gas_range(self):
        # EIP-1985: gas values are below 2**63, so a report's means stay floats.
        assert calibrate_gas({SchemeId.NONE: 2**63 - 1}).g_verify[SchemeId.NONE] > 0
        with pytest.raises(InfeasibleCalibration, match="2\\*\\*63"):
            calibrate_gas({SchemeId.NONE: 2**63})

    def test_calibration_closure(self):
        model = calibrate_gas(DEFAULT_GAS_TARGETS)
        for scheme, target in DEFAULT_GAS_TARGETS.items():
            gas = model.submit_gas(scheme, CALIBRATION_SIG_SIZES[scheme], stored=True)
            assert gas == target

    def test_gas_determinism(self):
        model = calibrate_gas()
        a = model.submit_gas(SchemeId.PQC, 3309, stored=True)
        b = model.submit_gas(SchemeId.PQC, 3309, stored=True)
        assert a == b


class TestReceipts:
    def test_receipt_fields_pinned(self):
        # No wall-clock field: a receipt is a function of the transactions.
        assert [f.name for f in dataclasses.fields(Receipt)] == [
            "tx_hash", "verified", "gas_used", "block_height",
        ]

    def test_same_transactions_same_receipts(self):
        def receipts():
            ledger = SimulatedLedger()
            key = keygen(SchemeId.NONE, 1)
            addr = _address("a")
            digest = bytes(range(HASH_BYTES))
            out = [
                ledger.register_client(addr, key.public_key, SchemeId.NONE),
                ledger.register_client(addr, key.public_key, SchemeId.NONE),
                ledger.submit_update(addr, 1, digest, sign(key, digest)),
                ledger.submit_update(addr, 1, digest, sign(key, digest)),
                ledger.submit_update(_address("b"), 1, digest, sign(key, digest)),
            ]
            ledger.mine_block()
            out.append(ledger.submit_aggregation(addr, 1, digest, sign(key, digest)))
            return out

        first = receipts()
        assert [r.verified for r in first] == [True, False, True, False, False, True]
        assert receipts() == first


class TestMining:
    def test_empty_pending_set(self):
        ledger = SimulatedLedger()
        before = len(ledger.chain.blocks)
        block = ledger.mine_block()
        assert len(ledger.chain.blocks) == before + 1
        assert block.tx_hashes == b""

    def test_fifo_ordering(self):
        ledger = SimulatedLedger()
        ka = keygen(SchemeId.NONE, 1)
        ra = ledger.register_client(_address("a"), ka.public_key, SchemeId.NONE)
        rb = ledger.register_client(_address("b"), ka.public_key, SchemeId.NONE)
        block = ledger.mine_block()
        assert block.tx_hashes == ra.tx_hash + rb.tx_hash

    def test_mining_identical_state_identical_digest(self):
        def build():
            ledger = SimulatedLedger()
            key = keygen(SchemeId.NONE, 1)
            ledger.register_client(_address("a"), key.public_key, SchemeId.NONE)
            return ledger.mine_block()

        assert build().block_hash() == build().block_hash()


class TestChainIntegrity:
    def _populated_ledger(self) -> SimulatedLedger:
        ledger = SimulatedLedger()
        key = keygen(SchemeId.PQC, 3)
        addr = _address("client")
        ledger.register_client(addr, key.public_key, SchemeId.PQC)
        ledger.mine_block()
        for rnd in range(1, 4):
            digest = hashlib.sha3_256(f"update-{rnd}".encode()).digest()
            ledger.submit_update(addr, rnd, digest, sign(key, digest))
            ledger.mine_block()
        return ledger

    def test_unmodified_chain_intact(self):
        check = chain_verify(self._populated_ledger().chain)
        assert check.intact and check.broken_height is None

    def test_mutated_tx_payload_detected_at_height(self):
        ledger = self._populated_ledger()
        chain = copy.deepcopy(ledger.chain)
        target = chain.blocks[3]
        tx = target.transactions[0]
        mutated = bytearray(tx.payload)
        mutated[5] ^= 0x01
        forged = Transaction(tx.kind, tx.sender, tx.round, bytes(mutated), tx.scheme)
        chain.blocks[3] = dataclasses.replace(
            target, transactions=(forged,) + target.transactions[1:]
        )
        check = chain_verify(chain)
        assert not check.intact
        assert check.broken_height == 3

    @pytest.mark.parametrize(
        "edit",
        [
            lambda body: body[:-1],              # drop one
            lambda body: body + body[-1:],       # duplicate one
            lambda body: body[::-1],             # swap two
        ],
        ids=["drop", "duplicate", "swap"],
    )
    def test_edited_body_detected_at_height(self, edit):
        chain = self._two_update_chain()
        target = chain.blocks[2]
        chain.blocks[2] = dataclasses.replace(target, transactions=edit(target.transactions))
        check = chain_verify(chain)
        assert not check.intact
        assert check.broken_height == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda packed: packed + b"\x00",                            # stray byte
            lambda packed: packed[:-HASH_BYTES],                        # drop one
            lambda packed: packed[HASH_BYTES:] + packed[:HASH_BYTES],   # swap two
        ],
        ids=["stray-byte", "drop", "swap"],
    )
    def test_edited_header_hashes_detected_at_height(self, edit):
        chain = self._two_update_chain()
        target = chain.blocks[2]
        chain.blocks[2] = dataclasses.replace(target, tx_hashes=edit(target.tx_hashes))
        check = chain_verify(chain)
        assert not check.intact
        assert check.broken_height == 2

    def _two_update_chain(self):
        """Registrations, then a block of two verified updates, then an
        empty block; an intact copy of its chain."""
        ledger = SimulatedLedger()
        keys = [keygen(SchemeId.NONE, 10 + i) for i in range(2)]
        addrs = [_address(f"body-{i}") for i in range(2)]
        for addr, key in zip(addrs, keys):
            ledger.register_client(addr, key.public_key, SchemeId.NONE)
        ledger.mine_block()
        for addr, key in zip(addrs, keys):
            digest = hashlib.sha3_256(addr).digest()
            ledger.submit_update(addr, 1, digest, sign(key, digest))
        ledger.mine_block()
        ledger.mine_block()
        chain = copy.deepcopy(ledger.chain)
        assert chain_verify(chain).intact
        assert len(chain.blocks[2].transactions) == 2
        return chain

    @pytest.mark.parametrize("relink", [False, True], ids=["alone", "relinked"])
    @pytest.mark.parametrize("name", ["height", "parent_hash", "tx_hashes", "state_root"])
    def test_edited_header_field_detected_at_its_height(self, name, relink):
        # Relinking makes every later parent_hash and the head agree with the
        # edited block, so only the edited header itself is wrong.
        chain = copy.deepcopy(self._populated_ledger().chain)
        blocks = chain.blocks
        mid = len(blocks) // 2
        value = getattr(blocks[mid], name)
        edited = _flip_bit(value, 0) if isinstance(value, bytes) else value + 1
        blocks[mid] = dataclasses.replace(blocks[mid], **{name: edited})
        if relink:
            for i in range(mid + 1, len(blocks)):
                blocks[i] = dataclasses.replace(blocks[i], parent_hash=blocks[i - 1].block_hash())
            chain.head_hash = blocks[-1].block_hash()
        assert chain_verify(chain) == ChainCheck(False, mid)

    @pytest.mark.parametrize("name", ["height", "parent_hash", "tx_hashes", "state_root"])
    def test_header_field_of_the_wrong_type_detected_at_its_height(self, name):
        chain = copy.deepcopy(self._populated_ledger().chain)
        mid = len(chain.blocks) // 2
        chain.blocks[mid] = dataclasses.replace(chain.blocks[mid], **{name: "x"})
        assert chain_verify(chain) == ChainCheck(False, mid)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda body: (None,) + body[1:],
            lambda body: ("x",) + body[1:],
            lambda body: ((body[0],),) + body[1:],             # the transaction in a 1-tuple
            lambda body: None,                                 # no body at all
            lambda body: (dataclasses.replace(body[0], round="r"),) + body[1:],
        ],
        ids=["none", "str", "tuple", "no-body", "round-str"],
    )
    def test_malformed_body_detected_at_its_height(self, edit):
        state = init_phase(ExperimentConfig(scheme=SchemeId.NONE, n_clients=3, rounds=1))
        run_round(state, 1)
        chain = state.ledger.chain
        chain.blocks[1] = dataclasses.replace(
            chain.blocks[1], transactions=edit(chain.blocks[1].transactions)
        )
        assert chain_verify(chain) == ChainCheck(False, 1)

    @pytest.mark.parametrize("edit, broken_height", [
        (lambda chain: chain.blocks.pop(), 2),  # the head still names the dropped block
        (lambda chain: setattr(chain, "head_hash", chain.blocks[1].block_hash()), 3),
    ], ids=["last-block-dropped", "head-names-block-1"])
    def test_head_hash_anchors_the_last_block(self, edit, broken_height):
        state = init_phase(ExperimentConfig(scheme=SchemeId.NONE, n_clients=3, rounds=2))
        for t in (1, 2):
            run_round(state, t)
        chain = state.ledger.chain
        assert len(chain.blocks) == 4 and chain_verify(chain).intact
        edit(chain)
        assert chain_verify(chain) == ChainCheck(False, broken_height)

    def test_mutated_state_root_detected(self):
        ledger = self._populated_ledger()
        chain = copy.deepcopy(ledger.chain)
        bad_root = bytearray(chain.blocks[2].state_root)
        bad_root[0] ^= 0x80
        chain.blocks[2] = dataclasses.replace(chain.blocks[2], state_root=bytes(bad_root))
        check = chain_verify(chain)
        assert not check.intact
        assert check.broken_height == 2

    def test_genesis_shape(self):
        ledger = SimulatedLedger()
        genesis = ledger.chain.blocks[0]
        assert genesis.height == 0
        assert genesis.parent_hash == bytes(32)

    def test_empty_chain_rejected(self):
        ledger = SimulatedLedger()
        chain = copy.deepcopy(ledger.chain)
        chain.blocks.clear()
        with pytest.raises(ValueError):
            chain_verify(chain)


class TestBlockBody:
    def test_slots_are_the_transactions_in_the_block_bodies(self):
        # A slot holds the transaction that filled it, the object in its
        # block's body, and a transaction stores no field beyond the wire's.
        cfg = ExperimentConfig(
            scheme=SchemeId.NONE, n_clients=3, rounds=2, master_seed=5,
            synth_samples=300, synth_features=8, synth_classes=3,
        )
        state = init_phase(cfg)
        for t in (1, 2):
            run_round(state, t)
        contract, blocks = state.ledger.state, state.ledger.chain.blocks
        assert [len(b.transactions) for b in blocks] == [0, 4, 4, 4]
        for block in blocks[2:]:
            *submits, aggregation = block.transactions
            assert [tx.kind for tx in submits] == [TxKind.SUBMIT_UPDATE] * cfg.n_clients
            assert list(contract.verified_updates[block.height - 1].values()) == submits
            for tx in submits:
                assert contract.verified_updates[tx.round][tx.sender] is tx
                assert tx.update_hash == tx.payload[:HASH_BYTES]
            assert aggregation.kind is TxKind.SUBMIT_AGGREGATION
            assert contract.aggregation_records[aggregation.round] is aggregation
        assert len(contract.verified_updates) == len(contract.aggregation_records) == 2
        assert all(tx.update_hash is None for tx in blocks[1].transactions)
        assert [f.name for f in dataclasses.fields(Transaction)] == [
            "kind", "sender", "round", "payload", "scheme",
        ]


def _update_hashes(tables: dict) -> dict:
    """``verified_updates`` with each slot's transaction read as its hash."""
    return {r: {a: tx.update_hash for a, tx in t.items()} for r, t in tables.items()}


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _rewrite_payload(chain, height: int, txh: bytes, bit: int):
    """Flip one payload bit of transaction ``txh`` in block ``height``'s
    body, re-key it, and re-link every block above it and the head, so that
    only the state roots can disagree with the history."""
    block = chain.blocks[height]
    i = [tx.tx_hash() for tx in block.transactions].index(txh)
    tx = block.transactions[i]
    forged = dataclasses.replace(tx, payload=_flip_bit(tx.payload, bit % (8 * len(tx.payload))))
    at = i * HASH_BYTES
    chain.blocks[height] = dataclasses.replace(
        block,
        tx_hashes=block.tx_hashes[:at] + forged.tx_hash() + block.tx_hashes[at + HASH_BYTES:],
        transactions=block.transactions[:i] + (forged,) + block.transactions[i + 1:],
    )
    for h in range(height + 1, len(chain.blocks)):
        chain.blocks[h] = dataclasses.replace(
            chain.blocks[h], parent_hash=chain.blocks[h - 1].block_hash()
        )
    chain.head_hash = chain.blocks[-1].block_hash()


_CLIENTS = 3


@functools.lru_cache(maxsize=None)
def _client_keys(scheme):
    return tuple(keygen(scheme, 200 + i) for i in range(_CLIENTS))


_client = st.integers(0, _CLIENTS - 1)
_submit = st.tuples(
    st.sampled_from(["update", "aggregation"]),
    _client,
    st.integers(1, 3),
    st.sampled_from(
        ["valid", "valid", "tampered", "relabelled", "short_hash", "short_payload"]
    ),
)
# submissions weighted three to one against registrations and mining
_operations = st.lists(
    st.one_of(
        _submit, _submit, _submit, st.tuples(st.just("register"), _client),
        st.just(("mine",)),
    ),
    min_size=4,
    max_size=30,
)


class TestReplay:
    @settings(max_examples=100, deadline=None)
    @given(
        scheme=st.sampled_from([SchemeId.NONE, SchemeId.ECDSA]),
        ops=_operations,
        bit=st.integers(0, 2**16),
    )
    def test_live_and_replayed_roots_agree(self, scheme, ops, bit):
        keys = _client_keys(scheme)
        addrs = [_address(f"replay-{i}") for i in range(_CLIENTS)]
        other = SchemeId.ECDSA if scheme is SchemeId.NONE else SchemeId.NONE
        ledger = SimulatedLedger()
        # clients 0 and 1 start registered; client 2 only if an operation
        # registers it, so unregistered senders occur too
        for i in (0, 1):
            ledger.register_client(addrs[i], keys[i].public_key, scheme)
        registered = {0, 1}
        expected = {"update": {}, "aggregation": {}}
        stored = []

        for n, op in enumerate(ops):
            if op[0] == "mine":
                ledger.mine_block()
                continue
            if op[0] == "register":
                receipt = ledger.register_client(addrs[op[1]], keys[op[1]].public_key, scheme)
                assert receipt.verified == (op[1] not in registered)
                registered.add(op[1])
                continue

            kind, i, rnd, form = op
            digest = hashlib.sha3_256(f"{n}".encode()).digest()  # unique per submit
            sig = sign(keys[i], digest)
            if form == "tampered":
                sig = Signature(scheme, _flip_bit(sig.bytes, bit % (8 * len(sig.bytes))))
            elif form == "relabelled":
                sig = Signature(other, sig.bytes)
            elif form == "short_hash":
                digest = digest[:-1]
            elif form == "short_payload":  # hash and signature under 32 bytes
                digest, sig = digest[:16], Signature(scheme, b"")
            submit = ledger.submit_update if kind == "update" else ledger.submit_aggregation
            receipt = submit(addrs[i], rnd, digest, sig)
            if kind == "update":
                table, slot = expected["update"].get(rnd, {}), addrs[i]
            else:
                table, slot = expected["aggregation"], rnd
            # an unregistered sender is rejected and charged like a bad signature
            first = i in registered and form == "valid" and slot not in table
            assert receipt.verified == first
            assert receipt.gas_used == ledger.gas.submit_gas(
                sig.scheme, max(0, len(digest) + len(sig.bytes) - HASH_BYTES), first
            )
            if first:
                if kind == "update":
                    expected["update"][rnd] = table
                table[slot] = digest
                stored.append(receipt.tx_hash)

        ledger.mine_block()
        assert _update_hashes(ledger.state.verified_updates) == expected["update"]
        assert {
            r: tx.update_hash for r, tx in ledger.state.aggregation_records.items()
        } == expected["aggregation"]
        check = chain_verify(ledger.chain)
        assert check.intact and check.broken_height is None

        # A rewrite of a stored submission makes the replay reject it, so its
        # record is missing from that block's root. (A rejected submission
        # rewritten into another rejected one writes nothing either way; only
        # the block hashes, which the forger re-links, commit to it.)
        if stored:
            txh = stored[bit % len(stored)]
            height = next(b.height for b in ledger.chain.blocks if txh in b.tx_hashes)
            forged = copy.deepcopy(ledger.chain)
            _rewrite_payload(forged, height, txh, bit)
            check = chain_verify(forged)
            assert not check.intact and check.broken_height == height


class TestExport:
    def test_one_json_record_per_block_hex_digests(self):
        ledger = SimulatedLedger()
        key = keygen(SchemeId.NONE, 1)
        ledger.register_client(_address("a"), key.public_key, SchemeId.NONE)
        ledger.mine_block()
        lines = export_chain(ledger.chain).strip().split("\n")
        assert len(lines) == len(ledger.chain.blocks)
        for line, block in zip(lines, ledger.chain.blocks):
            record = json.loads(line)
            assert record["height"] == block.height
            assert record["block_hash"] == block.block_hash().hex()
            assert record["block_hash"] == record["block_hash"].lower()
            bytes.fromhex(record["parent_hash"])
            assert record["tx_hashes"] == [tx.tx_hash().hex() for tx in block.transactions]

    def test_export_text_pinned(self):
        # SHA3-256 of the export of a (NONE, 3 clients, 2 rounds, seed 7)
        # run: a change to how blocks are stored must leave the text, and
        # every block hash, root and transaction hash it prints, unchanged.
        cfg = ExperimentConfig(scheme=SchemeId.NONE, n_clients=3, rounds=2, master_seed=7)
        state = init_phase(cfg)
        for t in (1, 2):
            run_round(state, t)
        text = export_chain(state.ledger.chain)
        assert hashlib.sha3_256(text.encode()).hexdigest() == (
            "4f86512c608abc1a8eb13aef46919b49ac12a4f70cd03ee2ba9f67e5ffbfc99d"
        )


class TestTransactionEncoding:
    def test_payload_invariants(self):
        # a payload of any length forms; the contract rejects an empty key
        # and a submit too short to hold a hash
        Transaction(TxKind.REGISTER, bytes(32), 0, b"", SchemeId.NONE)
        Transaction(TxKind.SUBMIT_UPDATE, bytes(32), 0, b"", SchemeId.NONE)
        with pytest.raises(ValueError):
            Transaction(TxKind.REGISTER, bytes(31), 0, b"pk", SchemeId.NONE)

    def test_tx_hash_depends_on_every_field(self):
        base = Transaction(TxKind.SUBMIT_UPDATE, bytes(32), 1, bytes(40), SchemeId.PQC)
        assert base.tx_hash() != dataclasses.replace(base, round=2).tx_hash()
        assert (
            base.tx_hash()
            != dataclasses.replace(base, kind=TxKind.SUBMIT_AGGREGATION).tx_hash()
        )
        assert base.tx_hash() != dataclasses.replace(base, scheme=SchemeId.NONE).tx_hash()
