"""Model-based test of the contract and chain: random call sequences against
a plain-dict oracle.

Hypothesis drives a :class:`SimulatedLedger` through registrations, update
and aggregation submits and mined blocks, each drawn from a small address
pool so that addresses repeat and slots collide. After every call the
ledger's receipt, registry and write-once slots must equal the oracle's; a
call that raises must leave everything unchanged; and every mined chain
must replay intact through :func:`chain_verify`.
"""

import functools
import hashlib
import struct

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import x25519
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from pqsbfl.ledger import SimulatedLedger, TxKind, chain_verify
from pqsbfl.sigsuite import HASH_BYTES, SchemeId, Signature, keygen, sign


def _mostly(common, *rare):
    """Draw from ``common`` three times as often as from each ``rare`` strategy."""
    return st.sampled_from([common] * 3 + list(rare)).flatmap(lambda strategy: strategy)


ADDRESSES = [hashlib.sha3_256(b"machine-%d" % i).digest() for i in range(3)]
# Mostly two rounds and two 32-byte hashes, so that valid submits meet taken
# slots; otherwise any round, int64 edges included, and 0-40 hash bytes.
ROUNDS = _mostly(st.integers(1, 2),
                 st.sampled_from([-1, 0, 2**63 - 1, 2**63, -2**63 - 1]), st.integers())
HASHES = _mostly(st.sampled_from([bytes(32), bytes(range(32))]), st.binary(max_size=40))
SUBMIT_DRAWS = dict(
    data=st.data(), address=st.sampled_from(ADDRESSES), round_=ROUNDS, update_hash=HASHES,
    form=st.sampled_from(["valid"] * 3 + ["flipped", "retagged", "other-scheme", "garbage"]),
)
X25519_PEM = x25519.X25519PrivateKey.from_private_bytes(bytes(range(32))).public_key().public_bytes(
    serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo)


@functools.cache
def _keys(scheme: SchemeId) -> tuple:
    """Two key pairs of ``scheme``, generated once per module."""
    return tuple(keygen(scheme, seed) for seed in (1, 2))


class Oracle:
    """The contract as plain dicts, with gas written out from the formulas
    of the ledger module docstring."""

    def __init__(self, gas):
        self.gas = gas
        self.registry = {}      # address -> (key, scheme)
        self.updates = {}       # round -> {address -> hash}
        self.aggregations = {}  # round -> hash

    @staticmethod
    def key_ok(key: bytes, scheme: SchemeId) -> bool:
        if scheme is SchemeId.PQC:
            return len(key) == 1952
        if scheme is SchemeId.ECDSA:  # the only secp256k1 PEMs drawn are the pool's
            return key in {k.public_key for k in _keys(SchemeId.ECDSA)}
        return key != b""

    def register(self, address, key, scheme) -> tuple:
        """(verified, gas) of a registration."""
        stored = address not in self.registry and self.key_ok(key, scheme)
        if stored:
            self.registry[address] = (key, scheme)
        g = self.gas
        return stored, g.g_base + g.g_byte * len(key) + g.g_store * -(-len(key) // 32) * stored

    def submit(self, kind, address, round_, update_hash, sig, honest) -> tuple:
        """(verified, gas) of a submit, or None if it must raise; ``honest``
        says the signature bytes are the registered signer's own."""
        if not -2**63 <= round_ < 2**63:  # the transaction hash packs an int64 round
            return None
        scheme = self.registry.get(address, (None, None))[1]
        table, slot = ((self.updates.get(round_, {}), address) if kind is TxKind.SUBMIT_UPDATE
                       else (self.aggregations, round_))
        stored = (sig.scheme is scheme and honest and len(update_hash) == HASH_BYTES
                  and slot not in table)
        if stored:
            table[slot] = update_hash
            if kind is TxKind.SUBMIT_UPDATE:
                self.updates[round_] = table
        g = self.gas
        payload = len(update_hash) + len(sig.bytes)
        return stored, (g.g_base + g.g_byte * max(payload, HASH_BYTES) + g.g_store * stored
                        + g.g_verify.get(sig.scheme, 0))


def _signer(scheme: SchemeId, key: bytes):
    """The key pair that signs for ``key`` under ``scheme``; NONE reads no key."""
    return next(k for k in _keys(scheme) if k.public_key == key or scheme is SchemeId.NONE)


class LedgerMachine(RuleBasedStateMachine):
    """The ledger and its oracle, driven over the schemes in ``SCHEMES``."""

    SCHEMES = (SchemeId.NONE, SchemeId.ECDSA)

    def __init__(self):
        super().__init__()
        self.ledger = SimulatedLedger()
        self.oracle = Oracle(self.ledger.gas)
        self.pending = []  # receipts of the transactions the next block holds

    def _snapshot(self):
        state = self.ledger.state
        return (dict(state.registry), {r: dict(t) for r, t in state.verified_updates.items()},
                dict(state.aggregation_records), list(self.ledger._pending),
                len(self.ledger.chain.blocks))

    def _check(self, receipt, expected):
        assert (receipt.verified, receipt.gas_used) == expected
        assert receipt.block_height == len(self.ledger.chain.blocks)
        self.pending.append(receipt)

    @rule(data=st.data(), address=st.sampled_from(ADDRESSES))
    def register_client(self, data, address):
        scheme = data.draw(st.sampled_from(self.SCHEMES))
        own = [k.public_key for k in _keys(scheme)]
        others = [k.public_key for s in self.SCHEMES if s is not scheme for k in _keys(s)]
        key = data.draw(_mostly(
            st.sampled_from(own), st.sampled_from(others), st.binary(max_size=40),
            st.sampled_from([b"\x01" * 1951, b"\x01" * 1953, X25519_PEM])))
        receipt = self.ledger.register_client(address, key, scheme)
        self._check(receipt, self.oracle.register(address, key, scheme))

    @rule(**SUBMIT_DRAWS)
    def submit_update(self, **draws):
        self._submit(TxKind.SUBMIT_UPDATE, **draws)

    @rule(**SUBMIT_DRAWS)
    def submit_aggregation(self, **draws):
        self._submit(TxKind.SUBMIT_AGGREGATION, **draws)

    def _submit(self, kind, data, address, round_, update_hash, form):
        key, scheme = self.ledger.state.registry.get(address, (None, None))
        if scheme is None:  # an unregistered sender signs under any scheme
            scheme = data.draw(st.sampled_from(self.SCHEMES))
            key = _keys(scheme)[0].public_key
        sig = sign(_signer(scheme, key), update_hash)
        other = data.draw(st.sampled_from([s for s in self.SCHEMES if s is not scheme]))
        if form == "flipped":
            bit = data.draw(st.integers(0, 8 * len(sig.bytes) - 1))
            flipped = bytearray(sig.bytes)
            flipped[bit // 8] ^= 1 << (bit % 8)
            sig = Signature(scheme, bytes(flipped))
        elif form == "retagged":  # the signer's own bytes under another scheme's tag
            sig = Signature(other, sig.bytes)
        elif form == "other-scheme":
            tag = data.draw(st.sampled_from([scheme, other]))
            sig = Signature(tag, sign(_keys(other)[0], update_hash).bytes)
        elif form == "garbage":
            sig = Signature(scheme, data.draw(st.binary(max_size=40)))
        expected = self.oracle.submit(kind, address, round_, update_hash, sig,
                                      form in ("valid", "retagged"))
        call = getattr(self.ledger, kind.name.lower())
        if expected is None:
            before = self._snapshot()
            with pytest.raises(struct.error):  # the round does not fit an int64
                call(address, round_, update_hash, sig)
            assert self._snapshot() == before
            return
        self._check(call(address, round_, update_hash, sig), expected)

    @rule()
    def mine_block(self):
        block = self.ledger.mine_block()
        assert block.height == len(self.ledger.chain.blocks) - 1
        assert block.tx_hashes == b"".join(r.tx_hash for r in self.pending)
        assert all(r.block_height == block.height for r in self.pending)
        self.pending = []
        assert chain_verify(self.ledger.chain).intact

    @invariant()
    def contract_matches_oracle(self):
        state = self.ledger.state
        assert state.registry == self.oracle.registry
        assert {r: {a: tx.update_hash for a, tx in t.items()}
                for r, t in state.verified_updates.items()} == self.oracle.updates
        assert {r: tx.update_hash
                for r, tx in state.aggregation_records.items()} == self.oracle.aggregations


class PqcLedgerMachine(LedgerMachine):
    """All three schemes; ML-DSA signing costs milliseconds, so it runs fewer examples."""

    SCHEMES = tuple(SchemeId)


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(max_examples=40, stateful_step_count=50, deadline=None)
TestPqcLedgerMachine = PqcLedgerMachine.TestCase
TestPqcLedgerMachine.settings = settings(max_examples=10, stateful_step_count=30, deadline=None)
