"""Simulated blockchain with smart-contract semantics for update verification.

The ledger is a single serial state machine: a key registry, on-chain
signature verification of submitted update hashes, EVM-style gas metering,
and an append-only hash chain of blocks with instant finality. There is no
consensus and no networking; submission order is application order, which
makes every state transition deterministic given the transaction sequence.

The contract's rules live in one state-transition function,
:meth:`ContractState.apply`, which both the live ledger and
:func:`chain_verify` run. Each block commits to the state its transactions
produce with a running root (as in Ethereum, a block commits to its
post-state and a full node checks that by re-executing the block)::

    state_root[h] = sha3_256(state_root[h - 1] || records written in block h)

starting from 32 zero bytes before genesis. A record is an injective
encoding of one write (a registration with its scheme, a verified update
hash, or an aggregation record); records are write-once, so the sequence of
roots commits to the whole state without storing it per block.

A block is a header plus a body, as in Bitcoin and Ethereum: the header
(height, parent digest, the body's 32-byte transaction hashes packed into
one field, state root, timestamp) is what :meth:`Block.encode` and the
block hash cover, and the body is the block's transactions in order. Time
is logical: a block's timestamp is its height, so the chain head is a
function of the transaction sequence alone, and of the master seed alone
for a protocol run. :func:`chain_verify` checks each body against its
header's packed hashes, replays the bodies from an empty state and compares
each recomputed root with the block's.

Verified updates are stored the way contract storage lays out a nested
mapping: ``verified_updates[round][address] -> transaction``. A round's
inner table is created by its first verified update, so a rejected
transaction writes nothing, not even an empty round entry. A slot holds
the submitting transaction, read through :attr:`Transaction.update_hash`,
so the live contract and a replay store no object per verified update.

Gas for a transaction follows an affine cost model::

    gas = g_base + g_byte * len(payload) + g_store * records_written
          + g_verify[scheme]            (submit transactions only)

The per-scheme verification surcharge g_verify is free to calibrate:
:func:`calibrate_gas` solves it so submit-transaction totals reproduce
externally measured targets exactly. Failed transactions, malformed ones
included, still consume gas (EVM convention) but write no state. Records
are write-once: duplicate registrations or resubmissions for an
already-verified slot are rejected.
"""

import enum
import hashlib
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import _mldsa_keyexpand
from .errors import InfeasibleCalibration
from .sigsuite import HASH_BYTES, SchemeId, Signature, verify

__all__ = [
    "TxKind",
    "TxStatus",
    "Transaction",
    "Receipt",
    "GasModel",
    "Block",
    "ContractState",
    "Chain",
    "SimulatedLedger",
    "calibrate_gas",
    "chain_verify",
    "export_chain",
    "DEFAULT_GAS_TARGETS",
    "CALIBRATION_SIG_SIZES",
    "DEFAULT_LATENCY_S",
]

ADDRESS_BYTES = 32
_ZERO32 = bytes(32)

# Calibration defaults: measured submit-transaction gas totals per scheme,
# and the nominal signature sizes those measurements were taken with (DER
# ECDSA signatures vary per signature; 71 bytes is the average).
DEFAULT_GAS_TARGETS = {
    SchemeId.PQC: 1_724_100,
    SchemeId.ECDSA: 188_900,
    SchemeId.NONE: 173_650,
}
CALIBRATION_SIG_SIZES = {
    SchemeId.PQC: _mldsa_keyexpand.SIGNATURE_BYTES,
    SchemeId.ECDSA: 71,
    SchemeId.NONE: 32,
}
# Default constant confirmation latency per scheme, seconds.
DEFAULT_LATENCY_S = {
    SchemeId.PQC: 0.32,
    SchemeId.ECDSA: 0.12,
    SchemeId.NONE: 0.11,
}


class TxKind(enum.Enum):
    REGISTER = "REGISTER"
    SUBMIT_UPDATE = "SUBMIT_UPDATE"
    SUBMIT_AGGREGATION = "SUBMIT_AGGREGATION"


class TxStatus(enum.Enum):
    VERIFIED = "VERIFIED"
    REJECTED = "REJECTED"


_KIND_CODE = {kind: i for i, kind in enumerate(TxKind)}
_SCHEME_CODE = {scheme: i for i, scheme in enumerate(SchemeId)}


@dataclass(frozen=True, slots=True)
class Transaction:
    """One ledger transaction; payload is pk bytes (REGISTER) or
    hash || signature (SUBMIT_*), as :meth:`registration` and
    :meth:`submission` lay them out.

    A registration needs a non-empty key. A submit payload may have any
    length, empty included: the contract rejects one too short to hold a
    32-byte hash, so a client cannot make a transaction fail to form.
    """

    kind: TxKind
    sender: bytes
    round: int
    payload: bytes
    scheme: SchemeId

    def __post_init__(self):
        if len(self.sender) != ADDRESS_BYTES:
            raise ValueError(f"sender must be {ADDRESS_BYTES} bytes")
        if self.kind is TxKind.REGISTER and not self.payload:
            raise ValueError("registration payload must be non-empty")

    @property
    def update_hash(self) -> bytes | None:
        """A submit's payload prefix that holds the hash, None for a registration."""
        return None if self.kind is TxKind.REGISTER else self.payload[:HASH_BYTES]

    @classmethod
    def registration(cls, address: bytes, public_key: bytes, scheme: SchemeId) -> "Transaction":
        return cls(TxKind.REGISTER, address, -1, public_key, scheme)  # round -1: setup

    @classmethod
    def submission(cls, kind: TxKind, address: bytes, round_: int,
                   update_hash: bytes, sig: Signature) -> "Transaction":
        return cls(kind, address, round_, update_hash + sig.bytes, sig.scheme)

    def tx_hash(self) -> bytes:
        """SHA3-256 of the packed head, then the payload, then the scheme name."""
        h = hashlib.sha3_256(struct.pack(
            "<B32sqI", _KIND_CODE[self.kind], self.sender, self.round, len(self.payload)
        ))
        h.update(self.payload)
        h.update(self.scheme.value.encode())
        return h.digest()


@dataclass(frozen=True, slots=True)
class Receipt:
    tx_hash: bytes
    status: TxStatus
    gas_used: int
    confirm_time_s: float
    block_height: int
    verify_ms: float = 0.0  # instrumentation: wall time of the contract call

    @property
    def verified(self) -> bool:
        return self.status is TxStatus.VERIFIED


@dataclass(frozen=True)
class GasModel:
    """Affine transaction cost model; all components nonnegative."""

    g_base: int = 21_000
    g_byte: int = 16
    g_store: int = 20_000
    g_verify: dict = field(default_factory=dict)  # SchemeId -> surcharge

    def register_gas(self, pk_len: int) -> int:
        records = -(-pk_len // 32)  # ceil: one storage slot per 32 bytes
        return self.g_base + self.g_byte * pk_len + self.g_store * records

    def submit_gas(self, scheme: SchemeId, sig_len: int, stored: bool) -> int:
        return (
            self.g_base
            + self.g_byte * (HASH_BYTES + sig_len)
            + self.g_store * (1 if stored else 0)
            + self.g_verify.get(scheme, 0)
        )


def calibrate_gas(targets: dict = None) -> GasModel:
    """Solve per-scheme verification surcharges so that a stored submit
    transaction with the nominal signature size
    (:data:`CALIBRATION_SIG_SIZES`) costs exactly ``targets[s]``.

    g_base/g_byte/g_store stay at their defaults. Raises
    :class:`InfeasibleCalibration` if any surcharge would go negative.
    """
    targets = DEFAULT_GAS_TARGETS if targets is None else targets
    base = GasModel()
    g_verify = {}
    for scheme, total in targets.items():
        if total <= 0:
            raise InfeasibleCalibration(f"{scheme}: target must be positive")
        fixed = base.submit_gas(scheme, CALIBRATION_SIG_SIZES[scheme], stored=True)
        surcharge = total - fixed
        if surcharge < 0:
            raise InfeasibleCalibration(
                f"{scheme}: target {total} below fixed costs {fixed}"
            )
        g_verify[scheme] = surcharge
    return GasModel(base.g_base, base.g_byte, base.g_store, g_verify)


@dataclass(frozen=True, slots=True)
class Block:
    """A block header and its body. The header fields are what
    :meth:`encode` and :meth:`block_hash` cover; ``tx_hashes`` is the packed
    field the header encodes, the body's 32-byte transaction hashes joined
    in order, and ``transactions``, the body, holds those transactions."""

    height: int
    parent_hash: bytes
    tx_hashes: bytes
    state_root: bytes
    timestamp: float
    transactions: tuple = field(repr=False, compare=False)

    def encode(self) -> bytes:
        return b"".join((
            struct.pack("<q", self.height), self.parent_hash,
            struct.pack("<I", len(self.tx_hashes) // HASH_BYTES), self.tx_hashes,
            self.state_root, struct.pack("<d", self.timestamp),
        ))

    def block_hash(self) -> bytes:
        return hashlib.sha3_256(self.encode()).digest()


def _next_root(root: bytes, records) -> bytes:
    h = hashlib.sha3_256(root)
    for record in records:
        h.update(record)
    return h.digest()


class ContractState:
    """Registry, verified updates, and aggregation records.

    Changed only through :meth:`apply`; keys are write-once. Verified
    updates are kept per round, ``round -> {address -> transaction}``; a
    round appears only once one of its updates has been verified.
    """

    def __init__(self):
        self.registry: dict = {}            # address -> (pk bytes, SchemeId)
        self.verified_updates: dict = {}    # round -> {address -> SUBMIT_UPDATE tx}
        self.aggregation_records: dict = {} # round -> SUBMIT_AGGREGATION tx

    def apply(self, tx: Transaction) -> tuple:
        """The contract's state-transition function: execute ``tx``.

        Returns the 2-tuple ``(status, record)``. ``record`` is the
        injective encoding of what ``tx`` wrote (a kind byte, then
        fixed-width or length-prefixed fields), empty when it was rejected.

        A registration is rejected if the address already holds a key. A
        submit payload is a 32-byte hash followed by the signature; it is
        rejected when its scheme tag differs from the registered one, when
        the payload is too short to hold the hash, when the signature does
        not verify under the registered key, when its sender has no
        registered key, or when its slot (round and sender for updates, round
        for aggregations) is taken. A verified update lands in
        ``verified_updates[round][sender]``; the round's inner table is
        created then, so a rejected transaction leaves no round entry.
        """
        if tx.kind is TxKind.REGISTER:
            if tx.sender in self.registry:
                return TxStatus.REJECTED, b""
            self.registry[tx.sender] = (tx.payload, tx.scheme)
            record = struct.pack(
                "<B32sBI", _KIND_CODE[tx.kind], tx.sender,
                _SCHEME_CODE[tx.scheme], len(tx.payload),
            ) + tx.payload
            return TxStatus.VERIFIED, record

        # An unregistered sender has no scheme, so its tag never matches.
        public_key, scheme = self.registry.get(tx.sender, (None, None))
        if tx.scheme is not scheme or len(tx.payload) < HASH_BYTES:
            return TxStatus.REJECTED, b""
        update_hash = tx.update_hash
        sig = Signature(scheme, tx.payload[HASH_BYTES:])
        valid = verify(public_key, scheme, update_hash, sig)

        if tx.kind is TxKind.SUBMIT_UPDATE:
            table, slot = self.verified_updates.get(tx.round, {}), tx.sender
        else:
            table, slot = self.aggregation_records, tx.round
        if not valid or slot in table:
            return TxStatus.REJECTED, b""
        table[slot] = tx
        if tx.kind is TxKind.SUBMIT_UPDATE:  # a round's first verified update stores its table
            self.verified_updates[tx.round] = table
            record = struct.pack(
                "<Bq32s32s", _KIND_CODE[tx.kind], tx.round, tx.sender, update_hash
            )
        else:
            record = struct.pack("<Bq32s", _KIND_CODE[tx.kind], tx.round, update_hash)
        return TxStatus.VERIFIED, record


@dataclass
class Chain:
    """Append-only block chain; each block carries its transactions.

    Each block's ``state_root`` folds the records its transactions wrote
    into the previous block's root, so the chain stores no state: replaying
    the block bodies in order rebuilds it (see :func:`chain_verify`).
    """

    blocks: list = field(default_factory=list)
    head_hash: bytes = _ZERO32

    @property
    def height(self) -> int:
        return len(self.blocks) - 1


@dataclass(frozen=True)
class ChainCheck:
    intact: bool
    broken_height: int | None = None


class SimulatedLedger:
    """Smart-contract host: applies transactions serially and mines blocks.

    Every contract call returns a :class:`Receipt`; gas is charged whether or
    not the call succeeds. Processed transactions wait in a pending list,
    with their hashes and the records they wrote, and are packaged FIFO into
    the next mined block, which keeps them as its body. ``latency`` is the
    ``(low, high)`` bounds of each receipt's confirmation time in seconds:
    exactly ``low`` when the bounds are equal, otherwise one uniform draw
    from the ledger's ``rng_seed`` stream.
    """

    def __init__(
        self,
        gas_model: GasModel = None,
        latency: tuple = (0.0, 0.0),
        rng_seed: int = 0,
    ):
        self.gas = calibrate_gas() if gas_model is None else gas_model
        self.latency = latency
        self.state = ContractState()
        self.chain = Chain()
        self._rng = np.random.default_rng(rng_seed)
        self._pending: list = []  # (tx, tx_hash, record written) per transaction
        genesis = Block(
            height=0,
            parent_hash=_ZERO32,
            tx_hashes=b"",
            state_root=_next_root(_ZERO32, ()),
            timestamp=0.0,
            transactions=(),
        )
        self.chain.blocks.append(genesis)
        self.chain.head_hash = genesis.block_hash()

    def _execute(self, tx: Transaction) -> Receipt:
        """Apply ``tx``, queue it for the next block, and charge its gas."""
        t0 = time.perf_counter()
        status, record = self.state.apply(tx)
        verify_ms = (time.perf_counter() - t0) * 1e3
        tx_hash = tx.tx_hash()
        self._pending.append((tx, tx_hash, record))
        if tx.kind is TxKind.REGISTER:
            gas = self.gas.register_gas(len(tx.payload))
        else:
            gas = self.gas.submit_gas(
                tx.scheme, max(0, len(tx.payload) - HASH_BYTES),
                status is TxStatus.VERIFIED,
            )
        low, high = self.latency
        return Receipt(
            tx_hash=tx_hash,
            status=status,
            gas_used=gas,
            confirm_time_s=low if low == high else float(self._rng.uniform(low, high)),
            block_height=len(self.chain.blocks),
            verify_ms=verify_ms,
        )

    def register_client(self, address: bytes, public_key: bytes, scheme: SchemeId) -> Receipt:
        """Store a client's public key; duplicate registration is rejected
        (gas still charged) and never replaces the existing key."""
        return self._execute(Transaction.registration(address, public_key, scheme))

    def submit_update(self, address: bytes, round_: int,
                      update_hash: bytes, sig: Signature) -> Receipt:
        """Verify a client's signed update hash on-chain; record it if valid.

        Invalid signatures, scheme tags other than the registered one, hashes
        that are not 32 bytes (the payload's fixed hash field then takes the
        wrong bytes, so verification fails, or the payload is too short to
        hold it) and write-once violations yield REJECTED receipts, charged
        gas, with no state change; so does a sender with no registered key.
        A payload under 32 bytes, an empty one included, is charged as if it
        carried an empty signature.
        """
        return self._execute(
            Transaction.submission(TxKind.SUBMIT_UPDATE, address, round_, update_hash, sig)
        )

    def submit_aggregation(self, address: bytes, round_: int,
                           update_hash: bytes, sig: Signature) -> Receipt:
        """Same semantics as :meth:`submit_update`, recording the round's
        aggregated-model hash instead (one record per round)."""
        return self._execute(
            Transaction.submission(TxKind.SUBMIT_AGGREGATION, address, round_, update_hash, sig)
        )

    def mine_block(self) -> Block:
        """Package all pending transactions FIFO into a new block, which
        keeps them as its body and their hashes joined into one packed
        header field.

        Its state root folds the records they wrote into the previous
        block's root, so mining costs time in the block's size, not the
        chain's. Its timestamp is its height (logical time), so the head
        hash depends on nothing but the transaction sequence.
        """
        pending, self._pending = self._pending, []
        height = len(self.chain.blocks)
        block = Block(
            height=height,
            parent_hash=self.chain.head_hash,
            tx_hashes=b"".join(tx_hash for _, tx_hash, _ in pending),
            state_root=_next_root(
                self.chain.blocks[-1].state_root, (r for _, _, r in pending)
            ),
            timestamp=float(height),
            transactions=tuple(tx for tx, _, _ in pending),
        )
        self.chain.blocks.append(block)
        self.chain.head_hash = block.block_hash()
        return block


def chain_verify(chain: Chain) -> ChainCheck:
    """Replay the chain from genesis and recheck every hash link and root.

    Starting from an empty :class:`ContractState`, re-executes each block's
    body in order through :meth:`ContractState.apply`, which re-verifies
    every submit signature against the registry the replay has built, and
    folds the records they write into the running root.

    Returns intact only if every block has its index as height, links to
    the previous block's digest, carries a body whose transaction hashes,
    joined in order, equal its packed ``tx_hashes`` byte for byte (so a
    missing, extra or reordered hash or a stray byte fails too), and carries
    the replayed state root, and the last block hashes to the chain's
    recorded head hash.
    Otherwise ``broken_height`` is the first height that fails. A submit from an
    address the replay has not registered replays as rejected, so a chain
    whose block claims it wrote a record fails at that block's root.
    """
    if not chain.blocks:
        raise ValueError("chain is empty")
    state = ContractState()
    root = _ZERO32
    for i, block in enumerate(chain.blocks):
        expected_parent = _ZERO32 if i == 0 else chain.blocks[i - 1].block_hash()
        if block.height != i or block.parent_hash != expected_parent:
            return ChainCheck(False, i)
        body = block.transactions
        if b"".join(tx.tx_hash() for tx in body) != block.tx_hashes:
            return ChainCheck(False, i)
        root = _next_root(root, (state.apply(tx)[1] for tx in body))
        if block.state_root != root:
            return ChainCheck(False, i)
    if chain.blocks[-1].block_hash() != chain.head_hash:
        return ChainCheck(False, len(chain.blocks) - 1)
    return ChainCheck(True, None)


def export_chain(chain: Chain) -> str:
    """Newline-delimited records, one block per line, digests hex-encoded;
    the packed ``tx_hashes`` field is split into a list of 32-byte hashes."""
    lines = []
    for block in chain.blocks:
        hexed = block.tx_hashes.hex()
        lines.append(json.dumps({
            "height": block.height,
            "parent_hash": block.parent_hash.hex(),
            "block_hash": block.block_hash().hex(),
            "tx_hashes": [hexed[j:j + 64] for j in range(0, len(hexed), 64)],
            "state_root": block.state_root.hex(),
            "timestamp": block.timestamp,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"
