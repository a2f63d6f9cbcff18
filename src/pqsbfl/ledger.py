"""Simulated blockchain with smart-contract semantics for update verification.

The ledger is a single serial state machine: a key registry, on-chain
signature verification of submitted update hashes, EVM-style gas metering,
and an append-only hash chain of blocks with instant finality. There is no
consensus and no networking; submission order is application order, which
makes every state transition deterministic given the transaction sequence.

Gas for a transaction follows an affine cost model::

    gas = g_base + g_byte * len(payload) + g_store * records_written
          + g_verify[scheme]            (submit transactions only)

The per-scheme verification surcharge g_verify is free to calibrate:
:func:`calibrate_gas` solves it so submit-transaction totals reproduce
externally measured targets exactly. Failed transactions still consume gas
(EVM convention) but write no state. Records are write-once: duplicate
registrations or resubmissions for an already-verified slot are rejected.
"""

import enum
import hashlib
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import _mldsa_keyexpand
from .errors import InfeasibleCalibration, SchemeMismatch, UnregisteredClient
from .sigsuite import HASH_BYTES, SchemeId, Signature, verify

__all__ = [
    "TxKind",
    "TxStatus",
    "Transaction",
    "Receipt",
    "GasModel",
    "ConstantLatency",
    "UniformLatency",
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


@dataclass(frozen=True)
class Transaction:
    """One ledger transaction; payload is pk bytes (REGISTER) or
    hash || signature (SUBMIT_*)."""

    kind: TxKind
    sender: bytes
    round: int
    payload: bytes
    scheme: SchemeId

    def __post_init__(self):
        if len(self.sender) != ADDRESS_BYTES:
            raise ValueError(f"sender must be {ADDRESS_BYTES} bytes")
        if not self.payload:
            raise ValueError("payload must be non-empty")
        if self.kind is not TxKind.REGISTER and len(self.payload) < HASH_BYTES:
            raise ValueError("submit payload must begin with a 32-byte hash")

    def encode(self) -> bytes:
        head = struct.pack(
            "<B32sqI",
            list(TxKind).index(self.kind),
            self.sender,
            self.round,
            len(self.payload),
        )
        return head + self.payload + self.scheme.value.encode()

    def tx_hash(self) -> bytes:
        return hashlib.sha3_256(self.encode()).digest()


@dataclass(frozen=True)
class Receipt:
    tx_hash: bytes
    status: TxStatus
    gas_used: int
    confirm_time_s: float
    block_height: int
    verify_ms: float = 0.0  # instrumentation: wall time of the verify call

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


def calibrate_gas(
    targets: dict = None, sig_sizes: dict = None, base: GasModel = None
) -> GasModel:
    """Solve per-scheme verification surcharges so that a stored submit
    transaction with the nominal signature size costs exactly ``targets[s]``.

    g_base/g_byte/g_store stay at their defaults (or ``base``'s values).
    Raises :class:`InfeasibleCalibration` if any surcharge would go negative.
    """
    targets = DEFAULT_GAS_TARGETS if targets is None else targets
    sig_sizes = CALIBRATION_SIG_SIZES if sig_sizes is None else sig_sizes
    base = GasModel() if base is None else base
    g_verify = {}
    for scheme, total in targets.items():
        if total <= 0:
            raise InfeasibleCalibration(f"{scheme}: target must be positive")
        fixed = (
            base.g_base
            + base.g_byte * (HASH_BYTES + sig_sizes[scheme])
            + base.g_store
        )
        surcharge = total - fixed
        if surcharge < 0:
            raise InfeasibleCalibration(
                f"{scheme}: target {total} below fixed costs {fixed}"
            )
        g_verify[scheme] = surcharge
    return GasModel(base.g_base, base.g_byte, base.g_store, g_verify)


@dataclass(frozen=True)
class ConstantLatency:
    """Every transaction confirms after exactly ``seconds``."""

    seconds: float

    def sample(self, rng) -> float:
        return self.seconds


@dataclass(frozen=True)
class UniformLatency:
    """Confirmation time drawn uniformly from [low, high] seconds."""

    low: float
    high: float

    def sample(self, rng) -> float:
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class Block:
    height: int
    parent_hash: bytes
    tx_hashes: tuple
    state_root: bytes
    timestamp: float

    def encode(self) -> bytes:
        out = bytearray(struct.pack("<q", self.height))
        out += self.parent_hash
        out += struct.pack("<I", len(self.tx_hashes))
        for h in self.tx_hashes:
            out += h
        out += self.state_root
        out += struct.pack("<d", self.timestamp)
        return bytes(out)

    def block_hash(self) -> bytes:
        return hashlib.sha3_256(self.encode()).digest()


class ContractState:
    """Registry, verified update hashes, and aggregation records.

    Mutated only through the three ledger operations; keys are write-once.
    """

    def __init__(self):
        self.registry: dict = {}            # address -> (pk bytes, SchemeId)
        self.verified_updates: dict = {}    # (round, address) -> 32-byte hash
        self.aggregation_records: dict = {} # round -> 32-byte hash

    def serialize(self) -> bytes:
        """Canonical byte encoding (sorted keys, hex values) for state roots."""
        doc = {
            "registry": {
                addr.hex(): [pk.hex(), scheme.value]
                for addr, (pk, scheme) in sorted(self.registry.items())
            },
            "verified_updates": {
                f"{rnd}:{addr.hex()}": h.hex()
                for (rnd, addr), h in sorted(self.verified_updates.items())
            },
            "aggregation_records": {
                str(rnd): h.hex()
                for rnd, h in sorted(self.aggregation_records.items())
            },
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    def state_root(self) -> bytes:
        return hashlib.sha3_256(self.serialize()).digest()


@dataclass
class Chain:
    """Append-only block chain plus the data needed to re-verify it."""

    blocks: list = field(default_factory=list)
    head_hash: bytes = _ZERO32
    tx_store: dict = field(default_factory=dict)       # tx_hash -> Transaction
    state_snapshots: list = field(default_factory=list)  # serialized state per block

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
    not the call succeeds. Processed transactions wait in a pending list and
    are packaged FIFO into the next mined block.
    """

    def __init__(
        self,
        gas_model: GasModel = None,
        latency: object = None,
        rng_seed: int = 0,
        clock=time.time,
    ):
        self.gas = calibrate_gas() if gas_model is None else gas_model
        self.latency = ConstantLatency(0.0) if latency is None else latency
        self.state = ContractState()
        self.chain = Chain()
        self._rng = np.random.default_rng(rng_seed)
        self._clock = clock
        self._pending: list = []
        self._mine_genesis()

    def _mine_genesis(self):
        genesis = Block(
            height=0,
            parent_hash=_ZERO32,
            tx_hashes=(),
            state_root=self.state.state_root(),
            timestamp=0.0,
        )
        self.chain.blocks.append(genesis)
        self.chain.state_snapshots.append(self.state.serialize())
        self.chain.head_hash = genesis.block_hash()

    def latency_sample(self) -> float:
        return self.latency.sample(self._rng)

    def _receipt(self, tx: Transaction, status, gas, verify_ms=0.0) -> Receipt:
        self._pending.append(tx)
        self.chain.tx_store[tx.tx_hash()] = tx
        return Receipt(
            tx_hash=tx.tx_hash(),
            status=status,
            gas_used=gas,
            confirm_time_s=self.latency_sample(),
            block_height=len(self.chain.blocks),
            verify_ms=verify_ms,
        )

    def register_client(self, address: bytes, public_key: bytes, scheme: SchemeId) -> Receipt:
        """Store a client's public key; duplicate registration is rejected
        (gas still charged) and never replaces the existing key."""
        tx = Transaction(TxKind.REGISTER, address, -1, public_key, scheme)
        gas = self.gas.register_gas(len(public_key))
        if address in self.state.registry:
            return self._receipt(tx, TxStatus.REJECTED, gas)
        self.state.registry[address] = (public_key, scheme)
        return self._receipt(tx, TxStatus.VERIFIED, gas)

    def _submit(self, kind: TxKind, address: bytes, round_: int,
                update_hash: bytes, sig: Signature) -> Receipt:
        if len(update_hash) != HASH_BYTES:
            raise ValueError(f"update hash must be {HASH_BYTES} bytes")
        if address not in self.state.registry:
            raise UnregisteredClient(f"address {address.hex()[:16]}… not registered")
        public_key, registered_scheme = self.state.registry[address]
        if sig.scheme is not registered_scheme:
            raise SchemeMismatch(
                f"registered {registered_scheme}, signature is {sig.scheme}"
            )

        tx = Transaction(kind, address, round_, update_hash + sig.bytes, sig.scheme)

        t0 = time.perf_counter()
        valid = verify(public_key, registered_scheme, update_hash, sig)
        verify_ms = (time.perf_counter() - t0) * 1e3

        if kind is TxKind.SUBMIT_UPDATE:
            slot_free = (round_, address) not in self.state.verified_updates
        else:
            slot_free = round_ not in self.state.aggregation_records

        stored = valid and slot_free
        gas = self.gas.submit_gas(sig.scheme, len(sig.bytes), stored)
        if not stored:
            return self._receipt(tx, TxStatus.REJECTED, gas, verify_ms)

        if kind is TxKind.SUBMIT_UPDATE:
            self.state.verified_updates[(round_, address)] = update_hash
        else:
            self.state.aggregation_records[round_] = update_hash
        return self._receipt(tx, TxStatus.VERIFIED, gas, verify_ms)

    def submit_update(self, address: bytes, round_: int,
                      update_hash: bytes, sig: Signature) -> Receipt:
        """Verify a client's signed update hash on-chain; record it if valid.

        Invalid signatures and write-once violations yield REJECTED receipts
        with no state change. Unknown senders and scheme disagreements raise.
        """
        return self._submit(TxKind.SUBMIT_UPDATE, address, round_, update_hash, sig)

    def submit_aggregation(self, address: bytes, round_: int,
                           update_hash: bytes, sig: Signature) -> Receipt:
        """Same semantics as :meth:`submit_update`, recording the round's
        aggregated-model hash instead (one record per round)."""
        return self._submit(TxKind.SUBMIT_AGGREGATION, address, round_, update_hash, sig)

    def mine_block(self, timestamp: float = None) -> Block:
        """Package all pending transactions FIFO into a new block."""
        block = Block(
            height=len(self.chain.blocks),
            parent_hash=self.chain.head_hash,
            tx_hashes=tuple(tx.tx_hash() for tx in self._pending),
            state_root=self.state.state_root(),
            timestamp=self._clock() if timestamp is None else timestamp,
        )
        self._pending = []
        self.chain.blocks.append(block)
        self.chain.state_snapshots.append(self.state.serialize())
        self.chain.head_hash = block.block_hash()
        return block


def chain_verify(chain: Chain) -> ChainCheck:
    """Recompute every hash link, transaction hash, and state root.

    Returns intact only if every block's parent link matches the previous
    block's digest (the head is checked against the chain's recorded head
    hash), every stored transaction re-hashes to its listed id, and every
    state root matches its retained state snapshot.
    """
    if not chain.blocks:
        raise ValueError("chain is empty")
    for i, block in enumerate(chain.blocks):
        expected_parent = _ZERO32 if i == 0 else chain.blocks[i - 1].block_hash()
        if block.height != i or block.parent_hash != expected_parent:
            return ChainCheck(False, i)
        for txh in block.tx_hashes:
            tx = chain.tx_store.get(txh)
            if tx is None or tx.tx_hash() != txh:
                return ChainCheck(False, i)
        if i < len(chain.state_snapshots):
            snap_root = hashlib.sha3_256(chain.state_snapshots[i]).digest()
            if block.state_root != snap_root:
                return ChainCheck(False, i)
    if chain.blocks[-1].block_hash() != chain.head_hash:
        return ChainCheck(False, len(chain.blocks) - 1)
    return ChainCheck(True, None)


def export_chain(chain: Chain) -> str:
    """Newline-delimited records, one block per line, digests hex-encoded."""
    lines = []
    for block in chain.blocks:
        lines.append(
            json.dumps(
                {
                    "height": block.height,
                    "parent_hash": block.parent_hash.hex(),
                    "block_hash": block.block_hash().hex(),
                    "tx_hashes": [h.hex() for h in block.tx_hashes],
                    "state_root": block.state_root.hex(),
                    "timestamp": block.timestamp,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"
