"""End-to-end protocol: init, signed federated rounds, and metrics.

Each experiment runs the full update-authentication loop. During
initialization every client (and the aggregator) generates a key pair and
registers it. Each round then runs in phases, each over all clients in
client order: train on the broadcast global model, digest the canonical
model bytes, sign the digests, pass the submissions through the optional
tamper hook, submit them for verification, and bind each verified hash to
its off-chain parameters; then aggregate, evaluate, submit the aggregation
record and mine. The aggregator only averages updates whose hashes were
verified and whose off-chain parameters re-digest to the verified hash, so
any in-flight tampering excludes that client from the round.

Both submission modes send every signed hash through the simulated
ledger's smart contract, which returns a receipt and mines one block per
round. The ledger keeps no time: every transaction of a run confirms after
one constant latency, ``config.latency`` when set, else a per-scheme default
with a blockchain and 50 ms without one ("NoBC"), where the same ledger also
charges zero gas and the aggregator records no aggregation hash. Delays are
accounted arithmetically, never slept, so runs stay fast. A round's simulated
latency is one update's confirmation plus the aggregation's, since all of
its updates share one block. The wall-clock fields are ``compute_time_s``
(the whole round), ``mean_sign_ms`` (the sign phase over the client count)
and ``mean_verify_ms`` (the submit phase, contract verification included,
over the client count); ``round_time_s`` adds the simulated latency.

Learning is deliberately independent of the signature scheme: all training
randomness derives from the master seed alone, so for a fixed seed the
per-round global models are bit-identical across PQC/ECDSA/NONE and across
blockchain modes. That invariant is the cheapest strong regression oracle
this system has, and the test suite leans on it.
"""

import hashlib
import math
import operator
import statistics
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fedcore, sigsuite
from .errors import InfeasibleCalibration, LayoutMismatch, NoVerifiedUpdates, ValidationError
from .fedcore import ClientUpdate, ModelParams, TrainConfig
from .ledger import DEFAULT_GAS_TARGETS, GasModel, SimulatedLedger, calibrate_gas
from .sigsuite import KeyPair, SchemeId, Signature

__all__ = [
    "ExperimentConfig",
    "RoundMetrics",
    "ExperimentReport",
    "SystemState",
    "ClientSubmission",
    "init_phase",
    "run_round",
    "run_experiment",
    "overhead_ratio",
    "derive_seed",
    "SUMMARY_FIELDS",
    "TIMING_FIELDS",
    "DEFAULT_LATENCY_S",
    "NOBC_LATENCY_S",
]

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, *tags) -> int:
    """Stable 64-bit stream seed for one named purpose under a master seed."""
    label = "/".join(str(t) for t in tags).encode()
    digest = hashlib.sha256(
        b"pqsbfl-stream:" + struct.pack("<Q", master_seed & _MASK64) + b":" + label
    ).digest()
    return int.from_bytes(digest[:8], "little")


def _client_address(client_id: int) -> bytes:
    """The address client ``client_id`` registers under."""
    return hashlib.sha3_256(b"client-address:" + struct.pack("<q", client_id)).digest()


_AGGREGATOR_ADDRESS = hashlib.sha3_256(b"aggregator-address").digest()
# Sender of every submission whose client id the run lacks; never registered.
_UNREGISTERED_ADDRESS = hashlib.sha3_256(b"unregistered-address").digest()


# Default confirmation latency per scheme with a blockchain, and without
# one, seconds.
DEFAULT_LATENCY_S = {
    SchemeId.PQC: 0.32,
    SchemeId.ECDSA: 0.12,
    SchemeId.NONE: 0.11,
}
NOBC_LATENCY_S = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    """One run in the dataset/scheme/clients/blockchain grid.

    ``dataset`` is either ``"synth"`` (built-in Gaussian-blob task) or
    ``"csv:<path>"``. ``name()`` renders the run's identity as
    ``dataset-crypto-Nc-BC|NoBC``, e.g. ``synth-PQC-3c-BC``.
    """

    dataset: str = "synth"
    scheme: SchemeId = SchemeId.PQC
    n_clients: int = 3
    rounds: int = 50
    blockchain: bool = True
    train: TrainConfig = field(default_factory=TrainConfig)
    gas_targets: dict = field(default_factory=lambda: dict(DEFAULT_GAS_TARGETS))
    # every transaction's confirmation seconds, in either mode; None: the
    # scheme's DEFAULT_LATENCY_S with a blockchain, NOBC_LATENCY_S without one
    latency: float | None = None
    master_seed: int = 0
    alpha: float = 0.5
    synth_samples: int = 2000
    synth_features: int = 20
    synth_classes: int = 5

    def dataset_label(self) -> str:
        if self.dataset.startswith("csv:"):
            stem = self.dataset[4:].rsplit("/", 1)[-1]
            return stem.rsplit(".", 1)[0] or "csv"
        return self.dataset

    def name(self) -> str:
        mode = "BC" if self.blockchain else "NoBC"
        return f"{self.dataset_label()}-{self.scheme.value}-{self.n_clients}c-{mode}"

    def violations(self) -> list:
        """Every violated constraint, empty when the config is valid."""
        out = []
        if self.n_clients < 1:
            out.append(f"n_clients must be >= 1, got {self.n_clients}")
        if self.rounds < 0:
            out.append(f"rounds must be >= 0, got {self.rounds}")
        # `not ... > 0` also rejects NaN; `math.isfinite` rejects infinity.
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            out.append(f"alpha must be finite and > 0, got {self.alpha}")
        if not isinstance(self.scheme, SchemeId):
            out.append(f"unknown scheme {self.scheme!r}")
        elif self.scheme not in self.gas_targets:
            out.append(f"no gas target for {self.scheme}")
        if not (self.dataset == "synth" or self.dataset.startswith("csv:")):
            out.append(f"dataset must be 'synth' or 'csv:<path>', got {self.dataset!r}")
        if self.train.local_epochs < 0:
            out.append("train.local_epochs must be >= 0")
        if self.train.batch_size < 1:
            out.append("train.batch_size must be >= 1")
        if not fedcore.valid_learning_rate(self.train.learning_rate):
            out.append("train.learning_rate must be finite and > 0 as float32")
        if self.synth_classes < 2 or self.synth_samples < self.synth_classes:
            out.append("need synth_samples >= synth_classes >= 2")
        if self.synth_features < 1:
            out.append("synth_features must be >= 1")
        for scheme, target in self.gas_targets.items():
            try:
                calibrate_gas({scheme: target})
            except InfeasibleCalibration as exc:
                out.append(f"gas target for {exc}")
            except KeyError:
                out.append(f"gas target for unknown scheme {scheme!r}")
        lat = self.latency  # a round reports it doubled, and overhead_ratio divides by it
        if lat is not None and not (lat == 0 or lat > 0 and max(2 * lat, 1 / lat) < math.inf):
            out.append(f"latency must be 0, or > 0 with a finite double and reciprocal, got {lat}")
        if not 0 <= self.master_seed <= _MASK64:
            out.append(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        return out

    def to_dict(self) -> dict:
        """Every field under its own name, JSON-ready, led by ``name``: the
        scheme and the ``gas_targets`` keys as scheme names, and the fixed
        ``train.optimizer``."""
        out = {"name": self.name(), **asdict(self)}
        out.update(
            scheme=self.scheme.value,
            gas_targets={s.value: t for s, t in self.gas_targets.items()},
        )
        out["train"]["optimizer"] = "ADAM"
        return out


@dataclass
class RoundMetrics:
    """Per-round measurements mirroring the benchmark report columns."""

    round: int
    accuracy: float
    round_time_s: float
    compute_time_s: float
    mean_sign_ms: float
    mean_verify_ms: float
    mean_gas_per_update: float
    total_gas: int
    overhead_ratio: float
    verified_count: int
    rejected_count: int
    model_digest: str  # hex SHA3-256 of the round's canonical global model


@dataclass(frozen=True)
class ClientSubmission:
    """What one client hands to the submission phase after signing."""

    client_id: int
    params: ModelParams
    digest: bytes
    sig: Signature


@dataclass
class SystemState:
    """Mutable world state of one experiment between rounds."""

    config: ExperimentConfig
    train_set: fedcore.Dataset
    test_set: fedcore.Dataset
    partitions: list
    global_params: ModelParams
    client_keys: list        # indexed by client id
    addresses: list          # likewise, as registered; one object per client
    aggregator_key: KeyPair
    ledger: SimulatedLedger  # charges zero gas without a blockchain
    initial_accuracy: float
    sig_bytes_total: int = 0  # over every submission sent, for the mean size
    sigs_sent: int = 0


def init_phase(config: ExperimentConfig) -> SystemState:
    """Key generation, registration, data build: run once per experiment.

    Validates the config up front (before any key generation), creates one
    key pair per client plus one for the aggregator in a single batch (under
    PQC one FIPS 204 expansion for all of them, with every key still
    cross-checked against the signing backend), registers them on the
    ledger in one block, and builds the dataset, the Dirichlet partitions,
    and the initial global model.
    """
    problems = config.violations()
    if problems:
        raise ValidationError(problems)

    master = config.master_seed
    if config.dataset == "synth":
        train_set, test_set = fedcore.generate_synthetic(
            derive_seed(master, "dataset"),
            config.synth_samples,
            config.synth_features,
            config.synth_classes,
        )
    else:
        full = fedcore.load_csv(config.dataset[4:])
        train_set, test_set = fedcore.split_train_test(full, derive_seed(master, "dataset"))

    partitions = fedcore.partition_dirichlet(
        train_set, config.n_clients, config.alpha, derive_seed(master, "partition")
    )
    global_params = fedcore.init_params(
        train_set.n_features, train_set.n_classes, derive_seed(master, "model-init")
    )

    keys = sigsuite.keygen_batch(
        config.scheme,
        [derive_seed(master, "keygen", cid) for cid in range(config.n_clients)]
        + [derive_seed(master, "keygen-aggregator")],
    )
    client_keys, aggregator_key = keys[:-1], keys[-1]

    ledger = SimulatedLedger(
        calibrate_gas(config.gas_targets) if config.blockchain else GasModel(0, 0, 0)
    )
    addresses = [_client_address(cid) for cid in range(config.n_clients)]
    for address, key in zip(addresses + [_AGGREGATOR_ADDRESS], keys):
        ledger.register_client(address, key.public_key, config.scheme)
    ledger.mine_block()

    return SystemState(
        config=config,
        train_set=train_set,
        test_set=test_set,
        partitions=partitions,
        global_params=global_params,
        client_keys=client_keys,
        addresses=addresses,
        aggregator_key=aggregator_key,
        ledger=ledger,
        initial_accuracy=fedcore.evaluate(global_params, test_set),
    )


def _latencies(config: ExperimentConfig) -> tuple:
    """The run's confirmation latency, and a round's: that one plus, with a
    blockchain, the aggregation's."""
    latency = config.latency
    if latency is None:
        latency = DEFAULT_LATENCY_S[config.scheme] if config.blockchain else NOBC_LATENCY_S
    return latency, latency + (latency if config.blockchain else 0.0)


def overhead_ratio(sign_ms: float, verify_ms: float, denominator_s: float) -> float:
    """Combined sign+verify time (converted to seconds) over a transaction
    time denominator; 0.0 for a zero denominator, as a zero-latency round
    reports. Raises :class:`ValueError` for a negative or NaN one."""
    if not denominator_s >= 0:
        raise ValueError(f"denominator must be >= 0, got {denominator_s}")
    return ((sign_ms + verify_ms) / 1e3) / denominator_s if denominator_s else 0.0


def _intake(sub, state: SystemState):
    """What a round reads of one message from the tamper hook: ``None`` if
    the hook dropped it, else ``(index, address, digest, sig, model)``.

    Every field is read through ``getattr``, so any object is a message. A
    malformed one (wrong scheme tag, hash of the wrong length, an empty one,
    a digest or signature missing or of the wrong type, a client id that is
    not an integer in ``[0, n)``) is rejected like a bad signature and
    excludes only its client: such a digest or signature is sent empty, and
    such a client id gets no index and the one address nothing registers,
    ``_UNREGISTERED_ADDRESS``. ``model`` is the parameters rebuilt through
    :class:`ModelParams` from the values and layout they hold now, or
    ``None`` if the constructor refuses them or the model is not a finite
    one of the global model's layout.
    """
    if sub is None:
        return None
    try:
        index = operator.index(getattr(sub, "client_id", None))
    except TypeError:
        index = -1  # out of range, like every id the run lacks
    index = index if 0 <= index < len(state.addresses) else None
    address = _UNREGISTERED_ADDRESS if index is None else state.addresses[index]
    digest = getattr(sub, "digest", None)
    digest = digest if isinstance(digest, bytes) else b""
    sig = getattr(sub, "sig", None)
    if not (isinstance(sig, Signature) and isinstance(sig.scheme, SchemeId)
            and isinstance(sig.bytes, bytes)):
        sig = Signature(state.config.scheme, b"")
    params = getattr(sub, "params", None)
    try:
        model = ModelParams(getattr(params, "values", None), getattr(params, "layout", None))
    except (TypeError, ValueError, OverflowError, LayoutMismatch):
        return index, address, digest, sig, None
    fits = model.layout == state.global_params.layout and np.isfinite(model.values).all()
    return index, address, digest, sig, model if fits else None


def run_round(state: SystemState, t: int, tamper_hook=None) -> RoundMetrics:
    """Execute federated round ``t`` as a sequence of phases, each over all
    clients in client order: train, digest, sign, tamper hook, submit,
    hash-bind, then aggregate, evaluate, aggregation submit and mine.

    Two phases are timed with ``perf_counter``: ``mean_sign_ms`` is the sign
    phase's time over ``n_clients``, and ``mean_verify_ms`` is the submit
    phase's, which covers the contract's verification of every update plus
    the loop around it. ``compute_time_s`` is the whole round's wall time,
    and ``round_time_s`` adds the round's simulated latency to it.

    ``tamper_hook``, when given, maps each :class:`ClientSubmission` to the
    message sent, or to ``None`` to drop it; :func:`_intake` reads each one.

    Hash binding follows the submit phase: a verified client is aggregated
    iff its intake ``model`` re-digests to the hash its write-once slot holds,
    so a rejected submission that names another client cannot displace that
    client's update. FedAvg weights each update by the size of its client's
    partition, which the aggregator holds, never by a figure the submission
    carries.

    Raises :class:`ValueError`, before any work, for ``t`` outside
    ``[1, 2**63)``, and :class:`NoVerifiedUpdates` if every submission is
    rejected. Any exception once the submit phase starts, that one too,
    mines the round's block over what the round sent and leaves the global
    model unchanged: a round commits its model only when it completes.
    """
    if not 1 <= t < 2**63:  # a round number is a signed 64-bit ledger field
        raise ValueError(f"rounds are numbered from 1 to 2**63 - 1, got {t}")
    config = state.config
    clients = range(config.n_clients)
    started = time.perf_counter()

    params = [
        fedcore.local_train(
            state.global_params, state.train_set, state.partitions[cid], config.train,
            (config.master_seed ^ cid) & _MASK64,
        )
        for cid in clients
    ]
    digests = [sigsuite.digest_model(p) for p in params]
    t0 = time.perf_counter()
    sigs = [sigsuite.sign(key, d) for key, d in zip(state.client_keys, digests)]
    sign_s = time.perf_counter() - t0
    submissions = list(map(ClientSubmission, clients, params, digests, sigs))
    del params, digests, sigs

    if tamper_hook is not None:
        submissions = [tamper_hook(sub) for sub in submissions]
    records = [r for r in (_intake(sub, state) for sub in submissions) if r is not None]

    receipts = []
    t0 = time.perf_counter()
    try:
        for _, address, digest, sig, _ in records:
            state.sig_bytes_total += len(sig.bytes)
            state.sigs_sent += 1
            receipts.append(state.ledger.submit_update(address, t, digest, sig))
        submit_s = time.perf_counter() - t0

        # A verified receipt means its transaction filled this write-once slot.
        slots = state.ledger.state.verified_updates.get(t, {})
        updates = [ClientUpdate(index, model, len(state.partitions[index]))
                   for (index, address, _, _, model), receipt in zip(records, receipts)
                   if receipt.verified and model is not None
                   and sigsuite.digest_model(model) == slots[address].update_hash]
        if not updates:
            raise NoVerifiedUpdates(f"round {t}: every client submission was rejected")

        new_global = fedcore.aggregate(updates)
        global_digest = sigsuite.digest_model(new_global)
        accuracy = fedcore.evaluate(new_global, state.test_set)

        gas_per_update = [r.gas_used for r in receipts]
        total_gas = sum(gas_per_update)
        if config.blockchain:
            agg_sig = sigsuite.sign(state.aggregator_key, global_digest)
            agg = state.ledger.submit_aggregation(_AGGREGATOR_ADDRESS, t, global_digest, agg_sig)
            total_gas += agg.gas_used
    finally:  # the round's block closes over whatever it sent, complete or not
        state.ledger.mine_block()
    state.global_params = new_global

    compute_time = time.perf_counter() - started
    latency, simulated_latency = _latencies(config)
    mean_sign = sign_s * 1e3 / config.n_clients
    mean_verify = submit_s * 1e3 / config.n_clients

    return RoundMetrics(
        round=t,
        accuracy=accuracy,
        round_time_s=compute_time + simulated_latency,
        compute_time_s=compute_time,
        mean_sign_ms=mean_sign,
        mean_verify_ms=mean_verify,
        mean_gas_per_update=sum(gas_per_update) / len(gas_per_update),
        total_gas=total_gas,
        overhead_ratio=overhead_ratio(mean_sign, mean_verify, latency),
        verified_count=len(updates),
        rejected_count=config.n_clients - len(updates),
        model_digest=global_digest.hex(),
    )


@dataclass
class ExperimentReport:
    """Everything one experiment produced, ready for serialization.

    ``summary`` states the run's two latencies once, and the exact mean of
    every other per-round metric (a zero-round run reports zeros and the
    initial model's accuracy). Each round's
    ``model_digest`` is the SHA3-256 of its canonical global model, so
    ``[m.model_digest for m in rounds]`` is the model trajectory.
    """

    config: ExperimentConfig
    rounds: list
    summary: dict
    crypto_sizes: dict
    initial_accuracy: float
    final_accuracy: float

    def to_json_dict(self) -> dict:
        return {**asdict(self), "config": self.config.to_dict()}


# Every summary key, in comparison.csv's column order.
SUMMARY_FIELDS = (
    "accuracy", "round_time_s", "compute_time_s", "simulated_latency_s", "mean_sign_ms",
    "mean_verify_ms", "mean_tx_time_s", "mean_gas_per_update", "total_gas", "overhead_ratio",
    "verified_count", "rejected_count",
)
# The wall-clock ones, per round and in the summary; a fixed seed fixes all others.
TIMING_FIELDS = (
    "round_time_s", "compute_time_s", "mean_sign_ms", "mean_verify_ms", "overhead_ratio"
)


def _summarize(metrics: list, initial_accuracy: float, config: ExperimentConfig) -> dict:
    # The run's latencies, then exact means: finite values have a finite one.
    summary = dict(zip(("mean_tx_time_s", "simulated_latency_s"), _latencies(config)))
    for f in SUMMARY_FIELDS:
        if f not in summary:
            summary[f] = float(statistics.mean(getattr(m, f) for m in metrics)) if metrics else 0.0
    if not metrics:
        summary["accuracy"] = initial_accuracy
    return summary


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Initialize and run ``config.rounds`` sequential federated rounds.

    Deterministic model trajectory for a fixed ``master_seed`` regardless of
    scheme or blockchain mode; wall-clock timing fields vary run to run.
    """
    state = init_phase(config)
    metrics = [run_round(state, t) for t in range(1, config.rounds + 1)]

    key = state.client_keys[0]
    crypto_sizes = {
        "public_key_b": len(key.public_key),
        "private_key_b": len(key.private_key),
        "sig_size_mean_b": state.sig_bytes_total / state.sigs_sent if state.sigs_sent else 0.0,
    }

    return ExperimentReport(
        config=config,
        rounds=metrics,
        summary=_summarize(metrics, state.initial_accuracy, config),
        crypto_sizes=crypto_sizes,
        initial_accuracy=state.initial_accuracy,
        final_accuracy=metrics[-1].accuracy if metrics else state.initial_accuracy,
    )
