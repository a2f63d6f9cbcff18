"""End-to-end protocol: init, signed federated rounds, and metrics.

Each experiment runs the full update-authentication loop. During
initialization every client (and the aggregator) generates a key pair and
registers it; each round then broadcasts the global model, trains locally,
hashes the canonical model bytes, signs the hash, and submits it for
verification. The aggregator only averages updates whose hashes were
verified and whose off-chain parameters re-digest to the verified hash, so
any in-flight tampering excludes that client from the round.

Both submission modes send every signed hash through the simulated
ledger's smart contract, which returns a receipt and mines one block per
round. With a blockchain the contract is gas metered and confirmation
latency defaults to a per-scheme constant; without one ("NoBC") the same
ledger charges zero gas, latency defaults to a 50 ms constant, and the
aggregator records no aggregation hash. Delays are accounted
arithmetically, never slept, so runs stay fast; wall-clock compute time and
simulated latency are reported as separate components.

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
from dataclasses import asdict, dataclass, field, fields

from . import fedcore, sigsuite
from .errors import NotApplicable, NoVerifiedUpdates, ValidationError, ZeroDenominator
from .fedcore import ClientUpdate, ModelParams, TrainConfig
from .ledger import (
    DEFAULT_GAS_TARGETS,
    DEFAULT_LATENCY_S,
    GasModel,
    SimulatedLedger,
    calibrate_gas,
)
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
    "gas_efficiency",
    "derive_seed",
    "SUMMARY_FIELDS",
    "TIMING_FIELDS",
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
    """An id in the signed 64-bit range is packed in 8 bytes. Any other id,
    which only a tampered submission carries, takes a longer two's-complement
    encoding, so it maps to an address no client registered. Uncached: the
    registered clients' addresses are kept on :class:`SystemState`."""
    try:
        encoded = struct.pack("<q", client_id)
    except struct.error:
        encoded = client_id.to_bytes(client_id.bit_length() // 8 + 1, "little", signed=True)
    return hashlib.sha3_256(b"client-address:" + encoded).digest()


_AGGREGATOR_ADDRESS = hashlib.sha3_256(b"aggregator-address").digest()


def _resolve_client(addresses: list, client_id) -> tuple:
    """(index, address) of a submission's client id among the registered
    ``addresses``. An id that is not an integer, or falls outside ``[0, n)``,
    comes only from tampering: it gets no index and an address nobody
    registered, derived afresh."""
    try:
        cid = operator.index(client_id)
    except TypeError:
        return None, hashlib.sha3_256(b"non-integer-client-address").digest()
    if 0 <= cid < len(addresses):
        return cid, addresses[cid]
    return None, _client_address(cid)


# Default confirmation latency without a blockchain, seconds.
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
    # (low, high) bounds of every receipt's confirmation seconds, in either
    # mode; None: the scheme's DEFAULT_LATENCY_S constant with a blockchain,
    # NOBC_LATENCY_S without one
    latency: tuple = None
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
        if not (self.dataset == "synth" or self.dataset.startswith("csv:")):
            out.append(f"dataset must be 'synth' or 'csv:<path>', got {self.dataset!r}")
        if self.train.local_epochs < 0:
            out.append("train.local_epochs must be >= 0")
        if self.train.batch_size < 1:
            out.append("train.batch_size must be >= 1")
        if not (self.train.learning_rate > 0 and math.isfinite(self.train.learning_rate)):
            out.append("train.learning_rate must be finite and > 0")
        if self.synth_classes < 2 or self.synth_samples < self.synth_classes:
            out.append("need synth_samples >= synth_classes >= 2")
        if self.synth_features < 1:
            out.append("synth_features must be >= 1")
        for scheme, target in self.gas_targets.items():
            if not (target > 0 and math.isfinite(target)):
                out.append(f"gas target for {scheme} must be finite and positive")
        if self.latency is not None:
            lo, hi = self.latency
            if not (0 <= lo <= hi and math.isfinite(hi)):  # also rejects NaN
                out.append("latency must satisfy 0 <= low <= high < inf")
        return out

    def to_dict(self) -> dict:
        """Every field under its own name, JSON-ready, led by ``name``: the
        scheme and the ``gas_targets`` keys as scheme names, ``latency`` as
        a list, and the fixed ``train.optimizer``."""
        out = {"name": self.name(), **asdict(self)}
        out.update(
            scheme=self.scheme.value,
            gas_targets={s.value: t for s, t in self.gas_targets.items()},
            latency=list(self.latency) if self.latency is not None else None,
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
    simulated_latency_s: float
    mean_sign_ms: float
    mean_verify_ms: float
    mean_tx_time_s: float
    mean_gas_per_update: float
    total_gas: int
    overhead_ratio: float
    verified_count: int
    rejected_count: int
    model_digest: str  # hex SHA3-256 of the round's canonical global model

    def to_dict(self) -> dict:
        return asdict(self)


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
    sig_count: int = 0


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

    default_latency = DEFAULT_LATENCY_S[config.scheme] if config.blockchain else NOBC_LATENCY_S
    ledger = SimulatedLedger(
        gas_model=calibrate_gas(config.gas_targets) if config.blockchain else GasModel(0, 0, 0),
        latency=config.latency or (default_latency, default_latency),
        rng_seed=derive_seed(master, "latency"),
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


def _client_work(state: SystemState, client_id: int) -> tuple:
    """Train, hash, sign: one client's submission and its signing time in ms."""
    config = state.config
    params = fedcore.local_train(
        state.global_params, state.train_set, state.partitions[client_id], config.train,
        (config.master_seed ^ client_id) & _MASK64,
    )
    digest = sigsuite.digest_model(params)
    t0 = time.perf_counter()
    sig = sigsuite.sign(state.client_keys[client_id], digest)
    sign_ms = (time.perf_counter() - t0) * 1e3
    return ClientSubmission(client_id, params, digest, sig), sign_ms


def overhead_ratio(sign_ms: float, verify_ms: float, denominator_s: float) -> float:
    """Combined sign+verify time (converted to seconds) over a transaction
    time denominator. Raises :class:`ZeroDenominator` if the denominator is
    not positive."""
    if denominator_s <= 0:
        raise ZeroDenominator(f"denominator must be positive, got {denominator_s}")
    return ((sign_ms + verify_ms) / 1e3) / denominator_s


def run_round(state: SystemState, t: int, tamper_hook=None) -> RoundMetrics:
    """Execute federated round ``t``: broadcast, train, sign, submit,
    verify, aggregate, evaluate.

    ``tamper_hook``, when given, maps each :class:`ClientSubmission` to the
    (possibly corrupted) submission actually sent; it models in-flight
    adversarial interference and is used by the security tests. A malformed
    submission (wrong scheme tag, hash of the wrong length, an empty one, a
    digest or signature of the wrong type, a client id that is not an
    integer or that the run does not have) is rejected like a bad signature
    and excludes only its client.

    Each submission is hash-bound as soon as the contract verifies it: it is
    aggregated only if its own off-chain parameters re-digest to the hash
    the contract recorded. A rejected submission that names another client
    therefore cannot displace that client's update. FedAvg weights each
    update by the size of its client's partition, which the aggregator
    holds, never by a figure the submission carries.

    Raises :class:`NoVerifiedUpdates` if every submission is rejected; the
    global model is left unchanged in that case, and the round's block is
    still mined so it holds the rejected transactions.
    """
    if t < 1:
        raise ValueError(f"rounds are numbered from 1, got {t}")
    config = state.config
    started = time.perf_counter()

    submissions, sign_times = zip(*(_client_work(state, cid) for cid in range(config.n_clients)))

    if tamper_hook is not None:
        submissions = [tamper_hook(sub) for sub in submissions]

    receipts = []
    updates = []
    for sub in submissions:
        # A field of the wrong type is sent empty, so the contract rejects it.
        digest = sub.digest if isinstance(sub.digest, bytes) else b""
        sig = sub.sig
        if not (isinstance(sig, Signature) and isinstance(sig.scheme, SchemeId)
                and isinstance(sig.bytes, bytes)):
            sig = Signature(config.scheme, b"")
        state.sig_bytes_total += len(sig.bytes)
        state.sig_count += 1
        cid, address = _resolve_client(state.addresses, sub.client_id)
        receipt = state.ledger.submit_update(address, t, digest, sig)
        receipts.append(receipt)
        # Hash binding: aggregate a verified submission only if its own
        # off-chain parameters re-digest to the hash the contract recorded.
        if (
            receipt.verified
            and sigsuite.digest_model(sub.params)
            == state.ledger.state.verified_updates[t][address].update_hash
        ):
            updates.append(ClientUpdate(cid, sub.params, len(state.partitions[cid])))

    if not updates:
        # Close the round's block over its rejected transactions so they
        # do not land in the next round's block.
        state.ledger.mine_block()
        raise NoVerifiedUpdates(f"round {t}: every client submission was rejected")

    new_global = fedcore.aggregate(updates)
    state.global_params = new_global
    global_digest = sigsuite.digest_model(new_global)
    accuracy = fedcore.evaluate(new_global, state.test_set)

    gas_per_update = [r.gas_used for r in receipts]
    confirm_times = [r.confirm_time_s for r in receipts]
    total_gas = sum(gas_per_update)
    agg_latency = 0.0
    if config.blockchain:
        agg_sig = sigsuite.sign(state.aggregator_key, global_digest)
        receipt = state.ledger.submit_aggregation(_AGGREGATOR_ADDRESS, t, global_digest, agg_sig)
        total_gas += receipt.gas_used
        agg_latency = receipt.confirm_time_s
    state.ledger.mine_block()

    compute_time = time.perf_counter() - started
    simulated_latency = sum(confirm_times) + agg_latency
    mean_sign = sum(sign_times) / len(sign_times)
    mean_verify = sum(r.verify_ms for r in receipts) / len(receipts)
    mean_tx = statistics.mean(confirm_times)  # correctly rounded: a constant stays exact
    ratio = overhead_ratio(mean_sign, mean_verify, mean_tx) if mean_tx > 0 else 0.0

    return RoundMetrics(
        round=t,
        accuracy=accuracy,
        round_time_s=compute_time + simulated_latency,
        compute_time_s=compute_time,
        simulated_latency_s=simulated_latency,
        mean_sign_ms=mean_sign,
        mean_verify_ms=mean_verify,
        mean_tx_time_s=mean_tx,
        mean_gas_per_update=sum(gas_per_update) / len(gas_per_update),
        total_gas=total_gas,
        overhead_ratio=ratio,
        verified_count=len(updates),
        rejected_count=config.n_clients - len(updates),
        model_digest=global_digest.hex(),
    )


@dataclass
class ExperimentReport:
    """Everything one experiment produced, ready for serialization.

    ``summary`` holds arithmetic means of the per-round metrics (for a
    zero-round run it reports the initial model's accuracy). Each round's
    ``model_digest`` is the SHA3-256 of its canonical global model, so
    ``[m.model_digest for m in rounds]`` is the model trajectory.
    """

    config: ExperimentConfig
    rounds: list
    summary: dict
    crypto_sizes: dict
    initial_accuracy: float
    final_accuracy: float
    gas_per_round: float = None          # None for no-blockchain runs
    accuracy_gain_per_gas: float = None  # likewise

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(config=self.config.to_dict(), rounds=[r.to_dict() for r in self.rounds])
        return out


# The per-round metrics an experiment summary averages.
SUMMARY_FIELDS = tuple(
    f.name for f in fields(RoundMetrics) if f.name not in ("round", "model_digest")
)
# The wall-clock ones, per round and in the summary; a fixed seed fixes all others.
TIMING_FIELDS = (
    "round_time_s", "compute_time_s", "mean_sign_ms", "mean_verify_ms", "overhead_ratio"
)


def _summarize(metrics: list, initial_accuracy: float) -> dict:
    summary = {f: 0.0 for f in SUMMARY_FIELDS}
    if not metrics:
        summary["accuracy"] = initial_accuracy
        return summary
    for f in SUMMARY_FIELDS:
        summary[f] = sum(getattr(m, f) for m in metrics) / len(metrics)
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
        "sig_size_mean_b": (
            state.sig_bytes_total / state.sig_count if state.sig_count else 0.0
        ),
    }

    final_accuracy = metrics[-1].accuracy if metrics else state.initial_accuracy
    report = ExperimentReport(
        config=config,
        rounds=metrics,
        summary=_summarize(metrics, state.initial_accuracy),
        crypto_sizes=crypto_sizes,
        initial_accuracy=state.initial_accuracy,
        final_accuracy=final_accuracy,
    )
    if config.blockchain and metrics:
        report.gas_per_round, report.accuracy_gain_per_gas = gas_efficiency(report)
    return report


def gas_efficiency(report: ExperimentReport) -> tuple:
    """(mean gas per round, accuracy gain per unit of gas) for a BC report.

    Raises :class:`NotApplicable` for no-blockchain reports, where gas is
    undefined.
    """
    if not report.config.blockchain:
        raise NotApplicable("gas efficiency is undefined without a blockchain")
    if not report.rounds:
        raise ValueError("gas efficiency needs at least one round")
    total = sum(m.total_gas for m in report.rounds)
    gas_per_round = total / len(report.rounds)
    gain = report.final_accuracy - report.initial_accuracy
    return gas_per_round, (gain / total if total > 0 else 0.0)
