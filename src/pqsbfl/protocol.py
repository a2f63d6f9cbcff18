"""End-to-end protocol: init, signed federated rounds, and metrics.

Each experiment runs the full update-authentication loop. During
initialization every client (and the aggregator) generates a key pair and
registers it; each round then broadcasts the global model, trains locally,
hashes the canonical model bytes, signs the hash, and submits it for
verification. The aggregator only averages updates whose hashes were
verified and whose off-chain parameters re-digest to the verified hash, so
any in-flight tampering excludes that client from the round.

Two submission modes share all other code paths. With a blockchain the
signed hash goes through the simulated ledger's smart contract (gas metered,
confirmation latency sampled); without one ("NoBC") the same contract rules
run on a bare :class:`~pqsbfl.ledger.ContractState`, with no chain and no
gas, and a fixed configurable delay stands in for the transaction time.
Delays are accounted arithmetically, never slept, so runs stay fast;
wall-clock compute time and simulated latency are reported as separate
components.

Learning is deliberately independent of the signature scheme: all training
randomness derives from the master seed alone, so for a fixed seed the
per-round global models are bit-identical across PQC/ECDSA/NONE and across
blockchain modes. That invariant is the cheapest strong regression oracle
this system has, and the test suite leans on it.
"""

import hashlib
import struct
import time
from dataclasses import asdict, dataclass, field, fields

from . import fedcore, sigsuite
from .errors import NotApplicable, NoVerifiedUpdates, ValidationError, ZeroDenominator
from .fedcore import ClientUpdate, ModelParams, TrainConfig
from .ledger import (
    DEFAULT_GAS_TARGETS,
    DEFAULT_LATENCY_S,
    ConstantLatency,
    ContractState,
    SimulatedLedger,
    Transaction,
    TxKind,
    TxStatus,
    UniformLatency,
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
    return hashlib.sha3_256(b"client-address:" + struct.pack("<q", client_id)).digest()


_AGGREGATOR_ADDRESS = hashlib.sha3_256(b"aggregator-address").digest()


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
    nobc_fixed_delay_s: float = 0.05
    train: TrainConfig = field(default_factory=TrainConfig)
    gas_targets: dict = field(default_factory=lambda: dict(DEFAULT_GAS_TARGETS))
    latency: tuple = None  # (low, high) confirmation seconds; None: scheme default
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
        if not self.alpha > 0:  # the negated forms also reject NaN
            out.append(f"alpha must be > 0, got {self.alpha}")
        if not isinstance(self.scheme, SchemeId):
            out.append(f"unknown scheme {self.scheme!r}")
        if not (self.dataset == "synth" or self.dataset.startswith("csv:")):
            out.append(f"dataset must be 'synth' or 'csv:<path>', got {self.dataset!r}")
        if not self.nobc_fixed_delay_s >= 0:
            out.append("nobc_fixed_delay_s must be >= 0")
        if self.train.local_epochs < 0:
            out.append("train.local_epochs must be >= 0")
        if self.train.batch_size < 1:
            out.append("train.batch_size must be >= 1")
        if not self.train.learning_rate > 0:
            out.append("train.learning_rate must be > 0")
        if self.synth_classes < 2 or self.synth_samples < self.synth_classes:
            out.append("need synth_samples >= synth_classes >= 2")
        if self.synth_features < 1:
            out.append("synth_features must be >= 1")
        for scheme, target in self.gas_targets.items():
            if not target > 0:
                out.append(f"gas target for {scheme} must be positive")
        if self.latency is not None:
            lo, hi = self.latency
            if not 0 <= lo <= hi:  # also rejects NaN
                out.append("latency must satisfy 0 <= low <= high")
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name(),
            "dataset": self.dataset,
            "scheme": self.scheme.value,
            "n_clients": self.n_clients,
            "rounds": self.rounds,
            "blockchain": self.blockchain,
            "nobc_fixed_delay_s": self.nobc_fixed_delay_s,
            "train": {
                "local_epochs": self.train.local_epochs,
                "batch_size": self.train.batch_size,
                "learning_rate": self.train.learning_rate,
                "optimizer": "ADAM",
            },
            "gas_targets": {s.value: t for s, t in self.gas_targets.items()},
            "latency": list(self.latency) if self.latency is not None else None,
            "master_seed": self.master_seed,
            "alpha": self.alpha,
            "synth_samples": self.synth_samples,
            "synth_features": self.synth_features,
            "synth_classes": self.synth_classes,
        }


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
    n_samples: int
    digest: bytes
    sig: Signature
    sign_ms: float


@dataclass
class SystemState:
    """Mutable world state of one experiment between rounds."""

    config: ExperimentConfig
    train_set: fedcore.Dataset
    test_set: fedcore.Dataset
    partitions: list
    global_params: ModelParams
    client_keys: list        # indexed by client id
    client_addresses: list   # likewise
    aggregator_key: KeyPair
    aggregator_address: bytes
    ledger: SimulatedLedger  # None without a blockchain
    contract: ContractState  # ledger.state, or a bare one without a blockchain
    initial_accuracy: float
    sig_sizes_seen: list = field(default_factory=list)


def _build_latency_model(config: ExperimentConfig):
    if config.latency is None:
        return ConstantLatency(DEFAULT_LATENCY_S[config.scheme])
    low, high = config.latency
    return ConstantLatency(low) if low == high else UniformLatency(low, high)


def init_phase(config: ExperimentConfig) -> SystemState:
    """Key generation, registration, data build: run once per experiment.

    Validates the config up front (before any key generation), creates one
    key pair per client plus one for the aggregator in a single batch (under
    PQC one FIPS 204 expansion for all of them, with every key still
    cross-checked against the signing backend), registers them with the
    contract (on the ledger in blockchain mode), and builds the dataset, the
    Dirichlet partitions, and the initial global model.
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
    client_addresses = [_client_address(cid) for cid in range(config.n_clients)]

    if config.blockchain:
        ledger = SimulatedLedger(
            gas_model=calibrate_gas(config.gas_targets),
            latency=_build_latency_model(config),
            rng_seed=derive_seed(master, "latency"),
        )
        contract, register = ledger.state, ledger.register_client
    else:
        ledger, contract = None, ContractState()

        def register(address, public_key, scheme):
            contract.apply(Transaction.registration(address, public_key, scheme))

    for address, key in zip(
        client_addresses + [_AGGREGATOR_ADDRESS], client_keys + [aggregator_key]
    ):
        register(address, key.public_key, config.scheme)
    if ledger is not None:
        ledger.mine_block()

    return SystemState(
        config=config,
        train_set=train_set,
        test_set=test_set,
        partitions=partitions,
        global_params=global_params,
        client_keys=client_keys,
        client_addresses=client_addresses,
        aggregator_key=aggregator_key,
        aggregator_address=_AGGREGATOR_ADDRESS,
        ledger=ledger,
        contract=contract,
        initial_accuracy=fedcore.evaluate(global_params, test_set),
    )


def _client_work(state: SystemState, client_id: int) -> ClientSubmission:
    """Train, hash, sign: the per-client portion of one round."""
    config = state.config
    cfg = config.train.with_seed((config.master_seed ^ client_id) & _MASK64)
    partition = state.partitions[client_id]
    params = fedcore.local_train(state.global_params, state.train_set, partition, cfg)
    digest = sigsuite.digest_model(params)
    t0 = time.perf_counter()
    sig = sigsuite.sign(state.client_keys[client_id], digest)
    sign_ms = (time.perf_counter() - t0) * 1e3
    return ClientSubmission(client_id, params, len(partition), digest, sig, sign_ms)


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
    submission (wrong scheme tag, hash of the wrong length, an empty one) is
    rejected like a bad signature and excludes only its client.

    Each submission is hash-bound as soon as the contract verifies it: it is
    aggregated only if its own off-chain parameters re-digest to the hash
    the contract recorded. A rejected submission that names another client
    therefore cannot displace that client's update.

    Raises :class:`NoVerifiedUpdates` if every submission is rejected; the
    global model is left unchanged in that case, and in blockchain mode the
    round's block is still mined so it holds the rejected transactions.
    """
    if t < 1:
        raise ValueError(f"rounds are numbered from 1, got {t}")
    config = state.config
    started = time.perf_counter()

    submissions = [_client_work(state, cid) for cid in range(config.n_clients)]

    if tamper_hook is not None:
        submissions = [tamper_hook(sub) for sub in submissions]

    confirm_times = []
    verify_times_ms = []
    gas_per_update = []
    total_gas = 0
    updates = []

    for sub in submissions:
        state.sig_sizes_seen.append(len(sub.sig.bytes))
        address = state.client_addresses[sub.client_id]
        if config.blockchain:
            receipt = state.ledger.submit_update(address, t, sub.digest, sub.sig)
            status = receipt.status
            confirm_times.append(receipt.confirm_time_s)
            verify_times_ms.append(receipt.verify_ms)
            gas_per_update.append(receipt.gas_used)
            total_gas += receipt.gas_used
        else:
            tx = Transaction.submission(TxKind.SUBMIT_UPDATE, address, t, sub.digest, sub.sig)
            t0 = time.perf_counter()
            status, _ = state.contract.apply(tx)
            verify_times_ms.append((time.perf_counter() - t0) * 1e3)
            confirm_times.append(config.nobc_fixed_delay_s)
        # Hash binding: aggregate a verified submission only if its own
        # off-chain parameters re-digest to the hash the contract recorded.
        if (
            status is TxStatus.VERIFIED
            and sigsuite.digest_model(sub.params) == state.contract.verified_updates[(t, address)]
        ):
            updates.append(ClientUpdate(sub.client_id, sub.params, sub.n_samples, t))

    if not updates:
        if config.blockchain:
            # Close the round's block over its rejected transactions so they
            # do not land in the next round's block.
            state.ledger.mine_block()
        raise NoVerifiedUpdates(f"round {t}: every client submission was rejected")

    new_global = fedcore.aggregate(updates)
    state.global_params = new_global
    global_digest = sigsuite.digest_model(new_global)
    accuracy = fedcore.evaluate(new_global, state.test_set)

    agg_latency = 0.0
    if config.blockchain:
        agg_sig = sigsuite.sign(state.aggregator_key, global_digest)
        receipt = state.ledger.submit_aggregation(
            state.aggregator_address, t, global_digest, agg_sig
        )
        total_gas += receipt.gas_used
        agg_latency = receipt.confirm_time_s
        state.ledger.mine_block()

    compute_time = time.perf_counter() - started
    simulated_latency = sum(confirm_times) + agg_latency
    mean_sign = sum(s.sign_ms for s in submissions) / len(submissions)
    mean_verify = sum(verify_times_ms) / len(verify_times_ms)
    if config.blockchain:
        mean_tx = sum(confirm_times) / len(confirm_times)
    else:
        mean_tx = config.nobc_fixed_delay_s  # the fixed delay, by definition
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
        mean_gas_per_update=(
            sum(gas_per_update) / len(gas_per_update) if gas_per_update else 0.0
        ),
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
        return {
            "config": self.config.to_dict(),
            "initial_accuracy": self.initial_accuracy,
            "final_accuracy": self.final_accuracy,
            "summary": self.summary,
            "crypto_sizes": self.crypto_sizes,
            "gas_per_round": self.gas_per_round,
            "accuracy_gain_per_gas": self.accuracy_gain_per_gas,
            "rounds": [r.to_dict() for r in self.rounds],
        }


def _summarize(metrics: list, initial_accuracy: float) -> dict:
    numeric = [
        f.name for f in fields(RoundMetrics) if f.name not in ("round", "model_digest")
    ]
    summary = {f: 0.0 for f in numeric}
    if not metrics:
        summary["accuracy"] = initial_accuracy
        return summary
    for f in numeric:
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
    sizes = state.sig_sizes_seen
    crypto_sizes = {
        "public_key_b": len(key.public_key),
        "private_key_b": len(key.private_key),
        "sig_size_mean_b": (sum(sizes) / len(sizes)) if sizes else 0.0,
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
