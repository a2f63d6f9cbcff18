"""Protocol contracts: initialization, the round loop, metrics, oracles."""

import dataclasses
import hashlib
import json
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqsbfl import fedcore, protocol, sigsuite
from pqsbfl.errors import (
    NotApplicable,
    NoVerifiedUpdates,
    ValidationError,
    ZeroDenominator,
)
from pqsbfl.fedcore import TrainConfig
from pqsbfl.ledger import DEFAULT_GAS_TARGETS, TxKind, chain_verify
from pqsbfl.protocol import (
    TIMING_FIELDS,
    ExperimentConfig,
    derive_seed,
    gas_efficiency,
    init_phase,
    overhead_ratio,
    run_experiment,
    run_round,
)
from pqsbfl.sigsuite import SchemeId, Signature

NAN = float("nan")
INF = float("inf")


def _small_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        scheme=SchemeId.PQC,
        n_clients=3,
        rounds=2,
        master_seed=42,
        synth_samples=400,
        synth_features=10,
        synth_classes=3,
        train=TrainConfig(local_epochs=2),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _trajectory(report) -> list:
    """Per-round SHA3-256 digests of the canonical global model."""
    return [m.model_digest for m in report.rounds]


def _corrupt_sig(sub):
    bad = bytearray(sub.sig.bytes)
    bad[10] ^= 0x08
    return dataclasses.replace(sub, sig=Signature(sub.sig.scheme, bytes(bad)))


def _fedavg_oracle(state, client_ids, round_seed_master):
    """Recompute each client's local model independently and average by hand."""
    weighted = None
    total = 0
    for cid in range(state.config.n_clients):
        if cid not in client_ids:
            continue
        local = fedcore.local_train(
            state.global_params, state.train_set, state.partitions[cid], state.config.train,
            (round_seed_master ^ cid) & (2**64 - 1),
        )
        n = len(state.partitions[cid])
        total += n
        term = n * local.values.astype(np.float64)
        weighted = term if weighted is None else weighted + term
    return (weighted / total).astype(np.float32)


class TestInitPhase:
    def test_bc_registry_counts_clients_plus_aggregator(self):
        state = init_phase(_small_config())
        assert len(state.ledger.state.registry) == 4  # 3 clients + aggregator
        assert protocol._AGGREGATOR_ADDRESS in state.ledger.state.registry

    def test_nobc_ledger_charges_zero_gas(self):
        state = init_phase(_small_config(blockchain=False))
        assert len(state.ledger.state.registry) == 4  # 3 clients + aggregator
        metrics = [run_round(state, t) for t in (1, 2)]
        assert [m.total_gas for m in metrics] == [0, 0]
        assert chain_verify(state.ledger.chain).intact

    def test_duplicate_client_ids_rejected_before_keygen(self, monkeypatch):
        calls = []
        original = sigsuite.keygen_batch

        def counting_keygen(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(protocol.sigsuite, "keygen_batch", counting_keygen)
        with pytest.raises(ValidationError):
            init_phase(_small_config(alpha=-1.0))
        assert calls == []

    @pytest.mark.parametrize("override", [
        dict(alpha=NAN),
        dict(latency=(NAN, NAN)),
        dict(train=TrainConfig(learning_rate=NAN)),
        dict(gas_targets={**DEFAULT_GAS_TARGETS, SchemeId.ECDSA: NAN}),
    ], ids=["alpha", "latency", "train.learning_rate", "gas_targets"])
    def test_nan_rejected(self, override):
        cfg = _small_config(**override)
        assert len(cfg.violations()) == 1
        with pytest.raises(ValidationError):
            init_phase(cfg)

    @pytest.mark.parametrize("override", [
        dict(alpha=INF),
        dict(train=TrainConfig(learning_rate=INF)),
        dict(gas_targets={**DEFAULT_GAS_TARGETS, SchemeId.PQC: INF}),
        dict(latency=(INF, INF)),
        dict(latency=(0.1, INF)),
    ], ids=["alpha", "train.learning_rate", "gas_targets", "latency.low", "latency.high"])
    def test_infinity_rejected_before_keygen(self, override, monkeypatch):
        calls = []
        monkeypatch.setattr(protocol.sigsuite, "keygen_batch",
                            lambda *args, **kwargs: calls.append(args))
        cfg = _small_config(**override)
        assert len(cfg.violations()) == 1
        with pytest.raises(ValidationError):
            init_phase(cfg)
        assert calls == []

    def test_all_violations_listed(self):
        cfg = _small_config(n_clients=0, alpha=-1.0, latency=(0.5, 0.1))
        with pytest.raises(ValidationError) as excinfo:
            init_phase(cfg)
        assert len(excinfo.value.violations) >= 3
        assert any("latency" in v for v in excinfo.value.violations)

    def test_addresses_are_the_registered_senders(self):
        state = init_phase(_small_config(scheme=SchemeId.NONE))
        senders = [tx.sender for tx in state.ledger.chain.blocks[1].transactions]
        assert state.addresses + [protocol._AGGREGATOR_ADDRESS] == senders

    def test_initial_accuracy_recorded(self):
        state = init_phase(_small_config())
        assert 0.0 <= state.initial_accuracy <= 1.0


class TestRunRound:
    def test_happy_path_matches_fedavg_oracle(self):
        cfg = _small_config()
        state = init_phase(cfg)
        metrics = run_round(state, 1)
        assert metrics.verified_count == cfg.n_clients
        assert metrics.rejected_count == 0
        oracle = _fedavg_oracle_initial(cfg)
        max_ulps = np.spacing(np.abs(oracle))
        assert np.all(np.abs(state.global_params.values - oracle) <= max_ulps)

    def test_tampered_client_excluded_and_reweighted(self):
        cfg = _small_config()
        state = init_phase(cfg)

        def tamper(sub):
            return _corrupt_sig(sub) if sub.client_id == 1 else sub

        before = state.global_params.copy()
        state_ref = init_phase(cfg)
        oracle = _fedavg_oracle(state_ref, {0, 2}, cfg.master_seed)

        metrics = run_round(state, 1, tamper_hook=tamper)
        assert metrics.verified_count == 2
        assert metrics.rejected_count == 1
        assert not np.array_equal(state.global_params.values, before.values)
        max_ulps = np.spacing(np.abs(oracle))
        assert np.all(np.abs(state.global_params.values - oracle) <= max_ulps)

    def test_offchain_params_digest_mismatch_excluded(self):
        cfg = _small_config()
        state = init_phase(cfg)

        def corrupt_params(sub):
            if sub.client_id != 0:
                return sub
            mutated = sub.params.copy()
            mutated.values[3] += np.float32(0.5)
            return dataclasses.replace(sub, params=mutated)

        metrics = run_round(state, 1, tamper_hook=corrupt_params)
        # signature and on-chain hash verify, but the off-chain bytes no
        # longer digest to the verified hash, so client 0 must be excluded
        assert metrics.verified_count == 2

    def test_submission_fields_are_signed_or_bound(self):
        # Each field is signed (digest, sig), hash-bound (params) or checked
        # against the registry (client_id). A FedAvg weight here would be
        # none of these and could be rewritten in flight, so the weights
        # come from the aggregator's partitions.
        assert [f.name for f in dataclasses.fields(protocol.ClientSubmission)] == [
            "client_id", "params", "digest", "sig",
        ]

    def test_sign_time_is_measured_not_carried(self):
        # A submission in flight may claim any signing time; the round
        # averages the times it measured itself.
        def claim_nan_sign_time(sub):
            return types.SimpleNamespace(**{**vars(sub), "sign_ms": float("nan")})

        metrics = run_round(init_phase(_small_config()), 1, tamper_hook=claim_nan_sign_time)
        assert metrics.verified_count == 3
        assert math.isfinite(metrics.mean_sign_ms) and metrics.mean_sign_ms > 0
        assert math.isfinite(metrics.overhead_ratio)

    @pytest.mark.parametrize("blockchain", [True, False], ids=["bc", "nobc"])
    def test_rejected_impostor_keeps_named_client(self, blockchain):
        cfg = _small_config(blockchain=blockchain)
        state = init_phase(cfg)

        def impersonate(sub):
            # client 1's signed submission, sent in client 0's name
            return dataclasses.replace(sub, client_id=0) if sub.client_id == 1 else sub

        oracle = _fedavg_oracle(init_phase(cfg), {0, 2}, cfg.master_seed)
        metrics = run_round(state, 1, tamper_hook=impersonate)
        # the impostor is rejected; client 0's own verified update still binds
        assert (metrics.verified_count, metrics.rejected_count) == (2, 1)
        max_ulps = np.spacing(np.abs(oracle))
        assert np.all(np.abs(state.global_params.values - oracle) <= max_ulps)

    def test_all_rejected_aborts_round_model_unchanged(self):
        cfg = _small_config()
        state = init_phase(cfg)
        before = state.global_params.values.copy()
        with pytest.raises(NoVerifiedUpdates):
            run_round(state, 1, tamper_hook=_corrupt_sig)
        assert np.array_equal(state.global_params.values, before)

    def test_aborted_round_mines_its_own_block(self):
        state = init_phase(_small_config(scheme=SchemeId.NONE))
        with pytest.raises(NoVerifiedUpdates):
            run_round(state, 1, tamper_hook=_corrupt_sig)
        run_round(state, 2)
        chain = state.ledger.chain
        # genesis, registrations, round 1's three rejected submissions,
        # round 2's three updates plus the aggregation record
        assert [len(b.transactions) for b in chain.blocks] == [0, 4, 3, 4]
        assert chain_verify(chain).intact

    @pytest.mark.parametrize("blockchain", [True, False], ids=["bc", "nobc"])
    def test_malformed_submissions_rejected_round_completes(self, blockchain):
        cfg = _small_config(scheme=SchemeId.NONE, blockchain=blockchain, n_clients=4)
        state = init_phase(cfg)

        def malform(sub):
            if sub.client_id == 0:  # relabelled as another scheme
                return dataclasses.replace(sub, sig=Signature(SchemeId.ECDSA, sub.sig.bytes))
            if sub.client_id == 1:  # digest cut to 31 bytes
                return dataclasses.replace(sub, digest=sub.digest[:31])
            if sub.client_id == 2:  # hash and signature together under 32 bytes
                return dataclasses.replace(
                    sub, digest=sub.digest[:16], sig=Signature(SchemeId.NONE, b"")
                )
            return sub

        oracle = _fedavg_oracle(init_phase(cfg), {3}, cfg.master_seed)
        metrics = run_round(state, 1, tamper_hook=malform)
        assert (metrics.verified_count, metrics.rejected_count) == (1, 3)
        max_ulps = np.spacing(np.abs(oracle))
        assert np.all(np.abs(state.global_params.values - oracle) <= max_ulps)
        assert {r: list(t) for r, t in state.ledger.state.verified_updates.items()} == {
            1: [protocol._client_address(3)]
        }
        assert chain_verify(state.ledger.chain).intact

    @pytest.mark.parametrize(
        "client_id", [3, -1, 2**63, -(2**63) - 1, "1", 1.0, None],
        ids=["n_clients", "minus_one", "two_pow_63", "below_int64", "str", "float", "none"],
    )
    def test_unknown_client_id_rejected_round_completes(self, client_id):
        cfg = _small_config(scheme=SchemeId.NONE)
        state = init_phase(cfg)

        def rename(sub):
            return dataclasses.replace(sub, client_id=client_id) if sub.client_id == 0 else sub

        oracle = _fedavg_oracle(init_phase(cfg), {1, 2}, cfg.master_seed)
        metrics = run_round(state, 1, tamper_hook=rename)
        # sent from an address nobody registered: rejected, charged, no write
        assert (metrics.verified_count, metrics.rejected_count) == (2, 1)
        max_ulps = np.spacing(np.abs(oracle))
        assert np.all(np.abs(state.global_params.values - oracle) <= max_ulps)
        assert chain_verify(state.ledger.chain).intact

    def test_fresh_unknown_id_each_round_rejected_and_charged(self):
        cfg = _small_config(scheme=SchemeId.NONE, rounds=3)
        state = init_phase(cfg)
        receipts = {}
        submit = state.ledger.submit_update

        def recording_submit(address, round_, update_hash, sig):
            receipts[address] = submit(address, round_, update_hash, sig)
            return receipts[address]

        state.ledger.submit_update = recording_submit
        for t in range(1, cfg.rounds + 1):
            fresh = cfg.n_clients + t  # never sent before
            run_round(state, t, tamper_hook=lambda sub: (
                dataclasses.replace(sub, client_id=fresh) if sub.client_id == 0 else sub
            ))
            receipt = receipts[protocol._client_address(fresh)]
            assert not receipt.verified
            assert receipt.gas_used == state.ledger.gas.submit_gas(
                SchemeId.NONE, sigsuite.HASH_BYTES, stored=False
            ) > 0
        assert not hasattr(protocol._client_address, "cache_info")  # nothing kept per id

    @pytest.mark.parametrize("scheme", [SchemeId.NONE, SchemeId.ECDSA], ids=["none", "ecdsa"])
    def test_chain_head_reproducible_for_fixed_seed(self, scheme):
        def head_hash():
            state = init_phase(_small_config(scheme=scheme))
            run_round(state, 1)
            return state.ledger.chain.head_hash

        assert head_hash() == head_hash()

    def test_round_numbering_starts_at_one(self):
        state = init_phase(_small_config())
        with pytest.raises(ValueError):
            run_round(state, 0)

    def test_metric_consistency_invariant(self):
        state = init_phase(_small_config())
        m = run_round(state, 1)
        recomputed = overhead_ratio(m.mean_sign_ms, m.mean_verify_ms, m.mean_tx_time_s)
        assert abs(recomputed - m.overhead_ratio) <= 1e-12 * abs(m.overhead_ratio)


# Client 0's on-chain fields, each drawn as (form, value) and resolved
# against its honest submission inside the test.
_NOT_BYTES = st.one_of(st.none(), st.text(max_size=3), st.integers())
_DIGESTS = st.one_of(
    st.tuples(st.just("honest"), st.none()),
    st.tuples(st.just("value"), st.one_of(st.binary(max_size=64), _NOT_BYTES)),
)
_SIGS = st.one_of(
    st.tuples(st.just("honest"), st.none()),
    # the honest signature bytes under any tag, SchemeId or not
    st.tuples(st.just("tag"), st.sampled_from([*SchemeId, "NONE", None])),
    # the run's own tag over random bytes or a value that is not bytes
    st.tuples(st.just("bytes"), st.one_of(st.binary(max_size=80), _NOT_BYTES)),
    # no Signature at all
    st.tuples(st.just("object"), st.one_of(st.none(), st.binary(max_size=80))),
)


def _draw_sig(form, value, honest: Signature):
    if form == "honest":
        return honest
    if form == "tag":
        return Signature(value, honest.bytes)
    if form == "bytes":
        return Signature(honest.scheme, value)
    return value


def _on_the_wire(digest, sig, scheme) -> tuple:
    """The digest and signature a submission with these fields sends: a
    field of the wrong type goes empty, the signature under the run's tag."""
    if not isinstance(digest, bytes):
        digest = b""
    if not (isinstance(sig, Signature) and isinstance(sig.scheme, SchemeId)
            and isinstance(sig.bytes, bytes)):
        sig = Signature(scheme, b"")
    return digest, sig


class TestWireFields:
    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from([SchemeId.NONE, SchemeId.ECDSA]),
        digest=_DIGESTS,
        sig=_SIGS,
        resign=st.booleans(),
    )
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("object", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("bytes", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("tag", "NONE"), resign=False)
    @example(scheme=SchemeId.NONE, digest=("value", "digest"), sig=("honest", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("value", None), sig=("honest", None), resign=True)
    @example(scheme=SchemeId.PQC, digest=("honest", None), sig=("honest", None), resign=False)
    @example(scheme=SchemeId.PQC, digest=("honest", None), sig=("object", None), resign=True)
    @example(scheme=SchemeId.PQC, digest=("value", bytes(32)), sig=("honest", None), resign=True)
    @example(scheme=SchemeId.PQC, digest=("honest", None), sig=("tag", "PQC"), resign=False)
    @example(scheme=SchemeId.PQC, digest=("value", None), sig=("bytes", bytes(8)), resign=False)
    def test_client_fields_reject_only_that_client(self, scheme, digest, sig, resign):
        # Whatever client 0 puts in its digest and signature, the round
        # completes; client 0 is aggregated iff it sent an honest submission
        # (its own digest, signed with its own key), and the others always are.
        state = init_phase(_small_config(scheme=scheme, train=TrainConfig(local_epochs=1)))
        address = state.addresses[0]
        sent, others_sig_bytes = {}, []

        def send(sub):
            if sub.client_id != 0:
                others_sig_bytes.append(len(sub.sig.bytes))
                return sub
            d = sub.digest if digest[0] == "honest" else digest[1]
            s = _draw_sig(*sig, sub.sig)
            resigned = resign and isinstance(d, bytes)
            if resigned:
                s = sigsuite.sign(state.client_keys[0], d)
            sent.update(honest=sub, digest=d, sig=s, resigned=resigned)
            return dataclasses.replace(sub, digest=d, sig=s)

        receipts, aggregated = {}, []
        submit, aggregate = state.ledger.submit_update, fedcore.aggregate

        def recording_submit(address, round_, update_hash, sig):
            receipts[address] = submit(address, round_, update_hash, sig)
            return receipts[address]

        state.ledger.submit_update = recording_submit
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol.fedcore, "aggregate", lambda updates: (
                aggregated.extend(u.client_id for u in updates) or aggregate(updates)
            ))
            metrics = run_round(state, 1, tamper_hook=send)

        honest = sent["honest"]
        wire_digest, wire_sig = _on_the_wire(sent["digest"], sent["sig"], scheme)
        wire = (wire_sig.scheme, wire_digest + wire_sig.bytes)
        tx = next(tx for tx in state.ledger.chain.blocks[-1].transactions
                  if tx.kind is TxKind.SUBMIT_UPDATE and tx.sender == address)
        assert (tx.scheme, tx.payload) == wire
        is_honest = wire == (scheme, honest.digest + honest.sig.bytes) or (
            sent["resigned"] and wire_digest == honest.digest
        )
        assert aggregated == ([0, 1, 2] if is_honest else [1, 2])
        assert (metrics.verified_count, metrics.rejected_count) == (2 + is_honest, 1 - is_honest)
        receipt = receipts[address]
        assert receipt.gas_used > 0
        slots = state.ledger.state.verified_updates[1]
        assert (address in slots) == receipt.verified  # a rejected submit leaves no slot
        assert state.sig_bytes_total == sum(others_sig_bytes) + len(wire_sig.bytes)
        assert chain_verify(state.ledger.chain).intact


def _fedavg_oracle_initial(cfg):
    state = init_phase(cfg)
    return _fedavg_oracle(state, set(range(cfg.n_clients)), cfg.master_seed)


class TestOverheadRatio:
    def test_reference_values(self):
        assert overhead_ratio(0.609, 0.524, 0.05) == pytest.approx(0.02266, abs=1e-12)
        assert overhead_ratio(0.0, 0.0, 0.1) == 0.0
        assert overhead_ratio(0.5, 0.5, 1.0) == pytest.approx(0.001, abs=1e-15)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            overhead_ratio(1.0, 1.0, 0.0)
        with pytest.raises(ZeroDenominator):
            overhead_ratio(1.0, 1.0, -0.5)


class TestRunExperiment:
    def test_zero_rounds_reports_initial_accuracy(self):
        report = run_experiment(_small_config(rounds=0))
        assert report.rounds == []
        assert report.summary["accuracy"] == report.initial_accuracy
        assert report.final_accuracy == report.initial_accuracy

    def test_same_seed_identical_trajectories(self):
        a = run_experiment(_small_config())
        b = run_experiment(_small_config())
        assert [m.accuracy for m in a.rounds] == [m.accuracy for m in b.rounds]
        assert _trajectory(a) == _trajectory(b)

    def test_bc_and_nobc_trajectories_identical(self):
        bc = run_experiment(_small_config(blockchain=True))
        nobc = run_experiment(_small_config(blockchain=False))
        assert _trajectory(bc) == _trajectory(nobc)

    def test_scheme_independence_short(self):
        trajectories = [
            _trajectory(run_experiment(_small_config(scheme=s)))
            for s in (SchemeId.PQC, SchemeId.ECDSA, SchemeId.NONE)
        ]
        assert trajectories[0] == trajectories[1] == trajectories[2]

    def test_verified_and_rejected_partition_clients(self):
        report = run_experiment(_small_config())
        for m in report.rounds:
            assert m.verified_count + m.rejected_count == report.config.n_clients

    @pytest.mark.parametrize("scheme,expected", [(SchemeId.PQC, 3309.0), (SchemeId.NONE, 32.0)])
    def test_sig_size_mean_pinned(self, scheme, expected):
        report = run_experiment(_small_config(scheme=scheme))
        assert report.crypto_sizes["sig_size_mean_b"] == expected

    def test_ecdsa_sig_size_mean_is_mean_of_sent_signatures(self):
        # RFC 6979 signing is deterministic, so a second run of the same
        # config sends the same DER signatures.
        cfg = _small_config(scheme=SchemeId.ECDSA, rounds=3)
        sizes = []

        def record(sub):
            sizes.append(len(sub.sig.bytes))
            return sub

        state = init_phase(cfg)
        for t in range(1, cfg.rounds + 1):
            run_round(state, t, tamper_hook=record)
        report = run_experiment(cfg)
        assert len(sizes) == cfg.n_clients * cfg.rounds
        assert report.crypto_sizes["sig_size_mean_b"] == sum(sizes) / len(sizes)

    def test_report_json_serializable(self):
        import json

        report = run_experiment(_small_config())
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        assert report.config.name() in blob


# Per run: the SHA3-256 over the concatenated per-round model_digest hex
# strings, the chain head, and the SHA3-256 of the canonical report.json
# without its timing fields. A refactor of training, aggregation, the round
# loop or the ledger must leave all three unchanged; c05 only compares
# schemes with each other, so it cannot catch a change that alters every
# scheme's trajectory the same way. PQC has no entry: hedged ML-DSA signing
# makes its chain differ from run to run.
GOLDEN_TRAJECTORIES = [
    (
        dict(scheme=SchemeId.NONE, n_clients=3, rounds=10, master_seed=7),
        "5dc5555f5fce52d70e88cead64585e28c8492f0974482a87888d94d2bb776d68",
        "be89698a381eda074eb17e95e1065f637a715b26b8c1fdbcd6626f5e7a9cc3af",
        "f3aef6911e283097479c40b46f19586d1b9458e9b32cf55928fb581dfdd9f0d2",
    ),
    (
        dict(
            scheme=SchemeId.NONE, n_clients=16, rounds=5, master_seed=11,
            train=TrainConfig(local_epochs=1),
        ),
        "8ce7ef6c008f265c61cba2b97e32a3147f786af63f2e067be2082bf80fc4bad1",
        "f8737c40d5b155675b84a1fe6184c5d6ba41b53b4d458ec9ef90b35a482863a6",
        "71a685ac269a3ccb0ea6adb901470788efef23ad5c4e2abf76a5480558977e8b",
    ),
    (
        dict(
            scheme=SchemeId.ECDSA, n_clients=5, rounds=5, master_seed=3,
            blockchain=False, synth_samples=600,
        ),
        "d6389fbeb1c02d9497b2d10c7a0f37691383244f934cd10a64126cee97c38582",
        "08d378eef3c214dc8f163a97acd119e2f0a8faf097b7dd01ac1ef748e8d3482e",
        "653db4b82aab71c1fe5265ac0feaae301d3952f9fe1529d64716c7554d528000",
    ),
]


def _report_digest(report) -> str:
    """SHA3-256 of the report's canonical JSON, timing fields removed."""
    record = report.to_json_dict()
    for timed in (*record["rounds"], record["summary"]):
        for f in TIMING_FIELDS:
            del timed[f]
    return hashlib.sha3_256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "kwargs,expected,head,report_digest",
    GOLDEN_TRAJECTORIES,
    ids=["none-3c", "none-16c", "ecdsa-5c-nobc"],
)
def test_golden_trajectory(kwargs, expected, head, report_digest, monkeypatch):
    states = []  # run_experiment keeps no ledger; catch the state it builds
    monkeypatch.setattr(
        protocol, "init_phase", lambda cfg: states.append(init_phase(cfg)) or states[-1]
    )
    report = run_experiment(ExperimentConfig(**kwargs))
    joined = "".join(m.model_digest for m in report.rounds)
    assert hashlib.sha3_256(joined.encode()).hexdigest() == expected
    assert states[0].ledger.chain.head_hash.hex() == head
    assert _report_digest(report) == report_digest


class TestGasEfficiency:
    def test_pqc_gas_per_round_arithmetic(self):
        # 3 client updates + 1 aggregation record, all at the PQC target
        report = run_experiment(_small_config())
        assert report.gas_per_round == 4 * 1_724_100
        for m in report.rounds:
            assert m.mean_gas_per_update == 1_724_100

    def test_nobc_not_applicable(self):
        report = run_experiment(_small_config(blockchain=False))
        with pytest.raises(NotApplicable):
            gas_efficiency(report)

    def test_zero_gain_zero_efficiency(self):
        report = run_experiment(_small_config())
        frozen = dataclasses.replace(report, final_accuracy=report.initial_accuracy)
        _, per_gas = gas_efficiency(frozen)
        assert per_gas == 0.0


class TestConfig:
    def test_naming_convention(self):
        cfg = _small_config()
        assert cfg.name() == "synth-PQC-3c-BC"
        assert _small_config(blockchain=False, scheme=SchemeId.NONE).name() == (
            "synth-NONE-3c-NoBC"
        )
        csv_cfg = _small_config(dataset="csv:/data/readings.csv")
        assert csv_cfg.name() == "readings-PQC-3c-BC"

    def test_nobc_mean_tx_time_is_fixed_delay(self):
        for latency, expected in ((None, 0.05), ((0.2, 0.2), 0.2)):
            report = run_experiment(_small_config(blockchain=False, latency=latency))
            for m in report.rounds:
                assert m.mean_tx_time_s == expected

    def test_bc_default_latency_constant(self):
        report = run_experiment(_small_config())
        for m in report.rounds:
            assert m.mean_tx_time_s == pytest.approx(0.32)

    def test_derive_seed_stable_and_tag_sensitive(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_uniform_latency_range_end_to_end(self):
        for blockchain in (True, False):
            cfg = _small_config(latency=(0.1, 0.5), rounds=3, blockchain=blockchain)
            report = run_experiment(cfg)
            for m in report.rounds:
                assert 0.1 <= m.mean_tx_time_s <= 0.5
            spread = {m.mean_tx_time_s for m in report.rounds}
            assert len(spread) > 1  # actually sampling, not a constant

    def test_csv_dataset_end_to_end(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["f0,f1,f2,label"]
        for _ in range(120):
            label = int(rng.integers(0, 2))
            feats = rng.standard_normal(3) + 3.0 * label
            lines.append(",".join(f"{v:.4f}" for v in feats) + f",{label}")
        path = tmp_path / "readings.csv"
        path.write_text("\n".join(lines) + "\n")

        cfg = _small_config(dataset=f"csv:{path}", n_clients=2, rounds=2)
        report = run_experiment(cfg)
        assert report.config.name() == "readings-PQC-2c-BC"
        assert len(report.rounds) == 2
        assert 0.0 <= report.final_accuracy <= 1.0
