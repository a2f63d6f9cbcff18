"""Protocol contracts: initialization, the round loop, metrics, oracles."""

import copy
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
from pqsbfl.errors import NoVerifiedUpdates, ValidationError
from pqsbfl.fedcore import TrainConfig
from pqsbfl.ledger import DEFAULT_GAS_TARGETS, TxKind, chain_verify
from pqsbfl.protocol import (
    TIMING_FIELDS,
    ExperimentConfig,
    derive_seed,
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


def _record_submits(state) -> list:
    """Wrap the ledger's ``submit_update``; returns the list each submission's
    ``(address, round, receipt)`` is appended to."""
    sent = []
    submit = state.ledger.submit_update

    def recording_submit(address, round_, update_hash, sig):
        sent.append((address, round_, submit(address, round_, update_hash, sig)))
        return sent[-1][2]

    state.ledger.submit_update = recording_submit
    return sent


def _rejected_none_gas(state) -> int:
    """Gas a rejected NONE submission with a 32-byte signature is charged."""
    return state.ledger.gas.submit_gas(SchemeId.NONE, sigsuite.HASH_BYTES, stored=False)


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
        dict(latency=NAN),
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
        dict(latency=-0.1),
        dict(latency=INF),
        dict(scheme=SchemeId.NONE, gas_targets={SchemeId.PQC: 2_000_000}),
        dict(gas_targets={**DEFAULT_GAS_TARGETS, SchemeId.NONE: 1000}),
        dict(gas_targets={**DEFAULT_GAS_TARGETS, "RSA": 200_000}),
        # a round reports twice the latency, and overhead_ratio divides by it
        dict(latency=1e308),
        dict(latency=1e-320),
        dict(train=TrainConfig(learning_rate=1e300)),  # inf as the float32 training uses
    ], ids=["alpha", "train.learning_rate", "gas_targets", "latency.low", "latency.high",
            "gas_targets.missing", "gas_targets.below_fixed_costs", "gas_targets.unknown_scheme",
            "latency.double_overflows", "latency.reciprocal_overflows",
            "train.learning_rate.float32_overflow"])
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
        cfg = _small_config(n_clients=0, alpha=-1.0, latency=-0.5)
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
    def test_every_model_shares_the_global_layout(self, monkeypatch):
        state = init_phase(_small_config(scheme=SchemeId.NONE))
        layout = state.global_params.layout
        admitted, aggregate = [], fedcore.aggregate
        monkeypatch.setattr(
            fedcore, "aggregate", lambda updates: admitted.extend(updates) or aggregate(updates)
        )
        for t in (1, 2):
            run_round(state, t)
        assert len(admitted) == 2 * state.config.n_clients
        assert all(u.params.layout is layout for u in admitted)
        assert state.global_params.layout is layout

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

    def test_failure_after_submit_closes_block_and_keeps_model(self, monkeypatch):
        state = init_phase(_small_config(scheme=SchemeId.NONE))
        before = sigsuite.digest_model(state.global_params)
        evaluate, calls = fedcore.evaluate, []

        def fail_once(params, dataset):
            calls.append(params)
            if len(calls) == 1:
                raise RuntimeError("evaluation failed")
            return evaluate(params, dataset)

        monkeypatch.setattr(fedcore, "evaluate", fail_once)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            run_round(state, 1)
        chain = state.ledger.chain
        # round 1's block holds its three updates, and nothing is left pending
        assert [(tx.kind, tx.round) for tx in chain.blocks[-1].transactions] == [
            (TxKind.SUBMIT_UPDATE, 1)
        ] * 3
        assert copy.deepcopy(state.ledger).mine_block().transactions == ()
        assert sigsuite.digest_model(state.global_params) == before
        assert run_round(state, 2).verified_count == 3
        assert [tx.round for tx in chain.blocks[-1].transactions] == [2] * 4
        assert len(chain.blocks) == 4
        assert chain_verify(chain).intact

    def test_overflowing_client_model_raises_no_warning(self):
        # Client 0 re-signs a finite model whose arithmetic overflows float32.
        # Pytest turns warnings into errors, so a warning would abort round 1.
        state = init_phase(_small_config(scheme=SchemeId.NONE, synth_samples=300))

        def overflow(sub):
            if sub.client_id != 0:
                return sub
            model = fedcore.ModelParams(np.full(sub.params.values.size, 3e38), sub.params.layout)
            digest = sigsuite.digest_model(model)
            return dataclasses.replace(
                sub, params=model, digest=digest, sig=sigsuite.sign(state.client_keys[0], digest)
            )

        metrics = run_round(state, 1, tamper_hook=overflow)
        assert metrics.verified_count == 3
        assert np.isfinite(state.global_params.values).all()
        # every client now trains to a non-finite model; robust aggregation is out of scope
        with pytest.raises(NoVerifiedUpdates):
            run_round(state, 2)

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
        sent = _record_submits(state)
        metrics = run_round(state, 1, tamper_hook=rename)
        # sent from the address nobody registered: rejected, charged, no write
        assert (metrics.verified_count, metrics.rejected_count) == (2, 1)
        address, _, receipt = sent[0]
        assert address == protocol._UNREGISTERED_ADDRESS
        assert state.ledger.chain.blocks[-1].transactions[0].sender == address
        assert not receipt.verified and receipt.gas_used == _rejected_none_gas(state) > 0
        assert list(state.ledger.state.verified_updates[1]) == state.addresses[1:]
        max_ulps = np.spacing(np.abs(oracle))
        assert np.all(np.abs(state.global_params.values - oracle) <= max_ulps)
        assert chain_verify(state.ledger.chain).intact

    def test_two_strangers_in_one_round_both_rejected_and_charged(self):
        state = init_phase(_small_config(scheme=SchemeId.NONE))
        strangers = {0: 3, 1: "1"}  # an id the run does not have, and a non-integer
        sent = _record_submits(state)
        metrics = run_round(state, 1, tamper_hook=lambda sub: (
            dataclasses.replace(sub, client_id=strangers[sub.client_id])
            if sub.client_id in strangers else sub
        ))
        assert (metrics.verified_count, metrics.rejected_count) == (1, 2)
        rejected = (protocol._UNREGISTERED_ADDRESS, False, _rejected_none_gas(state))
        assert [(a, receipt.verified, receipt.gas_used) for a, _, receipt in sent[:2]] == [
            rejected, rejected
        ]
        assert list(state.ledger.state.verified_updates[1]) == [state.addresses[2]]
        assert chain_verify(state.ledger.chain).intact

    def test_fresh_unknown_id_each_round_rejected_and_charged(self):
        cfg = _small_config(scheme=SchemeId.NONE, rounds=3)
        state = init_phase(cfg)
        sent = _record_submits(state)
        for t in range(1, cfg.rounds + 1):
            fresh = cfg.n_clients + t  # never sent before
            run_round(state, t, tamper_hook=lambda sub: (
                dataclasses.replace(sub, client_id=fresh) if sub.client_id == 0 else sub
            ))
        receipts = {
            round_: receipt for address, round_, receipt in sent
            if address == protocol._UNREGISTERED_ADDRESS
        }
        assert list(receipts) == [1, 2, 3]
        for receipt in receipts.values():
            assert not receipt.verified
            assert receipt.gas_used == _rejected_none_gas(state) > 0

    @pytest.mark.parametrize("scheme", [SchemeId.NONE, SchemeId.ECDSA], ids=["none", "ecdsa"])
    def test_chain_head_reproducible_for_fixed_seed(self, scheme):
        def head_hash():
            state = init_phase(_small_config(scheme=scheme))
            run_round(state, 1)
            return state.ledger.chain.head_hash

        assert head_hash() == head_hash()

    def test_round_numbering_starts_at_one(self):
        state = init_phase(_small_config())
        contract = state.ledger.state
        before = (state.ledger.chain.head_hash, len(state.ledger.chain.blocks),
                  dict(contract.registry))
        for t in (0, 2**63):  # 2**63 does not fit the ledger's signed 64-bit round
            with pytest.raises(ValueError):
                run_round(state, t)
        assert (state.ledger.chain.head_hash, len(state.ledger.chain.blocks),
                contract.registry) == before
        assert contract.verified_updates == contract.aggregation_records == {}
        assert state.sig_bytes_total == 0

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
    st.tuples(st.just("sent"), st.none()),  # the digest of the params sent
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
# Ways client 0 changes its own model in place after it was built and
# digested. The first five make the ModelParams constructor raise, one
# each of LayoutMismatch, TypeError, OverflowError, ValueError and
# AttributeError, and an array for a layout raises TypeError too. Float64
# values past the float32 range build a model of infs, which the finiteness
# test excludes under any warning filter. A reshape and a float64 copy that
# rounds to the same float32 values (each value nudged by a quarter ulp)
# hold the honest model.
_IN_PLACE = {
    "list": lambda p: setattr(p, "values", [0.0] * 10),
    "object": lambda p: setattr(p, "values", np.full(p.values.size, object(), dtype=object)),
    "int past float": lambda p: setattr(p, "values", [10**400] * p.values.size),
    "text": lambda p: setattr(p, "values", np.full(p.values.size, "x")),
    "no layout": lambda p: setattr(p, "layout", None),
    "array layout": lambda p: setattr(p, "layout", np.zeros(p.values.size)),
    "float64 past float32": lambda p: setattr(p, "values", np.full(p.values.size, 1e300)),
    "reshape": lambda p: setattr(p.values, "shape", (-1, 1)),
    "nudge": lambda p: setattr(
        p, "values", p.values + 0.25 * np.spacing(p.values).astype(np.float64)
    ),
}
_HONEST_IN_PLACE = {("in place", "reshape"), ("in place", "nudge")}
# Client 0's off-chain parameters: its trained model, a column or row view
# of it (the same canonical bytes, so honest), a model the round must not
# aggregate (another layout, all NaN, one inf), a value that is not one, or
# its trained model changed in place.
_PARAMS = st.one_of(
    st.tuples(st.just("honest"), st.none()),
    st.tuples(st.just("view"), st.sampled_from([(-1, 1), (1, -1)])),
    st.tuples(st.just("model"), st.sampled_from(["layout", "nan", "inf"])),
    st.tuples(st.just("value"), st.one_of(st.none(), st.text(max_size=3), st.binary(max_size=8))),
    st.tuples(st.just("in place"), st.sampled_from(sorted(_IN_PLACE))),
)


def _draw_params(form, value, honest: fedcore.ModelParams):
    if form in ("honest", "in place"):  # an in-place change comes after the digest
        return honest
    if form == "value":
        return value
    if form == "view":
        return fedcore.ModelParams(honest.values.reshape(value), honest.layout)
    if value == "layout":
        return fedcore.ModelParams(np.zeros(4), fedcore.Layout((("w", (2, 2)),)))
    values = honest.values.copy()
    if value == "nan":
        values[:] = NAN
    else:
        values[0] = INF
    return fedcore.ModelParams(values, honest.layout)


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
        params=_PARAMS,
        resign=st.booleans(),
    )
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("object", None),
             params=("honest", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("bytes", None),
             params=("honest", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("tag", "NONE"),
             params=("honest", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("value", "digest"), sig=("honest", None),
             params=("honest", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("value", None), sig=("honest", None),
             params=("honest", None), resign=True)
    @example(scheme=SchemeId.PQC, digest=("honest", None), sig=("honest", None),
             params=("honest", None), resign=False)
    @example(scheme=SchemeId.PQC, digest=("honest", None), sig=("object", None),
             params=("honest", None), resign=True)
    @example(scheme=SchemeId.PQC, digest=("value", bytes(32)), sig=("honest", None),
             params=("honest", None), resign=True)
    @example(scheme=SchemeId.PQC, digest=("honest", None), sig=("tag", "PQC"),
             params=("honest", None), resign=False)
    @example(scheme=SchemeId.PQC, digest=("value", None), sig=("bytes", bytes(8)),
             params=("honest", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("value", None), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("value", "x"), resign=False)
    @example(scheme=SchemeId.ECDSA, digest=("honest", None), sig=("honest", None),
             params=("value", b"raw"), resign=False)
    @example(scheme=SchemeId.NONE, digest=("sent", None), sig=("honest", None),
             params=("model", "layout"), resign=True)
    @example(scheme=SchemeId.NONE, digest=("sent", None), sig=("honest", None),
             params=("model", "nan"), resign=True)
    @example(scheme=SchemeId.ECDSA, digest=("sent", None), sig=("honest", None),
             params=("model", "inf"), resign=True)
    @example(scheme=SchemeId.PQC, digest=("sent", None), sig=("honest", None),
             params=("model", "nan"), resign=True)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("view", (-1, 1)), resign=False)
    @example(scheme=SchemeId.PQC, digest=("sent", None), sig=("honest", None),
             params=("view", (1, -1)), resign=True)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("in place", "list"), resign=False)
    @example(scheme=SchemeId.ECDSA, digest=("honest", None), sig=("honest", None),
             params=("in place", "reshape"), resign=False)
    @example(scheme=SchemeId.NONE, digest=("sent", None), sig=("honest", None),
             params=("in place", "object"), resign=True)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("in place", "int past float"), resign=False)
    @example(scheme=SchemeId.ECDSA, digest=("honest", None), sig=("honest", None),
             params=("in place", "text"), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("in place", "no layout"), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("in place", "array layout"), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("in place", "float64 past float32"), resign=False)
    @example(scheme=SchemeId.NONE, digest=("honest", None), sig=("honest", None),
             params=("in place", "nudge"), resign=False)
    @example(scheme=SchemeId.PQC, digest=("sent", None), sig=("honest", None),
             params=("in place", "nudge"), resign=True)
    def test_client_fields_reject_only_that_client(self, scheme, digest, sig, params, resign):
        # Whatever client 0 puts in its digest, signature and parameters, the
        # round completes; client 0 is aggregated iff it sent an honest
        # submission (its own model and digest, the digest signed with its
        # own key), and the others always are. A model of another layout or
        # with a non-finite value is not honest even when its digest is
        # signed and bound; a view of its own model in another shape is, and
        # so is its model changed in place to other values that read as the
        # same float32 model. FedAvg averages an honest client 0 at the
        # float32 values it trained, whatever form they were sent in.
        state = init_phase(_small_config(scheme=scheme, train=TrainConfig(local_epochs=1)))
        address = state.addresses[0]
        sent, others_sig_bytes = {}, []

        def send(sub):
            if sub.client_id != 0:
                others_sig_bytes.append(len(sub.sig.bytes))
                return sub
            trained = fedcore.ModelParams(sub.params.values.copy(), sub.params.layout)
            p = _draw_params(*params, sub.params)
            if digest[0] == "sent" and isinstance(p, fedcore.ModelParams):
                d = sigsuite.digest_model(p)
            else:
                d = digest[1] if digest[0] == "value" else sub.digest
            if params[0] == "in place":
                _IN_PLACE[params[1]](p)
            s = _draw_sig(*sig, sub.sig)
            resigned = resign and isinstance(d, bytes)
            if resigned:
                s = sigsuite.sign(state.client_keys[0], d)
            sent.update(honest=sub, trained=trained, digest=d, sig=s, resigned=resigned)
            return dataclasses.replace(sub, params=p, digest=d, sig=s)

        receipts, aggregated = {}, []
        submit, aggregate = state.ledger.submit_update, fedcore.aggregate

        def recording_submit(address, round_, update_hash, sig):
            receipts[address] = submit(address, round_, update_hash, sig)
            return receipts[address]

        state.ledger.submit_update = recording_submit
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol.fedcore, "aggregate", lambda updates: (
                aggregated.extend(updates) or aggregate(updates)
            ))
            metrics = run_round(state, 1, tamper_hook=send)

        honest = sent["honest"]
        wire_digest, wire_sig = _on_the_wire(sent["digest"], sent["sig"], scheme)
        wire = (wire_sig.scheme, wire_digest + wire_sig.bytes)
        tx = next(tx for tx in state.ledger.chain.blocks[-1].transactions
                  if tx.kind is TxKind.SUBMIT_UPDATE and tx.sender == address)
        assert (tx.scheme, tx.payload) == wire
        is_honest = (params[0] in ("honest", "view") or params in _HONEST_IN_PLACE) and (
            wire == (scheme, honest.digest + honest.sig.bytes)
            or (sent["resigned"] and wire_digest == honest.digest)
        )
        assert [u.client_id for u in aggregated] == ([0, 1, 2] if is_honest else [1, 2])
        oracle = fedcore.aggregate([
            dataclasses.replace(u, params=sent["trained"]) if u.client_id == 0 else u
            for u in aggregated
        ])
        assert metrics.model_digest == sigsuite.digest_model(oracle).hex()
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
        assert overhead_ratio(1.0, 1.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            overhead_ratio(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            overhead_ratio(1.0, 1.0, float("nan"))


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
# strings, the chain head, the last block's state root, and the SHA3-256 of
# the canonical report.json without its timing fields. A refactor of
# training, aggregation, the round loop or the ledger must leave all four
# unchanged; c05 only compares schemes with each other, so it cannot catch a
# change that alters every scheme's trajectory the same way. The PQC entry's
# head is None, unchecked: hedged ML-DSA signing makes its signatures, and so
# its transaction and block hashes, differ from run to run. Its state root
# and report are fixed all the same, because records hold update hashes, not
# signatures, and an ML-DSA-65 signature always has 3309 bytes.
GOLDEN_TRAJECTORIES = [
    (
        dict(scheme=SchemeId.NONE, n_clients=3, rounds=10, master_seed=7),
        "5dc5555f5fce52d70e88cead64585e28c8492f0974482a87888d94d2bb776d68",
        "be89698a381eda074eb17e95e1065f637a715b26b8c1fdbcd6626f5e7a9cc3af",
        "f9531a214ab94600cc366d7682051509a13db98346a2c40f3726eb98a8599ab0",
        "a07ff875af82703607d1bba6e787dac50d9458b0561be0f829df7f30eb011b4a",
    ),
    (
        dict(
            scheme=SchemeId.NONE, n_clients=16, rounds=5, master_seed=11,
            train=TrainConfig(local_epochs=1),
        ),
        "8ce7ef6c008f265c61cba2b97e32a3147f786af63f2e067be2082bf80fc4bad1",
        "f8737c40d5b155675b84a1fe6184c5d6ba41b53b4d458ec9ef90b35a482863a6",
        "2dd2e6efd17fe03d7e7be2056f181c0ce0e2fbd255371e999215c265aad2d49c",
        "1f6a9bf46932a579cbcacc6ca3740a600d9e75eb6611883afe50d282d0579ae2",
    ),
    (
        dict(
            scheme=SchemeId.ECDSA, n_clients=5, rounds=5, master_seed=3,
            blockchain=False, synth_samples=600,
        ),
        "d6389fbeb1c02d9497b2d10c7a0f37691383244f934cd10a64126cee97c38582",
        "08d378eef3c214dc8f163a97acd119e2f0a8faf097b7dd01ac1ef748e8d3482e",
        "02914ab8040dd694510bf7c279f97be4c7293eeac698bf9a7be365d29a280e73",
        "640723394c811d47fa6128cd55ee56f1d3f55ca556bfdbb1a3ec978cf0e1f8ba",
    ),
    (
        dict(scheme=SchemeId.PQC, n_clients=3, rounds=4, master_seed=7),
        "bed68ce4249e4dfe0663c0b958422651bc37f8011304dda28bbfadb5d80b8f20",
        None,
        "b733b301ad173f7f56684f6314fc485e30c4368565b3e342150bae2a57795634",
        "533d7c6c51f046e96cd96508f6299ec3b7bc224a4af41e8fe068fe0d83b477d7",
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
    "kwargs,expected,head,state_root,report_digest",
    GOLDEN_TRAJECTORIES,
    ids=["none-3c", "none-16c", "ecdsa-5c-nobc", "pqc-3c"],
)
def test_golden_trajectory(kwargs, expected, head, state_root, report_digest, monkeypatch):
    states = []  # run_experiment keeps no ledger; catch the state it builds
    monkeypatch.setattr(
        protocol, "init_phase", lambda cfg: states.append(init_phase(cfg)) or states[-1]
    )
    report = run_experiment(ExperimentConfig(**kwargs))
    joined = "".join(m.model_digest for m in report.rounds)
    chain = states[0].ledger.chain
    assert hashlib.sha3_256(joined.encode()).hexdigest() == expected
    if head is not None:
        assert chain.head_hash.hex() == head
    assert chain.blocks[-1].state_root.hex() == state_root
    assert _report_digest(report) == report_digest


class TestGasEfficiency:
    def test_pqc_gas_per_round_arithmetic(self):
        # 3 client updates + 1 aggregation record, all at the PQC target
        report = run_experiment(_small_config())
        assert report.summary["total_gas"] == 4 * 1_724_100
        for m in report.rounds:
            assert m.mean_gas_per_update == 1_724_100


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
        # No aggregation record without a blockchain: one confirmation per round.
        for latency, expected in ((None, 0.05), (0.2, 0.2)):
            report = run_experiment(_small_config(blockchain=False, latency=latency))
            for m in report.rounds:
                assert m.mean_tx_time_s == expected
                assert m.simulated_latency_s == expected

    def test_bc_default_latency_constant(self):
        # The updates' confirmation, then the aggregation's.
        for latency, expected in ((None, 0.32), (0.2, 0.2)):
            report = run_experiment(_small_config(latency=latency))
            for m in report.rounds:
                assert m.mean_tx_time_s == expected
                assert m.simulated_latency_s == 2 * expected

    @pytest.mark.parametrize("blockchain", [True, False], ids=["BC", "NoBC"])
    def test_zero_latency_reports_zero_overhead(self, blockchain):
        report = run_experiment(
            _small_config(scheme=SchemeId.NONE, blockchain=blockchain, latency=0.0)
        )
        for m in report.rounds:
            assert m.overhead_ratio == 0.0
            assert m.mean_tx_time_s == 0.0
            assert m.simulated_latency_s == 0.0
            assert m.round_time_s == m.compute_time_s
        json.dumps(report.to_json_dict(), allow_nan=False)

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
    def test_seed_outside_u64_rejected(self, seed):
        # derive_seed would fold it into range: -1 aliases 2**64 - 1, 2**64 aliases 0.
        assert _small_config(master_seed=seed).violations() == [
            f"master_seed must be in [0, 2**64), got {seed}"
        ]
        assert _small_config(master_seed=seed % 2**64).violations() == []

    def test_huge_integer_gas_target_is_reported(self):
        # beyond any float, and past the 2**63 bound on gas: reported, never raised
        targets = {**DEFAULT_GAS_TARGETS, SchemeId.PQC: 10**400}
        (violation,) = _small_config(gas_targets=targets).violations()
        assert violation.startswith("gas target for PQC: ")

    def test_derive_seed_stable_and_tag_sensitive(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

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
