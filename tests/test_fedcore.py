"""Federated-core contracts: data generation, partitioning, training, FedAvg."""

import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqsbfl.errors import (
    EmptyUpdateSet,
    InvalidDimensions,
    LayoutMismatch,
    ParseError,
    TooManyClients,
)
from pqsbfl.fedcore import (
    ClientUpdate,
    Dataset,
    Layout,
    ModelParams,
    TrainConfig,
    aggregate,
    canonical_bytes,
    cross_entropy,
    evaluate,
    generate_synthetic,
    init_params,
    load_csv,
    local_train,
    partition_dirichlet,
    split_train_test,
)


def _full_partition(dataset: Dataset) -> np.ndarray:
    return np.arange(dataset.n_samples)


def _reference_partition(dataset, n_clients, alpha, seed):
    """Frozen loop-based partition_dirichlet (per-client buckets), the oracle
    the one-pass version must match byte for byte."""
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(n_clients)]
    for c in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.labels == c)
        if len(idx) == 0:
            continue
        idx = rng.permutation(idx)
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        cuts = (np.cumsum(proportions)[:-1] * len(idx)).round().astype(int)
        for client, chunk in enumerate(np.split(idx, cuts)):
            buckets[client].extend(chunk.tolist())

    for client in range(n_clients):
        while not buckets[client]:
            donor = max(range(n_clients), key=lambda i: len(buckets[i]))
            buckets[client].append(buckets[donor].pop())

    return [np.sort(np.asarray(bucket, dtype=np.int64)) for bucket in buckets]


# Both oracle datasets hold 48 training samples; the second has no class 1.
_ORACLE_TRAIN = 48
_ORACLE_DATASETS = {
    "synthetic": generate_synthetic(4, 60, 6, 4)[0],
    "absent-class": Dataset(np.zeros((_ORACLE_TRAIN, 2)), np.tile([0, 2, 2], 16), 3),
}


class TestGenerateSynthetic:
    def test_same_seed_byte_identical(self):
        a_train, a_test = generate_synthetic(9, 500, 8, 3)
        b_train, b_test = generate_synthetic(9, 500, 8, 3)
        assert a_train.features.tobytes() == b_train.features.tobytes()
        assert a_train.labels.tobytes() == b_train.labels.tobytes()
        assert a_test.features.tobytes() == b_test.features.tobytes()

    # sha3-256 over train features, train labels, test features and test
    # labels bytes. The cases are the workloads' shape, the n_features <
    # n_classes branch, one row past a 256-row block and a tiny table.
    @pytest.mark.parametrize("args, digest", [
        ((0, 2000, 20, 5), "82ca3bc2b41aa07ce0ab778960131e66469894edee9ea7e5df427f14969b85f2"),
        ((7, 50, 3, 7), "15e6718e9e9335853d23765e67b7179a36caeba4937e9ae4ac5da60de2fd430f"),
        ((3, 257, 4, 2), "a629f0cf33dd60a93087093f5ad3f25b0f955a60798ae55af86e313aba78cef3"),
        ((5, 10, 2, 2), "8b5149bca05c8f896dbf0a17fd43627761a48a04e257a30afb4c3f6f41b6ed18"),
    ])
    def test_known_answer(self, args, digest):
        h = hashlib.sha3_256()
        for dataset in generate_synthetic(*args):
            h.update(dataset.features.tobytes())
            h.update(dataset.labels.tobytes())
        assert h.hexdigest() == digest

    def test_scratch_below_half_a_float64_table(self):
        # 2000 x 20 float64 is 320,000 B; a build that kept or mapped one
        # whole-table draw would peak past half of it above what it returns.
        tracemalloc.start()
        try:
            train, test = generate_synthetic(0, 2000, 20, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for d in (train, test) for a in (d.features, d.labels))
        assert peak - kept < 160_000

    def test_split_is_disjoint_80_20(self):
        train, test = generate_synthetic(1, 1000, 8, 4)
        assert train.n_samples == 800
        assert test.n_samples == 200

    def test_two_class_task_is_learnable(self):
        # Threshold pinned after observing 0.955 with these exact seeds.
        train, test = generate_synthetic(11, 1000, 10, 2)
        params = init_params(10, 2, seed=3)
        trained = local_train(params, train, _full_partition(train), TrainConfig(), 5)
        assert evaluate(trained, test) > 0.95

    def test_preconditions(self):
        with pytest.raises(InvalidDimensions):
            generate_synthetic(0, n_samples=1, n_features=4, n_classes=2)
        with pytest.raises(InvalidDimensions):
            generate_synthetic(0, n_samples=10, n_features=4, n_classes=1)
        with pytest.raises(InvalidDimensions):
            generate_synthetic(0, n_samples=10, n_features=0, n_classes=2)


class TestDataset:
    @pytest.mark.parametrize("shape, labels, match", [
        ((3, 2), [0, 1], "matching labels"),
        ((0, 2), [], "at least one sample"),
        ((2, 2), [0, 3], r"\[0, n_classes\)"),
    ], ids=["lengths", "empty", "label"])
    def test_malformed_table_rejected(self, shape, labels, match):
        with pytest.raises(InvalidDimensions, match=match):
            Dataset(np.zeros(shape), np.array(labels, dtype=np.int64), n_classes=3)


class TestPartitionDirichlet:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_clients=st.integers(1, 12),
        alpha=st.floats(0.05, 20.0),
    )
    def test_partition_is_disjoint_covering_nonempty(self, seed, n_clients, alpha):
        train, _ = generate_synthetic(4, 300, 6, 4)
        parts = partition_dirichlet(train, n_clients, alpha, seed)
        assert len(parts) == n_clients
        seen = np.concatenate(parts)
        assert len(seen) == len(set(seen.tolist())) == train.n_samples
        assert all(len(p) >= 1 for p in parts)

    def test_single_client_gets_everything(self):
        train, _ = generate_synthetic(4, 120, 6, 3)
        (part,) = partition_dirichlet(train, 1, 0.5, seed=0)
        assert np.array_equal(part, np.arange(train.n_samples))

    def test_deterministic_in_seed(self):
        train, _ = generate_synthetic(4, 300, 6, 4)
        a = partition_dirichlet(train, 5, 0.5, seed=77)
        b = partition_dirichlet(train, 5, 0.5, seed=77)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_low_alpha_produces_visible_skew(self):
        # Observed: all 20 seeds yield at least one client with >50% of its
        # samples from one class at alpha=0.5, 10 clients.
        for seed in range(20):
            train, _ = generate_synthetic(50 + seed, 2000, 20, 5)
            parts = partition_dirichlet(train, 10, 0.5, seed=seed)
            skew = []
            for p in parts:
                counts = np.bincount(train.labels[p], minlength=5)
                skew.append(counts.max() / counts.sum())
            assert max(skew) > 0.5

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(_ORACLE_DATASETS)),
        seed=st.integers(0, 2**64 - 1),
        n_clients=st.integers(1, _ORACLE_TRAIN),
        alpha=st.floats(0.01, 20.0),
    )
    @example(name="synthetic", seed=0, n_clients=_ORACLE_TRAIN - 1, alpha=0.01)
    @example(name="synthetic", seed=1, n_clients=_ORACLE_TRAIN, alpha=0.5)
    @example(name="absent-class", seed=2, n_clients=_ORACLE_TRAIN - 1, alpha=20.0)
    @example(name="absent-class", seed=3, n_clients=_ORACLE_TRAIN, alpha=0.01)
    def test_matches_loop_reference(self, name, seed, n_clients, alpha):
        train = _ORACLE_DATASETS[name]
        assert train.n_samples == _ORACLE_TRAIN
        got = partition_dirichlet(train, n_clients, alpha, seed)
        want = _reference_partition(train, n_clients, alpha, seed)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n_clients", [256, 257])
    def test_matches_loop_reference_past_one_byte_owners(self, n_clients):
        # 257 clients and up need owners wider than one byte
        train, _ = generate_synthetic(9, 700, 4, 5)
        got = partition_dirichlet(train, n_clients, 0.3, seed=n_clients)
        want = _reference_partition(train, n_clients, 0.3, seed=n_clients)
        assert len(got) == len(want) == n_clients
        assert all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got, want))

    def test_too_many_clients(self):
        train, _ = generate_synthetic(4, 40, 6, 4)
        with pytest.raises(TooManyClients):
            partition_dirichlet(train, train.n_samples + 1, 0.5, seed=0)

    def test_invalid_alpha_and_clients(self):
        train, _ = generate_synthetic(4, 40, 6, 4)
        with pytest.raises(ValueError):
            partition_dirichlet(train, 0, 0.5, seed=0)
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                partition_dirichlet(train, 2, alpha, seed=0)


class TestLocalTrain:
    def test_zero_epochs_returns_global_unchanged(self):
        train, _ = generate_synthetic(2, 200, 6, 3)
        params = init_params(6, 3, seed=1)
        out = local_train(params, train, _full_partition(train), TrainConfig(local_epochs=0), 0)
        assert np.array_equal(out.values, params.values)
        assert out.values is not params.values

    def test_loss_strictly_decreases(self):
        train, _ = generate_synthetic(2, 400, 8, 4)
        params = init_params(8, 4, seed=1)
        part = _full_partition(train)
        before = cross_entropy(params, train, part)
        trained = local_train(params, train, part, TrainConfig(), 9)
        after = cross_entropy(trained, train, part)
        assert after < before

    def test_bitwise_deterministic(self):
        train, _ = generate_synthetic(2, 300, 8, 4)
        params = init_params(8, 4, seed=1)
        part = np.arange(0, train.n_samples, 2)
        a = local_train(params, train, part, TrainConfig(), 123)
        b = local_train(params, train, part, TrainConfig(), 123)
        assert a.values.tobytes() == b.values.tobytes()

    def test_global_not_mutated(self):
        train, _ = generate_synthetic(2, 200, 6, 3)
        params = init_params(6, 3, seed=1)
        snapshot = params.values.copy()
        local_train(params, train, _full_partition(train), TrainConfig(), 5)
        assert np.array_equal(params.values, snapshot)

    def test_layout_mismatch(self):
        train, _ = generate_synthetic(2, 200, 6, 3)
        wrong = init_params(7, 3, seed=1)
        with pytest.raises(LayoutMismatch):
            local_train(wrong, train, _full_partition(train), TrainConfig(), 0)

    def test_zero_batch_size_rejected(self):
        train, _ = generate_synthetic(2, 200, 6, 3)
        params = init_params(6, 3, seed=1)
        with pytest.raises(ValueError, match="batch_size"):
            local_train(params, train, _full_partition(train), TrainConfig(batch_size=0), 0)

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), 1e300, 1e-50],
                             ids=["nan", "inf", "float32_overflow", "float32_zero"])
    def test_learning_rate_judged_as_float32(self, learning_rate):
        train, _ = generate_synthetic(2, 200, 6, 3)
        params = init_params(6, 3, seed=1)
        with pytest.raises(ValueError, match="learning_rate"):
            local_train(params, train, _full_partition(train),
                        TrainConfig(learning_rate=learning_rate), 0)

    def test_overflowing_model_raises_no_warning(self):
        # Under pytest's warnings-as-errors filter: the values a client may
        # hold overflow float32 arithmetic, and the caller judges the result.
        train, test = generate_synthetic(2, 200, 6, 3)
        layout = init_params(6, 3, seed=1).layout
        params = ModelParams(np.full(layout.size, 3e38), layout)
        trained = local_train(params, train, _full_partition(train), TrainConfig(), 5)
        assert not np.isfinite(trained.values).all()
        assert 0.0 <= evaluate(params, test) <= 1.0
        assert not math.isfinite(cross_entropy(params, train))

    def test_layout_with_other_layers_mismatch(self):
        # Both layers have the dataset's dimensions, but the MLP's hidden.bias
        # and output.weight are missing.
        train, test = generate_synthetic(1, 200, 4, 3)
        layout = Layout((("hidden.weight", (4, 32)), ("output.bias", (3,))))
        params = ModelParams(np.zeros(layout.size, np.float32), layout)
        with pytest.raises(LayoutMismatch):
            evaluate(params, test)
        with pytest.raises(LayoutMismatch):
            local_train(params, train, _full_partition(train), TrainConfig(), 0)


class TestAggregate:
    def _scalar_update(self, cid, value, n):
        params = ModelParams(np.array([value], dtype=np.float32), Layout((("w", (1,)),)))
        return ClientUpdate(cid, params, n)

    def test_identical_updates_fixed_point(self):
        train, _ = generate_synthetic(2, 100, 6, 3)
        p = init_params(6, 3, seed=4)
        updates = [ClientUpdate(i, p.copy(), 10 + i) for i in range(3)]
        out = aggregate(updates)
        assert np.array_equal(out.values, p.values)

    def test_equal_weights_arithmetic_mean(self):
        out = aggregate([self._scalar_update(0, 0.0, 1), self._scalar_update(1, 2.0, 1)])
        assert out.values[0] == 1.0

    def test_weighted_mean_hand_computed(self):
        # (1*6 + 2*3 + 3*1) / 6 = 2.5
        out = aggregate(
            [
                self._scalar_update(0, 6.0, 1),
                self._scalar_update(1, 3.0, 2),
                self._scalar_update(2, 1.0, 3),
            ]
        )
        assert out.values[0] == 2.5

    def test_empty_update_set(self):
        with pytest.raises(EmptyUpdateSet):
            aggregate([])

    def test_layout_mismatch(self):
        a = ClientUpdate(0, ModelParams(np.zeros(2, np.float32), Layout((("w", (2,)),))), 1)
        b = ClientUpdate(1, ModelParams(np.zeros(3, np.float32), Layout((("w", (3,)),))), 1)
        with pytest.raises(LayoutMismatch):
            aggregate([a, b])

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 50), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_convex_combination_bounds(self, weights, seed):
        rng = np.random.default_rng(seed)
        layout = Layout((("w", (5,)),))
        updates = [
            ClientUpdate(i, ModelParams(rng.standard_normal(5).astype(np.float32), layout), n)
            for i, n in enumerate(weights)
        ]
        out = aggregate(updates)
        stacked = np.stack([u.params.values for u in updates])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        # one float32 ulp of slack for the final rounding
        assert np.all(out.values >= lo - np.spacing(np.abs(lo)))
        assert np.all(out.values <= hi + np.spacing(np.abs(hi)))

    def test_equal_weights_match_unweighted_mean_to_one_ulp(self):
        rng = np.random.default_rng(8)
        layout = Layout((("w", (64,)),))
        updates = [
            ClientUpdate(i, ModelParams(rng.standard_normal(64).astype(np.float32), layout), 7)
            for i in range(5)
        ]
        out = aggregate(updates)
        plain = np.mean(
            np.stack([u.params.values.astype(np.float64) for u in updates]), axis=0
        ).astype(np.float32)
        assert np.all(np.abs(out.values - plain) <= np.spacing(np.abs(plain)))


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self):
        # zero weights, bias favours class 0 -> always predicts 0 -> 0.5
        features = np.zeros((100, 4), dtype=np.float32)
        labels = np.array([0, 1] * 50, dtype=np.int64)
        test = Dataset(features, labels, 2)
        params = init_params(4, 2, seed=0)
        params.values[:] = 0.0
        params.layout.views(params.values)["output.bias"][0] = 1.0
        assert evaluate(params, test) == 0.5

    def test_deterministic(self):
        train, test = generate_synthetic(3, 300, 8, 4)
        params = init_params(8, 4, seed=2)
        assert evaluate(params, test) == evaluate(params, test)

    def test_random_init_near_chance_on_ten_classes(self):
        # Band pinned after observing [0.033, 0.163] over these 20 seeds.
        for seed in range(20):
            train, test = generate_synthetic(100 + seed, 1200, 20, 10)
            params = init_params(20, 10, seed=seed)
            assert 0.02 <= evaluate(params, test) <= 0.25


def _reference_header(layers) -> bytes:
    """The canonical layout header encoded one field at a time: the encoder
    that :class:`Layout` replaced, kept as its oracle."""
    out = bytearray(struct.pack("<I", len(layers)))
    for name, shape in layers:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<I", len(shape))
        for dim in shape:
            out += struct.pack("<I", dim)
    return bytes(out)


# ((name, shape), ...) descriptors with distinct names, shapes as lists or tuples.
_LAYERS = st.lists(
    st.tuples(
        st.text(max_size=6),
        st.lists(st.integers(0, 5), max_size=3).flatmap(lambda s: st.sampled_from([s, tuple(s)])),
    ),
    max_size=5,
    unique_by=lambda layer: layer[0],
)


class TestLayout:
    @settings(max_examples=100, deadline=None)
    @given(layers=_LAYERS)
    def test_header_matches_reference_encoder(self, layers):
        assert Layout(layers).header == _reference_header(layers)

    @settings(max_examples=100, deadline=None)
    @given(layers=_LAYERS)
    def test_views_tile_the_flat_vector_in_order(self, layers):
        layout = Layout(layers)
        flat = np.arange(layout.size, dtype=np.float32)
        views = layout.views(flat)
        assert list(views) == [name for name, _ in layers]
        offset = 0
        for (_, shape), view in zip(layers, views.values()):
            assert view.shape == tuple(shape) and view.base is flat
            assert np.array_equal(view.ravel(), flat[offset:offset + view.size])
            offset += view.size
        assert offset == layout.size

    @settings(max_examples=100, deadline=None)
    @given(a=_LAYERS, b=_LAYERS)
    def test_equal_exactly_when_the_layers_are(self, a, b):
        same = [(n, tuple(s)) for n, s in a] == [(n, tuple(s)) for n, s in b]
        assert (Layout(a) == Layout(b)) == same
        assert Layout(a) == Layout(a) and hash(Layout(a)) == hash(Layout(a))

    def test_params_must_fill_their_layout(self):
        with pytest.raises(LayoutMismatch, match="5 values for a layout of 6"):
            ModelParams(np.zeros(5), Layout((("w", (2, 3)),)))

    def test_params_layout_must_be_a_layout(self):
        # An array of the right size would make layout equality elementwise.
        with pytest.raises(TypeError, match="layout must be a Layout, got ndarray"):
            ModelParams(np.zeros(6), np.zeros(6))

    def test_values_past_float32_read_as_inf_without_a_warning(self):
        params = ModelParams(np.array([1e300, -1e300, 1.0]), Layout((("w", (3,)),)))
        assert params.values.tolist() == [np.inf, -np.inf, 1.0]


class TestCanonicalBytes:
    def test_empty_params_golden_bytes(self):
        empty = ModelParams(np.zeros(0, dtype=np.float32), Layout(()))
        assert canonical_bytes(empty) == bytes.fromhex("00000000")

    def test_deterministic(self):
        params = init_params(6, 3, seed=5)
        assert canonical_bytes(params) == canonical_bytes(params)

    def test_value_change_changes_bytes(self):
        params = init_params(6, 3, seed=5)
        other = params.copy()
        other.values[17] += 1.0
        assert canonical_bytes(params) != canonical_bytes(other)

    def test_layout_change_changes_bytes(self):
        vals = np.arange(6, dtype=np.float32)
        a = ModelParams(vals, Layout((("w", (2, 3)),)))
        b = ModelParams(vals, Layout((("w", (3, 2)),)))
        c = ModelParams(vals, Layout((("v", (2, 3)),)))
        assert canonical_bytes(a) != canonical_bytes(b)
        assert canonical_bytes(a) != canonical_bytes(c)

    def test_header_then_little_endian_values(self):
        params = ModelParams(np.array([1.5], dtype=np.float32), Layout((("b", (1,)),)))
        blob = canonical_bytes(params)
        assert blob.startswith(b"\x01\x00\x00\x00\x01\x00\x00\x00b\x01\x00\x00\x00\x01\x00\x00\x00")
        assert blob.endswith(np.float32(1.5).tobytes())


class TestCsvIngestion:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,2\n")
        ds = load_csv(path)
        assert ds.n_samples == 3
        assert ds.n_features == 2
        assert ds.n_classes == 3
        assert ds.features.dtype == np.float32
        assert ds.labels.tolist() == [0, 1, 2]

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ParseError, match="ragged"):
            load_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,zero\n")
        with pytest.raises(ParseError):
            load_csv(path)
        path.write_text("f0,label\n1.0,-1\n")
        with pytest.raises(ParseError):
            load_csv(path)
        # A label must lie below the number of data rows: equal to it, past
        # int64, and one that would make 200,001 classes out of 12 rows.
        path.write_text("f0,label\n1.0,0\n2.0,2\n")
        with pytest.raises(ParseError, match="label 2"):
            load_csv(path)
        path.write_text("f0,label\n1.0,0\n2.0,9223372036854775808\n")
        with pytest.raises(ParseError, match="label 9223372036854775808") as exc:
            load_csv(path)
        assert f"{path}:3:" in str(exc.value)
        path.write_text("f0,label\n" + "1.0,0\n" * 5 + "2.0,200000\n" + "3.0,1\n" * 6)
        with pytest.raises(ParseError, match="label 200000") as exc:
            load_csv(path)
        assert f"{path}:7:" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e39"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n0.5,{value},1\n")
        with pytest.raises(ParseError, match="finite") as exc:
            load_csv(path)
        assert f"{path}:3:" in str(exc.value)

    def test_label_only_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\n" + "0\n1\n" * 4)
        with pytest.raises(ParseError, match="feature column") as exc:
            load_csv(path)
        assert f"{path}:1:" in str(exc.value)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)
        path.write_text("f0,label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path)

    def test_split_needs_two_samples(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("f0,label\n1.0,0\n")
        with pytest.raises(InvalidDimensions, match="at least 2 samples to split"):
            split_train_test(load_csv(path), seed=0)
        path.write_text("f0,label\n1.0,0\n2.0,1\n")
        train, test = split_train_test(load_csv(path), seed=0)
        assert (train.n_samples, test.n_samples) == (1, 1)
