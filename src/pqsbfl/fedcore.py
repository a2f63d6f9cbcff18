"""Federated-learning core: data, local training, and FedAvg aggregation.

The learning task is a deliberately small synthetic classification problem
(Gaussian class blobs) trained with a single-hidden-layer MLP, so that whole
federated runs finish in seconds and are bit-for-bit reproducible. Real
feature datasets can be ingested from CSV instead of generated.

Everything here is deterministic given its seeds: dataset generation,
Dirichlet partitioning, shuffling during local training. Training touches no
global random state, so the order in which clients train and any signature
scheme layered on top cannot perturb the model trajectory.

Model parameters live in a flat float32 vector plus the run's one shared
:class:`Layout`; :func:`canonical_bytes` defines the injective byte
encoding that is hashed and signed elsewhere.
"""

import csv
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyUpdateSet,
    InvalidDimensions,
    LayoutMismatch,
    ParseError,
    TooManyClients,
)

__all__ = [
    "Dataset",
    "Layout",
    "ModelParams",
    "TrainConfig",
    "valid_learning_rate",
    "ClientUpdate",
    "generate_synthetic",
    "load_csv",
    "partition_dirichlet",
    "init_params",
    "local_train",
    "aggregate",
    "evaluate",
    "cross_entropy",
    "canonical_bytes",
]

HIDDEN_WIDTH = 32
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# One float64 block of noise is generate_synthetic's only scratch, so a data
# build neither holds a dataset-sized float64 copy nor maps a fresh one on
# every call.
_SYNTHETIC_BLOCK_ROWS = 256


@dataclass
class Dataset:
    """A labelled feature table; labels are class indices in [0, n_classes)."""

    features: np.ndarray  # float32, shape (n_samples, n_features)
    labels: np.ndarray    # int64, shape (n_samples,)
    n_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise InvalidDimensions("features must be (n_samples, n_features) matching labels")
        if len(self.labels) < 1:
            raise InvalidDimensions("dataset must contain at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise InvalidDimensions("labels must lie in [0, n_classes)")

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Layout:
    """A model's ``((layer name, shape), ...)`` in model order, with each
    layer's slice of the flat vector, the total size and the canonical header
    computed once. Equality and hash use the header alone: it encodes the
    layers injectively, so equal headers mean equal layouts."""

    layers: tuple = field(compare=False)
    slices: tuple = field(init=False, repr=False, compare=False)
    size: int = field(init=False, compare=False)
    header: bytes = field(init=False, repr=False)

    def __post_init__(self):
        layers = tuple((name, tuple(shape)) for name, shape in self.layers)
        header = bytearray(struct.pack("<I", len(layers)))
        slices, offset = [], 0
        for name, shape in layers:
            encoded = name.encode("utf-8")
            header += struct.pack("<I", len(encoded)) + encoded
            header += struct.pack(f"<{1 + len(shape)}I", len(shape), *shape)
            slices.append(slice(offset, offset + math.prod(shape)))
            offset = slices[-1].stop
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "slices", tuple(slices))
        object.__setattr__(self, "size", offset)
        object.__setattr__(self, "header", bytes(header))

    def views(self, flat: np.ndarray) -> dict:
        """Views into ``flat``, one per layer by name, in layout order."""
        return {name: flat[s].reshape(shape) for (name, shape), s in zip(self.layers, self.slices)}


@dataclass
class ModelParams:
    """Flat float32 parameter vector plus its :class:`Layout`."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        if not isinstance(self.layout, Layout):
            raise TypeError(f"layout must be a Layout, got {type(self.layout).__name__}")
        with np.errstate(over="ignore"):  # past the float32 range reads as inf
            self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 1:  # any shape of the right size is read as the flat vector
            self.values = self.values.reshape(-1)
        if self.layout.size != self.values.size:
            raise LayoutMismatch(f"{self.values.size} values for a layout of {self.layout.size}")

    def copy(self) -> "ModelParams":
        return ModelParams(self.values.copy(), self.layout)


@dataclass(frozen=True)
class TrainConfig:
    """Local-training hyperparameters (Adam on mini-batch cross-entropy)."""

    local_epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 0.001


def valid_learning_rate(learning_rate) -> bool:
    """The one learning-rate rule: positive and finite as the float32 that
    :func:`local_train` steps with (so ``1e300``, ``1e-50`` and NaN fail)."""
    with np.errstate(over="ignore"):
        lr = np.float32(learning_rate)
    return bool(0 < lr < np.inf)


@dataclass(frozen=True)
class ClientUpdate:
    """One client's post-training model plus its FedAvg weight, the number
    of samples it trained on."""

    client_id: int
    params: ModelParams
    n_samples: int


def generate_synthetic(
    seed: int, n_samples: int, n_features: int, n_classes: int
) -> tuple[Dataset, Dataset]:
    """Gaussian-blob classification task with a disjoint 80/20 train/test split.

    Class means are mutually orthogonal directions scaled well past the unit
    noise, so a small MLP separates the classes almost perfectly. Deterministic
    in ``seed``; the same seed always yields byte-identical datasets.

    Rows are drawn block by block, in stream order, straight into the one
    float32 table both splits view. ``standard_normal`` fills in C order, so
    the bytes equal those of one whole-table draw.
    """
    if n_classes < 2 or n_samples < n_classes or n_features < 1:
        raise InvalidDimensions(
            f"need n_samples >= n_classes >= 2 and n_features >= 1, "
            f"got {n_samples}/{n_classes}/{n_features}"
        )

    rng = np.random.default_rng(seed)
    if n_features >= n_classes:
        basis, _ = np.linalg.qr(rng.standard_normal((n_features, n_classes)))
        means = 5.0 * basis.T
    else:
        directions = rng.standard_normal((n_classes, n_features))
        means = 5.0 * directions / np.linalg.norm(directions, axis=1, keepdims=True)

    labels = rng.permutation(np.arange(n_samples) % n_classes)
    features = np.empty((n_samples, n_features), dtype=np.float32)
    for start in range(0, n_samples, _SYNTHETIC_BLOCK_ROWS):
        rows = slice(start, start + _SYNTHETIC_BLOCK_ROWS)
        block = rng.standard_normal(features[rows].shape)
        block += means[labels[rows]]
        features[rows] = block

    n_train = max(1, int(0.8 * n_samples))
    if n_train == n_samples:
        n_train = n_samples - 1
    train = Dataset(features[:n_train], labels[:n_train], n_classes)
    test = Dataset(features[n_train:], labels[n_train:], n_classes)
    return train, test


def load_csv(path) -> Dataset:
    """Load a feature dataset: header row, one sample per row, last column
    an integer class label. A header without a feature column, ragged rows,
    features that are NaN, infinite or outside the float32 range, and a label
    outside ``[0, number of data rows)``, are rejected."""
    rows = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        width = len(header)
        if width < 2:
            raise ParseError(f"{path}:1: need at least one feature column before the label")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ParseError(
                    f"{path}:{lineno}: ragged row ({len(row)} fields, expected {width})"
                )
            try:
                feats = [float(v) for v in row[:-1]]
                label = int(row[-1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not all(abs(v) <= _FLOAT32_MAX for v in feats):  # false for NaN too
                raise ParseError(f"{path}:{lineno}: feature is not a finite float32 value")
            rows.append((feats, label))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    for lineno, (_, label) in enumerate(rows, start=2):
        if not 0 <= label < len(rows):  # no more classes than samples, as for synth
            raise ParseError(f"{path}:{lineno}: label {label} outside [0, row count {len(rows)})")
    features = np.array([r[0] for r in rows], dtype=np.float32)
    labels = np.array([r[1] for r in rows], dtype=np.int64)
    return Dataset(features, labels, int(labels.max()) + 1)


def split_train_test(dataset: Dataset, seed: int):
    """Deterministic shuffled split into disjoint train/test datasets; the
    test set takes 20 % of the samples (at least one, never all)."""
    if dataset.n_samples < 2:
        raise InvalidDimensions(
            f"need at least 2 samples to split into train and test, got {dataset.n_samples}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n_samples)
    n_test = max(1, int(round(0.2 * dataset.n_samples)))
    n_test = min(n_test, dataset.n_samples - 1)
    test_idx, train_idx = order[:n_test], order[n_test:]
    train = Dataset(dataset.features[train_idx], dataset.labels[train_idx], dataset.n_classes)
    test = Dataset(dataset.features[test_idx], dataset.labels[test_idx], dataset.n_classes)
    return train, test


def partition_dirichlet(
    dataset: Dataset, n_clients: int, alpha: float, seed: int
) -> list[np.ndarray]:
    """Split sample indices across clients with Dirichlet(alpha) class skew.

    Returns one ascending int64 index array per client, client ``c``'s at
    list index ``c``; the arrays are views into one stable argsort of every
    sample's owner, held in the narrowest integer dtype that fits.

    For each class in class order, the class's indices are permuted and
    client proportions are drawn from a symmetric Dirichlet; small alpha
    concentrates each class on few clients. The proportions' rounded running
    sums cut the permutation into contiguous pieces, one per client in client
    order: position p goes to the client numbered by how many cuts are <= p.

    The result is always a true partition: disjoint, covering, and every
    client non-empty. Empty clients are repaired in ascending id; each takes
    the last-received sample (in class-then-cut order) of the currently
    largest partition, the lowest id winning ties.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if not (alpha > 0 and math.isfinite(alpha)):  # also rejects NaN
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if n_clients > dataset.n_samples:
        raise TooManyClients(f"{n_clients} clients but only {dataset.n_samples} samples")

    rng = np.random.default_rng(seed)
    received, owners = [], []  # samples in class-then-cut order, and their clients
    for c in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.labels == c)
        if len(idx) == 0:
            continue
        received.append(rng.permutation(idx))
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        cuts = (np.cumsum(proportions)[:-1] * len(idx)).round().astype(int)
        owners.append(np.searchsorted(cuts, np.arange(len(idx)), side="right"))

    # n_samples >= n_clients, so a donor (the largest) holds >= 2 and never empties.
    owner = np.concatenate(owners)
    counts = np.bincount(owner, minlength=n_clients)
    for client in np.flatnonzero(counts == 0):
        donor = counts.argmax()
        owner[np.flatnonzero(owner == donor)[-1]] = client
        counts[[donor, client]] += (-1, 1)

    owner_of = np.empty(len(owner), np.min_scalar_type(n_clients - 1))  # narrow sorts faster
    owner_of[np.concatenate(received)] = owner
    by_client = np.argsort(owner_of, kind="stable").astype(np.int64, copy=False)
    ends, sizes = np.cumsum(counts).tolist(), counts.tolist()
    return [by_client[e - k:e] for e, k in zip(ends, sizes)]


def _model_layout(n_features: int, n_classes: int):
    return (
        ("hidden.weight", (n_features, HIDDEN_WIDTH)),
        ("hidden.bias", (HIDDEN_WIDTH,)),
        ("output.weight", (HIDDEN_WIDTH, n_classes)),
        ("output.bias", (n_classes,)),
    )


def init_params(n_features: int, n_classes: int, seed: int) -> ModelParams:
    """He-initialized MLP parameters with ``HIDDEN_WIDTH`` hidden units
    (deterministic), on a new :class:`Layout` that the run's models share."""
    layout = Layout(_model_layout(n_features, n_classes))
    values = np.zeros(layout.size, dtype=np.float32)
    layers = layout.views(values)  # the draws write through; the biases stay zero
    hidden, output = layers["hidden.weight"], layers["output.weight"]
    rng = np.random.default_rng(seed)
    hidden[:] = rng.standard_normal(hidden.shape) * np.sqrt(2.0 / n_features)
    output[:] = rng.standard_normal(output.shape) * np.sqrt(1.0 / HIDDEN_WIDTH)
    return ModelParams(values, layout)


def _check_model_fits(params: ModelParams, dataset: Dataset):
    if params.layout.layers != _model_layout(dataset.n_features, dataset.n_classes):
        raise LayoutMismatch(f"{params.layout} is not the MLP of the dataset's dimensions")


def _forward(layers: dict, x: np.ndarray):
    z = x @ layers["hidden.weight"] + layers["hidden.bias"]
    h = np.maximum(z, np.float32(0.0))
    logits = h @ layers["output.weight"] + layers["output.bias"]
    return z, h, logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# A client's values may overflow or go NaN in the float32 arithmetic; the
# round's finiteness test judges the result, so no warning is raised.
_QUIET_FP = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_QUIET_FP
def cross_entropy(params: ModelParams, dataset: Dataset, indices=None) -> float:
    """Mean cross-entropy of the model over the given samples (all if None)."""
    _check_model_fits(params, dataset)
    x = dataset.features if indices is None else dataset.features[indices]
    y = dataset.labels if indices is None else dataset.labels[indices]
    _, _, logits = _forward(params.layout.views(params.values), x)
    probs = _softmax(logits)
    eps = np.finfo(np.float32).tiny
    return float(-np.log(probs[np.arange(len(y)), y] + eps).mean())


@_QUIET_FP
def local_train(
    global_params: ModelParams,
    dataset: Dataset,
    indices: np.ndarray,
    cfg: TrainConfig,
    rng_seed: int,
) -> ModelParams:
    """Run the client's local epochs of mini-batch Adam from the global model
    over the samples of ``dataset`` at ``indices`` (the client's partition).

    Deterministic given (global_params, indices, cfg, rng_seed): shuffling
    comes from a generator seeded with ``rng_seed`` and every tensor op is
    float32. With ``local_epochs=0`` the global model is returned unchanged.
    """
    _check_model_fits(global_params, dataset)
    if cfg.local_epochs < 0 or cfg.batch_size < 1 or not valid_learning_rate(cfg.learning_rate):
        raise ValueError("need local_epochs >= 0, batch_size >= 1, learning_rate finite and > 0")

    params = global_params.copy()
    if cfg.local_epochs == 0:
        return params

    layers = params.layout.views(params.values)  # updates write through to params.values
    x_all = dataset.features[indices]
    y_all = dataset.labels[indices]
    n = len(y_all)

    rng = np.random.default_rng(rng_seed)
    lr = np.float32(cfg.learning_rate)
    beta1, beta2 = np.float32(0.9), np.float32(0.999)
    eps = np.float32(1e-8)
    m = np.zeros_like(params.values)
    v = np.zeros_like(params.values)
    grad = np.zeros_like(params.values)
    grads = params.layout.views(grad)  # writes land in grad
    step = 0

    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            x, y = x_all[batch], y_all[batch]
            z, h, logits = _forward(layers, x)

            dlogits = _softmax(logits)
            dlogits[np.arange(len(y)), y] -= np.float32(1.0)
            dlogits /= np.float32(len(y))

            grads["output.weight"][:] = h.T @ dlogits
            grads["output.bias"][:] = dlogits.sum(axis=0)
            dh = dlogits @ layers["output.weight"].T
            dz = dh * (z > 0)
            grads["hidden.weight"][:] = x.T @ dz
            grads["hidden.bias"][:] = dz.sum(axis=0)

            step += 1
            bc1 = np.float32(1.0 - 0.9**step)
            bc2 = np.float32(1.0 - 0.999**step)
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            params.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    return params


def aggregate(updates: list[ClientUpdate]) -> ModelParams:
    """Sample-count weighted FedAvg of client models.

    Accumulates in float64 and stores the result back in float32, so the
    output is a convex combination of the inputs to within storage rounding.
    """
    if not updates:
        raise EmptyUpdateSet("no client updates to aggregate")
    layout = updates[0].params.layout
    for u in updates[1:]:
        if u.params.layout != layout:
            raise LayoutMismatch(
                f"client {u.client_id} layout differs from client "
                f"{updates[0].client_id}"
            )
    total = float(sum(u.n_samples for u in updates))
    acc = np.zeros(updates[0].params.values.size, dtype=np.float64)
    for u in updates:
        acc += (u.n_samples / total) * u.params.values.astype(np.float64)
    return ModelParams(acc.astype(np.float32), layout)


@_QUIET_FP
def evaluate(params: ModelParams, test_dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions on the test set."""
    _check_model_fits(params, test_dataset)
    _, _, logits = _forward(params.layout.views(params.values), test_dataset.features)
    predicted = logits.argmax(axis=1)
    return float((predicted == test_dataset.labels).mean())


def canonical_bytes(params: ModelParams) -> bytes:
    """Injective byte encoding of (layout, values).

    Header (``params.layout.header``, one per run): u32 layer count; per
    layer a length-prefixed UTF-8 name, u32 ndim, then the dims. Body: the
    flat values as little-endian float32. All integers little-endian 32-bit.
    """
    return params.layout.header + params.values.astype("<f4", copy=False).tobytes()
