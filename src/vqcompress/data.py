"""Datasets (synthetic two-class generator, CSV ingestion) and the amplitude
encoder; angle inputs are bound by the circuit's encoder gates instead."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, EncodeError, ParseError


@dataclass(frozen=True)
class Sample:
    features: np.ndarray
    label: int


@dataclass
class Dataset:
    train: list
    test: list
    n_classes: int

    @property
    def n_features(self) -> int:
        return len(self.train[0].features)


def stack(samples) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (N, F) and label vector for a list of samples."""
    if not samples:
        raise DataError("empty sample list")
    feats = np.stack([s.features for s in samples])
    labels = np.array([s.label for s in samples], dtype=int)
    return feats, labels


def _split(samples: list, seed: int) -> tuple[list, list]:
    """Seeded shuffle, then 90% train / 10% test."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    cut = int(round(0.9 * len(samples)))
    return [samples[i] for i in order[:cut]], [samples[i] for i in order[cut:]]


# Feature distributions for the two synthetic classes: class 0 draws the front
# half of its features from LOW and the tail half from HIGH; class 1 swaps them.
SYN_LOW = (0.25, 0.1)
SYN_HIGH = (0.75, 0.1)


def generate_synthetic(n_features: int, n_samples: int = 100, seed: int = 0) -> Dataset:
    if n_features not in (4, 16):
        raise ConfigError(f"synthetic datasets have 4 or 16 features, not {n_features}")
    rng = np.random.default_rng(seed)
    half = n_features // 2
    samples = []
    for i in range(n_samples):
        label = i % 2
        lo = np.clip(rng.normal(*SYN_LOW, size=half), 0.0, 1.0)
        hi = np.clip(rng.normal(*SYN_HIGH, size=half), 0.0, 1.0)
        feats = np.concatenate([lo, hi] if label == 0 else [hi, lo])
        samples.append(Sample(feats, label))
    train, test = _split(samples, seed)
    return Dataset(train, test, n_classes=2)


def pool_image(features: np.ndarray, side: int = 28, out_side: int = 4) -> np.ndarray:
    """Average-pool a flattened side x side image down to out_side x out_side."""
    if features.size != side * side:
        raise DataError(f"expected {side * side} pixels, got {features.size}")
    block = side // out_side
    img = features.reshape(side, side)[: out_side * block, : out_side * block]
    return img.reshape(out_side, block, out_side, block).mean(axis=(1, 3)).ravel()


def load_csv(path, n_classes: int, seed: int = 0, pool: bool = False) -> Dataset:
    """Rows are `label,f1,...,fk` with features already scaled to [0, 1]."""
    samples = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                label = int(parts[0])
                feats = np.array([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"bad row ({exc})", lineno) from None
            if not np.isfinite(feats).all():
                raise ParseError("non-finite feature", lineno)
            outside = feats[(feats < 0) | (feats > 1)]
            if outside.size:
                raise ParseError(f"feature {outside[0]} outside [0, 1]", lineno)
            if not 0 <= label < n_classes:
                raise ParseError(f"label {label} out of range for {n_classes} classes", lineno)
            if pool:
                try:
                    feats = pool_image(feats)
                except DataError as exc:
                    raise ParseError(str(exc), lineno) from None
            if width is None:
                width = feats.size
            elif feats.size != width:
                raise ParseError(f"row has {feats.size} features, expected {width}", lineno)
            samples.append(Sample(feats, label))
    if not samples:
        raise ConfigError(f"dataset: no samples in {path}")
    train, test = _split(samples, seed)
    return Dataset(train, test, n_classes=n_classes)


def amplitude_state(features: np.ndarray, n_qubits: int) -> np.ndarray:
    """L2-normalized features as the initial state vector."""
    features = np.asarray(features, dtype=float)
    if features.size != 2 ** n_qubits:
        raise EncodeError(f"amplitude encoding needs {2 ** n_qubits} features, "
                          f"got {features.size}")
    norm = float(np.linalg.norm(features))
    if norm < 1e-300 or not math.isfinite(norm):
        raise EncodeError("cannot amplitude-encode a zero-norm feature vector")
    return features.astype(complex) / norm
