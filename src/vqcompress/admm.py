"""Alternating-direction compression: loss step, projection step, multipliers.

Each iteration trains theta against a proximal anchor, rebuilds the mask of
gates to compress, projects the masked entries of the auxiliary vector Z onto
their reconstructed levels, and updates the multipliers with the signed
circular residual.  After the loop stops (squared step norms of both theta
and Z under zeta, or the iteration cap), masked parameters are frozen at
their levels and the free ones are retrained.  Every method takes the warm
start, the run's encoded train split and the one ReCL sweep of the warm
start that `experiment.run_experiment` runs; PruneOnly and QuantOnly run
this loop on that sweep's pick restricted to one level family.  The
baselines share the lowest-k mask selection and the freeze-and-retrain
tail; Zero-Only-Pruning is a zero-level LUT with no loop.
"""

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import Circuit
from .errors import ConfigError
from .gates import circ_residual, wrap_params
from .lut import CompressionLevel, LevelTag, level_distance
from .recl import ReconstructedLUT
from .training import TrainConfig, init_params, loss_and_accuracy, sgd_train
from .transpile import build_depth_table, tcd

TWO_PI = 2 * np.pi


@dataclass
class ADMMConfig:
    """Tuned defaults for the bundled reference circuits.  `build_mask` scores
    a gate as alpha * distance + (1 - alpha) * its level's compiled depth, so
    a small alpha ranks levels by depth first: every prune level has depth 0
    and ranks ahead of deeper levels whatever their distance, and among equal
    depths (all prune targets) the rank is distance alone, which gives an
    expensive controlled gate no preference over a cheap rotation.  rho is
    large enough that the proximal anchor actually binds within the iteration
    budget (but keep learning_rate * rho < 2 or the inner SGD diverges on the
    quadratic term)."""

    target_ratio: float = 0.7
    rho: float = 2.0
    alpha: float = 0.05
    zeta: float = 1e-4
    max_iters: int = 15
    epochs_per_iter: int = 30
    retrain_epochs: int = 200

    def __post_init__(self):
        if not 0.0 <= self.target_ratio <= 1.0:
            raise ConfigError(f"target_ratio {self.target_ratio} outside [0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha {self.alpha} outside (0, 1)")
        for name, value in (("rho", self.rho), ("zeta", self.zeta)):
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        for name in ("max_iters", "epochs_per_iter", "retrain_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class ADMMState:
    theta: np.ndarray
    z: np.ndarray
    lam: np.ndarray


@dataclass
class CompressionMask:
    bits: np.ndarray    # per trainable gate, True = compress
    scores: np.ndarray  # the importance scores the selection sorted on

    @property
    def count(self) -> int:
        return int(self.bits.sum())


@dataclass
class IterationRecord:
    r: int
    loss: float
    acc: float
    tcd: int
    theta_z_gap: float


@dataclass
class CompressionResult:
    params: np.ndarray
    mask: CompressionMask
    recon: ReconstructedLUT
    records: list = field(default_factory=list)
    converged: bool = True


def mask_size(target_ratio: float, n_trainable: int) -> int:
    return int(round(target_ratio * n_trainable))


def _gate_distance(theta: np.ndarray, lam: np.ndarray, slots, level_value) -> float:
    # theta + lam, not the scaled-dual theta + lam/rho: that moves short runs' masks
    moved = wrap_params(theta[list(slots)] + lam[list(slots)])
    # normalized so a single angle at the far side of the circle scores 1
    return level_distance(level_value, moved) / (TWO_PI * np.sqrt(len(slots)))


def _lowest(scores: np.ndarray, k: int) -> CompressionMask:
    """Mask the k lowest finite scores; ties go to the earlier gate."""
    order = sorted(range(len(scores)), key=lambda p: (scores[p], p))
    bits = np.zeros(len(scores), dtype=bool)
    bits[order[: min(k, int(np.isfinite(scores).sum()))]] = True
    return CompressionMask(bits, scores)


def build_mask(theta_next: np.ndarray, lam: np.ndarray, recon: ReconstructedLUT,
               circuit: Circuit, config: ADMMConfig, max_table_depth: int) -> CompressionMask:
    """Score = alpha * distance-to-level + (1 - alpha) * compiled-level depth,
    both normalized to [0, 1]; the lowest-scoring ratio * |G| gates are masked."""
    trainable = circuit.trainable_indices()
    scores = np.full(len(trainable), np.inf)
    for pos, gi in enumerate(trainable):
        level = recon.levels.get(gi)
        if level is None:
            continue  # no level of the method's family; never masked
        d = _gate_distance(theta_next, lam, circuit.layers[gi].theta_slots, level.value)
        depth_term = level.depth / max_table_depth if max_table_depth else 0.0
        scores[pos] = config.alpha * d + (1.0 - config.alpha) * depth_term
    return _lowest(scores, mask_size(config.target_ratio, len(trainable)))


def update_lambda(state: ADMMState, rho: float) -> np.ndarray:
    return state.lam + rho * circ_residual(state.theta, state.z)


def check_stop(prev_state: ADMMState, state: ADMMState, zeta: float) -> bool:
    """Both consecutive squared step norms strictly under zeta."""
    d_theta = float(np.sum(circ_residual(state.theta, prev_state.theta) ** 2))
    d_z = float(np.sum(circ_residual(state.z, prev_state.z) ** 2))
    return d_theta < zeta and d_z < zeta


def compose_params(theta: np.ndarray, mask: CompressionMask, recon: ReconstructedLUT,
                   circuit: Circuit) -> np.ndarray:
    """theta with every masked gate's slots set exactly to its level.

    A level sets every angle of its gate, so a gate whose bindings mix
    constants and slots has fewer slots than its level has angles; the one
    indexing raises numpy's shape-mismatch `ValueError` on it, as ReCL does.
    """
    out = np.array(theta, copy=True)
    for pos, gi in enumerate(circuit.trainable_indices()):
        if mask.bits[pos]:
            out[list(circuit.layers[gi].theta_slots)] = recon.levels[gi].value
    return out


def frozen_slots(mask: CompressionMask, circuit: Circuit) -> np.ndarray:
    frozen = np.zeros(circuit.n_thetas, dtype=bool)
    for pos, gi in enumerate(circuit.trainable_indices()):
        if mask.bits[pos]:
            frozen[list(circuit.layers[gi].theta_slots)] = True
    return frozen


def empty_result(circuit: Circuit, params: np.ndarray) -> CompressionResult:
    """An uncompressed result: a copy of params, nothing masked, and not
    converged, since no iteration ran."""
    n = len(circuit.trainable_indices())
    mask = CompressionMask(np.zeros(n, dtype=bool), np.full(n, np.inf))
    return CompressionResult(np.array(params, copy=True), mask, ReconstructedLUT(),
                             converged=False)


def vanilla_train(circuit: Circuit, train, train_cfg: TrainConfig) -> np.ndarray:
    return sgd_train(circuit, init_params(circuit, train_cfg), train, train_cfg)


def _retrain(circuit: Circuit, train, theta: np.ndarray, mask: CompressionMask,
             recon: ReconstructedLUT, admm_cfg: ADMMConfig,
             train_cfg: TrainConfig) -> np.ndarray:
    """Set the masked gates to their levels, freeze them, retrain the rest."""
    retrain = replace(train_cfg, epochs=admm_cfg.retrain_epochs,
                      seed=train_cfg.seed + 999_983)
    return sgd_train(circuit, compose_params(theta, mask, recon, circuit), train,
                     retrain, frozen=frozen_slots(mask, circuit))


def run_cqcp_admm(circuit: Circuit, train, recon: ReconstructedLUT,
                  admm_cfg: ADMMConfig, train_cfg: TrainConfig,
                  warm: np.ndarray) -> CompressionResult:
    """ADMM loop from the warm start against the reconstructed levels of
    `recon`, then the mask-frozen retrain.  `warm` is not modified."""
    max_td = build_depth_table().max_depth()
    state = ADMMState(theta=warm.copy(), z=warm.copy(), lam=np.zeros_like(warm))
    mask = build_mask(state.theta, state.lam, recon, circuit, admm_cfg, max_td)
    records: list[IterationRecord] = []
    converged = False
    prev = None
    for r in range(admm_cfg.max_iters):
        inner = replace(train_cfg, epochs=admm_cfg.epochs_per_iter,
                        seed=train_cfg.seed + 1000 * (r + 1))
        state.theta = sgd_train(circuit, state.theta, train, inner,
                                proximal=(state.z, state.lam, admm_cfg.rho))
        mask = build_mask(state.theta, state.lam, recon, circuit, admm_cfg, max_td)
        state.z = compose_params(state.z, mask, recon, circuit)
        state.lam = update_lambda(state, admm_cfg.rho)

        loss, acc = loss_and_accuracy(circuit, state.theta, train)
        composed = compose_params(state.theta, mask, recon, circuit)
        gap = float(np.sqrt(np.sum(circ_residual(state.theta, state.z) ** 2)))
        records.append(IterationRecord(r, loss, acc, tcd(circuit, composed), gap))

        current = ADMMState(state.theta.copy(), state.z.copy(), state.lam.copy())
        if prev is not None and check_stop(prev, current, admm_cfg.zeta):
            converged = True
            break
        prev = current

    params = _retrain(circuit, train, state.theta, mask, recon, admm_cfg, train_cfg)
    return CompressionResult(params, mask, recon, records, converged)


class BaselineMode(enum.Enum):
    ZERO_ONLY_PRUNING = "ZeroOnlyPruning"
    PRUNE_ONLY = "PruneOnly"
    QUANT_ONLY = "QuantOnly"


_LEVEL_FAMILY = {BaselineMode.PRUNE_ONLY: LevelTag.PRUNE,
                 BaselineMode.QUANT_ONLY: LevelTag.QUANTIZE}


def baseline_compress(mode: BaselineMode, circuit: Circuit, train,
                      recon: ReconstructedLUT | None, admm_cfg: ADMMConfig,
                      train_cfg: TrainConfig, warm: np.ndarray) -> CompressionResult:
    """Competitor pipelines sharing the warm start and retraining protocol.

    ZeroOnlyPruning is compilation-agnostic and reads no `recon`: each gate's
    only level is all zeros, and the gates closest to it on the circle are
    frozen there.
    PruneOnly / QuantOnly run the ADMM loop on `recon` restricted to one
    level family; gates with no level of that family are never masked.
    """
    if mode in _LEVEL_FAMILY:
        return run_cqcp_admm(circuit, train, recon.restricted(_LEVEL_FAMILY[mode]), admm_cfg,
                             train_cfg, warm)

    slots = {gi: list(circuit.layers[gi].theta_slots) for gi in circuit.trainable_indices()}
    zero = ReconstructedLUT({gi: CompressionLevel(0, (0.0,) * len(s), LevelTag.PRUNE)
                             for gi, s in slots.items()})
    dists = np.array([level_distance(zero.levels[gi].value, wrap_params(warm[s]))
                      for gi, s in slots.items()])
    mask = _lowest(dists, mask_size(admm_cfg.target_ratio, len(dists)))
    params = _retrain(circuit, train, warm, mask, zero, admm_cfg, train_cfg)
    return CompressionResult(params, mask, zero)
