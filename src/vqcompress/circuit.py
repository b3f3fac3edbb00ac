"""Logical circuit representation: parameter bindings, gates, measurement."""

import enum
from dataclasses import dataclass, field

from .errors import SpecError
from .gates import ARITY, N_QUBITS_OF_KIND, GateKind


class BindKind(enum.Enum):
    CONST = "const"   # fixed angle
    THETA = "theta"   # trainable slot index
    DATA = "data"     # per-sample feature slot index


@dataclass(frozen=True)
class ParamBinding:
    kind: BindKind
    value: float = 0.0   # angle for CONST, slot index otherwise

    @property
    def slot(self) -> int:
        return int(self.value)


def const(angle: float) -> ParamBinding:
    return ParamBinding(BindKind.CONST, float(angle))


def theta(slot: int) -> ParamBinding:
    return ParamBinding(BindKind.THETA, slot)


def data(slot: int) -> ParamBinding:
    return ParamBinding(BindKind.DATA, slot)


@dataclass(frozen=True)
class Gate:
    """One logical gate; for controlled kinds the first qubit is the control."""

    kind: GateKind
    qubits: tuple[int, ...]
    bindings: tuple[ParamBinding, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "bindings", tuple(self.bindings))
        if len(self.qubits) != N_QUBITS_OF_KIND[self.kind]:
            raise SpecError(f"{self.kind.value} acts on {N_QUBITS_OF_KIND[self.kind]} "
                            f"qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise SpecError(f"duplicate qubit in {self.kind.value}{self.qubits}")
        if len(self.bindings) != ARITY[self.kind]:
            raise SpecError(f"{self.kind.value} takes {ARITY[self.kind]} binding(s), "
                            f"got {len(self.bindings)}")

    @property
    def trainable(self) -> bool:
        return any(b.kind is BindKind.THETA for b in self.bindings)

    @property
    def theta_slots(self) -> tuple[int, ...]:
        return tuple(b.slot for b in self.bindings if b.kind is BindKind.THETA)


class MeasureScheme(enum.Enum):
    PER_QUBIT_Z = "perqubitz"
    STATE_GROUPING = "grouping"


def default_grouping(n_qubits: int, n_classes: int) -> list[list[int]]:
    """Split the first 2^n - 1 basis states into n_classes equal leading groups.

    For 4 qubits / 3 classes this is the first 15 states in groups of 5.
    """
    per = (2 ** n_qubits - 1) // n_classes
    if per == 0:
        raise SpecError(f"{n_classes} classes need more than {n_qubits} qubits for grouping")
    return [list(range(k * per, (k + 1) * per)) for k in range(n_classes)]


@dataclass(frozen=True)
class MeasurementSpec:
    n_classes: int
    scheme: MeasureScheme = MeasureScheme.PER_QUBIT_Z
    groups: tuple[tuple[int, ...], ...] | None = None

    def validated(self, n_qubits: int) -> "MeasurementSpec":
        if self.scheme is MeasureScheme.PER_QUBIT_Z:
            if self.n_classes > n_qubits:
                raise SpecError(f"{self.n_classes} classes exceed {n_qubits} per-qubit-Z outputs")
            return self
        groups = self.groups
        if groups is None:
            groups = tuple(tuple(g) for g in default_grouping(n_qubits, self.n_classes))
        if len(groups) != self.n_classes:
            raise SpecError(f"{len(groups)} groups for {self.n_classes} classes")
        seen: set[int] = set()
        for g in groups:
            for i in g:
                if not 0 <= i < 2 ** n_qubits:
                    raise SpecError(f"basis state {i} out of range for {n_qubits} qubits")
                if i in seen:
                    raise SpecError(f"basis state {i} appears in two groups")
                seen.add(i)
        return MeasurementSpec(self.n_classes, self.scheme, groups)


@dataclass
class Circuit:
    """Encoder gates, trainable layers, and a measurement.

    The encoder is state preparation and is never compressed: inputs enter
    as the angles of its data-bound gates, from |0...0>, or with
    `amplitude_input` as the L2-normalized initial state; the two exclude
    each other.  Encoder gates read no theta and layer gates read no data,
    so the layers see only theta.
    """

    n_qubits: int
    encoder: list[Gate] = field(default_factory=list)
    layers: list[Gate] = field(default_factory=list)
    measurement: MeasurementSpec = field(default_factory=lambda: MeasurementSpec(2))
    amplitude_input: bool = False

    def __post_init__(self):
        for g in self.all_gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise IndexError(f"qubit {q} out of range for {self.n_qubits}-qubit circuit")
        for g in self.encoder:
            if g.trainable:
                raise SpecError("encoder gates must not be trainable")
        for g in self.layers:
            if any(b.kind is BindKind.DATA for b in g.bindings):
                raise SpecError("layer gates must not read data; features enter in the encoder")
        if self.amplitude_input and self.n_data:
            raise SpecError(f"amplitude input needs a circuit with no data-bound gates, "
                            f"this one reads {self.n_data} features")
        self.measurement = self.measurement.validated(self.n_qubits)

    @property
    def all_gates(self) -> list[Gate]:
        return self.encoder + self.layers

    @property
    def n_thetas(self) -> int:
        slots = [s for g in self.layers for s in g.theta_slots]
        return max(slots) + 1 if slots else 0

    @property
    def n_data(self) -> int:
        slots = [b.slot for g in self.encoder for b in g.bindings if b.kind is BindKind.DATA]
        return max(slots) + 1 if slots else 0

    @property
    def n_inputs(self) -> int:
        """Features per sample: 2^n amplitudes, or one per data slot."""
        return 2 ** self.n_qubits if self.amplitude_input else self.n_data

    def trainable_indices(self) -> list[int]:
        """Indices into `layers` of gates with at least one trainable slot."""
        return [i for i, g in enumerate(self.layers) if g.trainable]
