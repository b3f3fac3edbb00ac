"""Compression levels: angles where a gate prunes away or compiles shorter.

A pruning level makes the gate's matrix a global phase times identity, so the
transpiler lowers it to no gate at all (depth 0).  A quantization level
compiles to strictly fewer physical layers than a generic angle.  Both are
read off `standalone_gate_depth`, so `transpile` alone decides what prunes.
Levels are searched on the grid of pi/2 multiples in [0, 4pi), which is where
all of them live for the supported gate kinds; a finer grid can be passed in
for oracle scans.
"""

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit
from .gates import ARITY, GateKind, circ_dist, wrap_param
from .transpile import GENERIC_ANGLE, standalone_gate_depth

HALF_PI = math.pi / 2


class LevelTag(enum.Enum):
    PRUNE = "prune"
    QUANTIZE = "quantize"


@dataclass(frozen=True, order=True)
class CompressionLevel:
    depth: int
    value: tuple[float, ...]
    tag: LevelTag = field(compare=False)


def default_candidates(kind: GateKind) -> list[tuple[float, ...]]:
    """All pi/2 multiples in [0, 4pi), as tuples matching the gate's arity."""
    grid = [k * HALF_PI for k in range(8)]
    return [tuple(t) for t in itertools.product(grid, repeat=ARITY[kind])]


def generic_depth(kind: GateKind) -> int:
    """Depth at a fully generic angle tuple; the maximum over all parameters."""
    probe = tuple(GENERIC_ANGLE + 0.1 * i for i in range(ARITY[kind]))
    return standalone_gate_depth(kind, probe)


def find_levels(kind: GateKind, candidates=None) -> list[CompressionLevel]:
    """Every candidate's level by its standalone depth: depth 0 prunes, and a
    depth below the generic one quantizes."""
    if candidates is None:
        candidates = default_candidates(kind)
    ceiling = generic_depth(kind)
    found = set()
    for cand in candidates:
        cand = tuple(wrap_param(a) for a in cand)
        d = standalone_gate_depth(kind, cand)
        if d < ceiling:
            found.add(CompressionLevel(d, cand, LevelTag.PRUNE if d == 0 else LevelTag.QUANTIZE))
    return sorted(found)


@dataclass
class CompressionLUT:
    """Per gate kind: all compression levels, sorted by depth then value."""

    entries: dict  # GateKind -> list[CompressionLevel]

    def write_csv_text(self) -> str:
        lines = ["gate,values,tag,depth"]
        for kind in sorted(self.entries, key=lambda k: k.value):
            for lv in self.entries[kind]:
                vals = ";".join(f"{v:.10g}" for v in lv.value)
                lines.append(f"{kind.value},{vals},{lv.tag.value},{lv.depth}")
        return "\n".join(lines) + "\n"


def build_lut(circuit: Circuit) -> CompressionLUT:
    """Union of pruning and quantization levels for every trainable kind used."""
    kinds = sorted({g.kind for g in circuit.layers if g.trainable}, key=lambda k: k.value)
    return CompressionLUT({kind: find_levels(kind) for kind in kinds})


def level_distance(value: tuple[float, ...], angles) -> float:
    """Euclidean circular distance between an angle tuple and a level value."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    return float(math.sqrt(sum(circ_dist(a, v) ** 2 for a, v in zip(angles, value))))
