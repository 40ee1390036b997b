"""Projection of Lorentzian atoms onto discrete predicates.

Each atom is binned independently on three axes (resonance frequency,
linewidth, amplitude) and emits one predicate per axis, named
``<axis>_<label>``. Atoms whose amplitude falls below ``negligible_eps``
emit only the predicate ``negligible``. Values below the lowest edge of an
axis emit ``<axis>_underflow`` rather than being dropped.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .sparse import SparseSpectrum

IDENTIFIER_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")

#: The predicate emitted for atoms with amplitude below the negligibility cutoff.
NEGLIGIBLE = "negligible"


def _check_identifier(name: str, what: str) -> str:
    if not isinstance(name, str) or not IDENTIFIER_RE.match(name):
        raise InputError(f"{what} {name!r} must match [a-z_][a-z0-9_]*")
    return name


@dataclass(frozen=True)
class BinAxis:
    """Ascending bin edges with one label per interval.

    Interval i covers [edges[i], edges[i+1]); the final interval is open
    above. Values below edges[0] count as underflow.
    """

    edges: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        labels = tuple(self.labels)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)
        if len(edges) == 0 or len(edges) != len(labels):
            raise InputError("need one label per edge (each edge opens an interval)")
        if not all(math.isfinite(e) for e in edges):
            raise InputError(f"bin edges must be finite, got {edges}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise InputError("bin edges must be strictly ascending")
        if len(set(labels)) != len(labels):
            raise InputError("bin labels must be unique")
        for label in labels:
            _check_identifier(label, "bin label")

    def label_for(self, value: float) -> str | None:
        """Label of the interval containing ``value``; None on underflow."""
        idx = bisect_right(self.edges, value) - 1
        if idx < 0:
            return None
        return self.labels[idx]


@dataclass(frozen=True)
class BinningConfig:
    """Per-axis bins plus the amplitude cutoff for negligible atoms."""

    omega_bins: BinAxis
    gamma_bins: BinAxis
    amp_bins: BinAxis
    negligible_eps: float

    def __post_init__(self):
        if not 0 < self.negligible_eps < math.inf:
            raise InputError(
                f"negligible_eps must be positive and finite, got {self.negligible_eps}"
            )


@dataclass(frozen=True)
class SymbolSet:
    """A set of predicate names, each checked against the identifier grammar."""

    names: frozenset[str]

    def __post_init__(self):
        for name in self.names:
            _check_identifier(name, "predicate name")

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "SymbolSet":
        return cls(frozenset(names))

    def to_json(self) -> list[str]:
        """Serialized form: sorted predicate names."""
        return sorted(self.names)


# (predicate prefix, atom attribute, BinningConfig field) of each axis
_AXES = (
    ("resonance", "omega", "omega_bins"),
    ("width", "gamma", "gamma_bins"),
    ("amplitude", "amp", "amp_bins"),
)


def project(sp: SparseSpectrum, cfg: BinningConfig) -> SymbolSet:
    """Bin every atom into predicates; deterministic for a fixed config.

    Every atom contributes at least one predicate: its three axis
    predicates, or the single ``negligible`` marker when its amplitude is
    below the cutoff.
    """
    names: set[str] = set()
    for atom in sp.atoms:
        if atom.amp < cfg.negligible_eps:
            names.add(NEGLIGIBLE)
            continue
        for prefix, attr, axis_attr in _AXES:
            axis: BinAxis = getattr(cfg, axis_attr)
            label = axis.label_for(getattr(atom, attr))
            name = f"{prefix}_{label}" if label is not None else f"{prefix}_underflow"
            names.add(name)
    return SymbolSet(frozenset(names))
