"""Span tracer that times speclogic's layers from outside the package.

A traced pass replaces each public layer function with a wrapper bound at
the name its caller looks up: ``speclogic.pipeline`` imports most layer
functions by name, so the wrapper goes on ``speclogic.pipeline.<name>``, not
on the defining module. ``speclogic.pipeline.run`` is wrapped too, so the
windows of ``detect_anomalies`` nest under it. Spans stay in memory and every
original binding is put back when the pass ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (layer metric name, module whose attribute the caller looks up, attribute)
TARGETS = (
    ("signal.preprocess", "speclogic.pipeline", "preprocess"),
    ("sparse.fit_matrix_pencil", "speclogic.pipeline", "fit_matrix_pencil"),
    ("sparse.atoms_from_poles", "speclogic.pipeline", "atoms_from_poles"),
    ("sparse.atoms_from_poles", "speclogic.sparse", "atoms_from_poles"),
    ("sparse.fit_omp", "speclogic.pipeline", "fit_omp"),
    ("sparse.refine_nls", "speclogic.pipeline", "refine_nls"),
    ("pade.fit_pade", "speclogic.pipeline", "fit_pade"),
    ("pade.extract_poles", "speclogic.pipeline", "extract_poles"),
    ("pade.taylor_coefficients", "speclogic.pipeline", "taylor_coefficients"),
    ("lanczos.lanczos_tridiag", "speclogic.pipeline", "lanczos_tridiag"),
    ("lanczos.tridiag_eigen", "speclogic.pipeline", "tridiag_eigen"),
    ("lanczos.spectral_density", "speclogic.pipeline", "spectral_density"),
    ("symbolic.project", "speclogic.pipeline", "project"),
    ("rules.infer", "speclogic.pipeline", "infer"),
    ("rules.infer", "speclogic.rules", "infer"),
    ("rules.replay", "speclogic.rules", "replay"),
    ("pipeline.load_ruleset", "speclogic.pipeline", "PipelineConfig.load_ruleset"),
    ("pipeline.auto_order_sweep", "speclogic.pipeline", "auto_order_sweep"),
    ("pipeline.run", "speclogic.pipeline", "run"),
    ("pipeline.detect_anomalies", "speclogic.pipeline", "detect_anomalies"),
    ("pipeline.run_hermitian", "speclogic.pipeline", "run_hermitian"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
MODULES = tuple(dict.fromkeys(layer.split(".")[0] for layer in LAYERS))

#: Spans whose return value is a RunResult the counters are derived from.
RESULT_SPANS = frozenset({"pipeline.run", "pipeline.run_hermitian"})


@dataclass(slots=True)
class Span:
    name: str
    item: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0


def _owner(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def bindings() -> list[object]:
    """The objects currently bound at every patched name, in TARGETS order."""
    out = []
    for _, module, attr in TARGETS:
        owner, leaf = _owner(module, attr)
        out.append(vars(owner)[leaf])
    return out


class Tracer:
    """Records one span per wrapped call made while ``item`` is set.

    With ``item`` None the wrappers call straight through, so output checks
    made between requests leave no spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.results: list = []  # RunResults returned by RESULT_SPANS calls
        self.item: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        keep_result = name in RESULT_SPANS

        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            span = Span(name, self.item, parent, time.perf_counter())
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep_result:
                self.results.append(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for name, module, attr in TARGETS:
                owner, leaf = _owner(module, attr)
                original = vars(owner)[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(idx, ()), key=lambda c: spans[c].start):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out
