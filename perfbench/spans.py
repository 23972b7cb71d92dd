"""In-memory span tracing of mclift's layers, applied from outside the program.

Each hook replaces one public function at the module attribute its caller
looks it up through (for example `mclift.lifting.estimate_motion`, which
`analyze_pair_products` calls), so no file of the program changes. A span
records its name, start, end and parent; the layer is the part of the name
before the first dot. Results the counters need are kept by reference and
read only after the traced call has returned, so counting costs no span any
time.

Spans nest through one stack, which holds while the CLI runs its pairs and
tiles on the calling thread (the default `--threads 1`).
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    args: tuple = ()
    result: Any = None
    counts: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


def _connectivity_counts(args: tuple, result: Any) -> dict[str, int]:
    counts = result[1].counts
    unconnected = int((counts == 0).sum())
    return {
        "hole_px": unconnected,
        "multi_px": int(counts.size - unconnected - (counts == 1).sum()),
    }


def _fse_counts(args: tuple, result: Any) -> dict[str, Any]:
    # fse_reconstruct_with_stats returns (field, [TileStats]); a merged
    # fse_reconstruct that returns only the field leaves nothing to count.
    if not (isinstance(result, tuple) and len(result) == 2):
        return {}
    stats = result[1]
    cap = args[1].max_iterations
    return {
        "tiles": len(stats),
        "iterations": sum(s.iterations for s in stats),
        "capped_tiles": sum(1 for s in stats if s.iterations == cap),
        "degenerate_tiles": sum(1 for s in stats if s.degenerate),
        "energy_ratios": [
            s.energy_trace[-1] / s.energy_trace[0]
            for s in stats
            if not s.degenerate and s.energy_trace[0] > 0.0
        ],
    }


def _payload_bytes(args: tuple, result: Any) -> dict[str, int]:
    return {"bytes": len(result)}


@dataclass(frozen=True)
class Hook:
    """One traced function: span name, candidate `module:attr` targets in
    order of preference, and an optional counter over (args, result)."""

    span: str
    targets: tuple[str, ...]
    count: Callable[[tuple, Any], dict[str, Any]] | None = None


# Second targets name the merged functions the roadmap plans
# (analyze_pair/_products, analyze_sequence/_products,
# fse_reconstruct/_with_stats), so the trace survives that rename.
HOOKS = (
    Hook("io.read_dataset", ("mclift.cli:read_dataset",)),
    Hook(
        "lifting.analyze_sequence",
        ("mclift.cli:analyze_sequence_products", "mclift.cli:analyze_sequence"),
    ),
    Hook(
        "lifting.analyze_pair",
        ("mclift.lifting:analyze_pair_products", "mclift.lifting:analyze_pair"),
    ),
    Hook("motion.search", ("mclift.lifting:estimate_motion",)),
    Hook("lifting.predict", ("mclift.lifting:mc_predict",)),
    Hook("lifting.highpass", ("mclift.lifting:analyze_highpass",)),
    Hook("imc.scatter", ("mclift.lifting:imc_scatter",), _connectivity_counts),
    Hook("imc.weights", ("mclift.lifting:apply_connectivity_weights",)),
    Hook(
        "fse.reconstruct",
        ("mclift.lifting:fse_reconstruct_with_stats", "mclift.lifting:fse_reconstruct"),
        _fse_counts,
    ),
    Hook("lifting.lowpass", ("mclift.lifting:analyze_lowpass",)),
    Hook("lifting.container_write", ("mclift.cli:write_container",)),
    Hook("metrics.encode", ("mclift.cli:encode_lossless",), _payload_bytes),
    Hook("metrics.encode_motion", ("mclift.cli:motion_to_bytes",), _payload_bytes),
    Hook("metrics.psnr", ("mclift.cli:psnr",)),
    Hook("metrics.boundary", ("mclift.cli:boundary_step_metric",)),
    Hook("lifting.container_read", ("mclift.cli:read_container",)),
    Hook("lifting.synthesize_sequence", ("mclift.cli:synthesize_sequence",)),
    Hook("lifting.synthesize_pair", ("mclift.lifting:synthesize_pair",)),
    Hook("io.write_raw", ("mclift.cli:write_raw_sequence",)),
    Hook("io.write_sidecar", ("mclift.cli:write_sidecar",)),
    Hook("io.sha256", ("mclift.cli:sha256_hex",)),
)


def _resolve(target: str) -> tuple[Any, str] | None:
    module_name, attr = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if not callable(getattr(module, attr, None)):
        return None
    return module, attr


class Tracer:
    """Records spans while `enabled`; hooks stay installed until `close`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.found: dict[str, str] = {}
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._counters: dict[str, Callable] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    def install(self, hooks=HOOKS) -> None:
        """Wrap the first target of each hook that exists; list the rest."""
        for hook in hooks:
            for target in hook.targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                module, attr = resolved
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(hook.span, original))
                self._restore.append((module, attr, original))
                self.found[hook.span] = target
                if hook.count is not None:
                    self._counters[hook.span] = hook.count
                break
            else:
                self.missing.append(hook.span)

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                span.result = fn(*args, **kwargs)
                span.args = args
            return span.result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count_pending(self, first: int = 0) -> None:
        """Run the counters on spans from index `first` on and drop the
        argument and result references they held."""
        for span in self.spans[first:]:
            counter = self._counters.get(span.name)
            if counter is not None and span.result is not None:
                span.counts = counter(span.args, span.result)
            span.args, span.result = (), None


def tree(spans: list[Span], root: Span) -> list[Span]:
    """The root and all its descendants, in start order."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out, todo = [], [root]
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(children.get(span.id, ()))
    return sorted(out, key=lambda s: s.start)


def self_seconds(spans: list[Span], root: Span) -> dict[str, float]:
    """Self time per span name under `root`: each span's duration minus the
    part its children cover. Raises if children leave their parent's
    interval or overlap each other, which would break the sum."""
    members = tree(spans, root)
    by_id = {s.id: s for s in members}
    covered: dict[int, float] = {}
    last_end: dict[int, float] = {}
    for span in members:
        if span.parent is None or span is root:
            continue
        parent = by_id[span.parent]
        if span.start < parent.start or span.end > parent.end:
            raise ValueError(f"span {span.name} leaves its parent {parent.name}")
        if span.start < last_end.get(parent.id, parent.start):
            raise ValueError(f"span {span.name} overlaps a sibling under {parent.name}")
        last_end[parent.id] = span.end
        covered[parent.id] = covered.get(parent.id, 0.0) + span.seconds
    out: dict[str, float] = {}
    for span in members:
        out[span.name] = out.get(span.name, 0.0) + span.seconds - covered.get(span.id, 0.0)
    return out


def summed_counts(spans: list[Span], root: Span, name: str) -> dict[str, Any]:
    """Counts of every `name` span under `root`, added key by key (lists
    are concatenated). Empty when no span of that name produced counts."""
    total: dict[str, Any] = {}
    for span in tree(spans, root):
        if span.name != name:
            continue
        for key, value in span.counts.items():
            total[key] = total.get(key, [] if isinstance(value, list) else 0) + value
    return total
