#!/usr/bin/env python3
"""Closed-loop round-trip benchmark of the mclift command line.

Run from the repository root:

    python3 perfbench/run.py --workload translate_block --seed 1 --seconds 30 --trace 0

One client in this process calls `mclift.cli.main(["analyze", ...])` on a
dataset generated from --seed, then `main(["synthesize", ...])` on the
container it wrote, with `--expect-sha256` of the generated raw input, and
waits for each call before the next. The program sees only the written
files. Every reconstruction is also hashed here, and every container must
hash the same as the first one of its dataset.

--trace 0 measures the end-to-end metrics untraced, cycling over
DATASETS datasets of the seed; each call's time is divided by the slowdown
of a calibration mix timed just before it (calibrate.py). --trace 1 alternates
untraced and traced round trips and reports the per-layer metrics taken
from the spans of spans.py. Human-readable detail goes to the lines before
the last; the last line of stdout is one JSON object. Result and span files
go to .perfbench_out/ at the repository root. The exit code is 0 only when
every call succeeded and every exact value repeated.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
# Recheck any claim on this seed too; it is not the one tuned on.
HELD_OUT_SEED = 2
# An untraced run cycles its round trips over this many datasets, generated
# with the seeds DATASETS * seed + i, and averages their rate and quality.
# One dataset's boundary_step varies by 6-10% from seed to seed, and more
# frames of one seed hardly narrow that. A traced run uses dataset 0.
DATASETS = 4
# setup_s: one fresh-interpreter import every SETUP_INTERVAL seconds of the
# window, and at least SETUP_MIN_IMPORTS per run.
SETUP_INTERVAL = 2.0
SETUP_MIN_IMPORTS = 5
SEARCH_RANGE = 15  # mclift analyze default --search-range
BLOCK_SIZE = 16  # mclift analyze default --block-size

# name -> (unit, better). --trace 0 reports END_TO_END, --trace 1 PER_LAYER.
END_TO_END = {
    "analyze_mpx_s": ("Mpx/s", "higher"),
    "synthesize_mpx_s": ("Mpx/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "coded_bpp": ("bit/px", "lower"),
    "lowpass_psnr_db": ("dB", "higher"),
    "boundary_step": ("level", "lower"),
}
PER_LAYER = {
    "motion.search_ms_per_pair": ("ms", "lower"),
    "motion.ns_per_block_candidate": ("ns", "lower"),
    "fse.ms_per_pair": ("ms", "lower"),
    "fse.tiles": ("count", "lower"),
    "fse.iterations": ("count", "lower"),
    "fse.capped_tiles": ("count", "lower"),
    "fse.degenerate_tiles": ("count", "lower"),
    "fse.us_per_iteration": ("us", "lower"),
    "fse.energy_ratio_median": ("ratio", "lower"),
    "imc.scatter_ms_per_pair": ("ms", "lower"),
    "imc.weights_ms_per_pair": ("ms", "lower"),
    "imc.hole_px": ("px", "lower"),
    "imc.multi_px": ("px", "lower"),
    "lifting.predict_ms": ("ms", "lower"),
    "lifting.highpass_ms": ("ms", "lower"),
    "lifting.lowpass_ms": ("ms", "lower"),
    "lifting.analyze_pair_self_ms": ("ms", "lower"),
    "lifting.synthesize_pair_self_ms": ("ms", "lower"),
    "lifting.sequence_self_ms": ("ms", "lower"),
    "lifting.container_write_ms": ("ms", "lower"),
    "lifting.container_read_ms": ("ms", "lower"),
    "lifting.container_bytes": ("bytes", "lower"),
    "metrics.encode_ms": ("ms", "lower"),
    "metrics.psnr_ms": ("ms", "lower"),
    "metrics.boundary_ms": ("ms", "lower"),
    "metrics.coded_bytes": ("bytes", "lower"),
    "io.read_dataset_ms": ("ms", "lower"),
    "io.write_raw_ms": ("ms", "lower"),
    "io.sha256_ms": ("ms", "lower"),
    "cli.analyze_self_ms": ("ms", "lower"),
    "cli.synthesize_self_ms": ("ms", "lower"),
    "trace.analyze_ms": ("ms", "lower"),
    "trace.synthesize_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
# Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "fse.tiles",
    "fse.iterations",
    "fse.capped_tiles",
    "fse.degenerate_tiles",
    "imc.hole_px",
    "imc.multi_px",
    "lifting.container_bytes",
    "metrics.coded_bytes",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    width: int
    height: int
    frames: int
    mode: str
    # Synthesize calls per analyze call. Each command gets tens of samples
    # or more, spread over the whole window.
    synth_reps: int
    # Geometry (width, height, frames) of the --smoke inputs.
    small: tuple[int, int, int]
    why: str
    # Calibration mix per command: kernel of calibrate.py -> weight, in
    # about the shares of the command's own self time per layer.
    calibration: dict[str, dict[str, float]] = field(default_factory=dict)
    bit_depth: int = 8

    @property
    def pixels(self) -> int:
        return self.width * self.height * self.frames

    @property
    def pairs(self) -> int:
        return self.frames // 2

    def shrunk(self) -> Workload:
        width, height, frames = self.small
        return replace(self, width=width, height=height, frames=frames)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "translate_block", "translate", 176, 144, 8, "block", 8, (64, 64, 4),
            "motion search is ~96% of analysis and FSE does nothing; synthesis is "
            "imc, weights, prediction and I/O only; 4 pairs",
            calibration={"analyze": {"motion": 1.0},
                         "synthesize": {"motion": 0.5, "overhead": 0.5}},
        ),
        Workload(
            "disocclusion_fse", "flash_disocclusion", 176, 144, 4, "block+fse", 1,
            (96, 96, 4),
            "the paper's case: holes beside a sharp update step; motion leads "
            "analysis, FSE leads synthesis, quality metrics matter most",
            calibration={"analyze": {"motion": 0.6, "fse": 0.3, "overhead": 0.1},
                         "synthesize": {"fse": 1.0}},
        ),
        Workload(
            "noise_fse", "noise", 32, 32, 2, "block+fse", 1, (32, 16, 2),
            "every FSE tile hits the 1000-iteration cap; FSE is ~75% of analysis "
            "and ~99% of synthesis, so this isolates the cost per FSE iteration",
            calibration={"analyze": {"fse": 0.8, "motion": 0.2},
                         "synthesize": {"fse": 1.0}},
        ),
    )
}


def _import_program():
    """Import mclift from this checkout's src/ only, or exit 2."""
    if not (SRC / "mclift" / "cli.py").is_file():
        print(f"error: mclift sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    # One thread for any numerical library numpy links, set before it loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mclift.cli
    import numpy

    if Path(mclift.cli.__file__).resolve().parent != SRC / "mclift":
        print(f"error: imported mclift from {mclift.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return mclift.cli, numpy


def environment(numpy) -> dict[str, object]:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                name = f"L{level}d" if kind == "Data" else f"L{level}"
                caches[name] = (index / "size").read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class SetupTimer:
    """Times `import mclift.cli` in a fresh interpreter, one import at a
    time, so that the samples can be spread over the measurement window.
    Each import is scaled by the slowdown of a plain-Python calibration
    loop timed just before it in the same interpreter; numpy is not loaded
    before the import. The first import fills the bytecode cache and is
    discarded."""

    CODE = (
        "import time\n"
        "t = time.perf_counter()\n" + calibrate.PYTHON_LOOP +
        "p = time.perf_counter() - t\n"
        "t = time.perf_counter()\n"
        "import mclift.cli\n"
        "print(time.perf_counter() - t, p)\n"
    )

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.last = 0.0
        self._import()

    def _import(self) -> tuple[float, float]:
        done = subprocess.run(
            [sys.executable, "-c", self.CODE], env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        self.last = time.perf_counter()
        seconds, loop = map(float, done.stdout.split()[-2:])
        return seconds, loop / calibrate.PYTHON_LOOP_NOMINAL_S

    def sample(self, every: float = SETUP_INTERVAL) -> None:
        """One timed import, if `every` seconds passed since the last one."""
        if time.perf_counter() - self.last >= every:
            seconds, slowdown = self._import()
            self.raw.append(seconds)
            self.scaled.append(seconds / slowdown)

    def value(self) -> float:
        while len(self.scaled) < SETUP_MIN_IMPORTS:
            self.sample(every=0.0)
        return statistics.median(self.scaled)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Client:
    """Drives analyze then synthesize through the CLI on one generated
    dataset and checks every result; failures are counted, not raised."""

    def __init__(self, cli, workdir: Path, wl: Workload, seed: int, tracer=None):
        from mclift import fixtures
        from mclift.io import write_dataset

        self.cli = cli
        self.seed = seed
        self.tracer = tracer
        self.dataset = workdir / "input.json"
        self.container = workdir / "bands.mclf"
        self.recon = workdir / "recon.raw"
        seq = fixtures.generate(
            wl.kind, width=wl.width, height=wl.height,
            bit_depth=wl.bit_depth, frames=wl.frames, seed=seed,
        )
        self.input_sha = hashlib.sha256(write_dataset(seq, self.dataset)).hexdigest()
        self.mode = wl.mode
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.container_sha: str | None = None
        self.container_bytes = 0
        self.report: dict[str, str] | None = None

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def _call(self, root: str, argv: list[str]) -> float | None:
        self.attempted += 1
        captured = io.StringIO()
        span = self.tracer.span(root) if self.tracer and self.tracer.enabled else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                with span or contextlib.nullcontext():
                    code = self.cli.main(argv)
        except Exception:  # a crash is a failed call; keep the loop going
            self._fail(f"{argv[0]} raised:\n{traceback.format_exc()}")
            return None
        seconds = time.perf_counter() - start
        if code != 0:
            self._fail(f"{argv[0]} exited {code}: {captured.getvalue().strip()}")
            return None
        return seconds

    def analyze(self) -> float | None:
        seconds = self._call("cli.analyze", [
            "analyze", "--input", str(self.dataset), "--output", str(self.container),
            "--mode", self.mode,
        ])
        if seconds is None:
            return None
        digest = sha256_file(self.container)
        with open(str(self.container) + ".metrics.csv", newline="") as fh:
            report = next(csv.DictReader(fh))
        if self.container_sha is None:
            self.container_sha, self.report = digest, report
            self.container_bytes = self.container.stat().st_size
        elif digest != self.container_sha:
            self._fail(f"container sha256 {digest} != first repetition {self.container_sha}")
            return None
        elif report != self.report:
            self._fail(f"metrics CSV {report} != first repetition {self.report}")
            return None
        return seconds

    def synthesize(self) -> float | None:
        seconds = self._call("cli.synthesize", [
            "synthesize", "--input", str(self.container), "--output", str(self.recon),
            "--expect-sha256", self.input_sha,
        ])
        if seconds is None:
            return None
        digest = sha256_file(self.recon)
        if digest != self.input_sha:
            self._fail(f"reconstruction sha256 {digest} != input {self.input_sha}")
            return None
        return seconds


@dataclass
class Samples:
    """Call times of one command: as measured, the calibration slowdown
    timed right before each call, and their quotient."""

    raw: list[float] = field(default_factory=list)
    slowdown: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def add(self, seconds: float, slowdown: float) -> None:
        self.raw.append(seconds)
        self.slowdown.append(slowdown)
        self.scaled.append(seconds / slowdown)


def run_untraced(
    clients: list[Client], wl: Workload, seconds: float, setup: SetupTimer
) -> dict[str, Samples]:
    """Round trips, each on the next of `clients` in turn, until `seconds`
    pass, with a timed import between round trips every SETUP_INTERVAL
    seconds; the window closes after the call that crosses it, so a run
    overshoots by at most one call. Before each
    analyze call, and before each round's synthesize calls, the command's
    calibration mix is timed; a mix that ran beside another busy thread of
    the process is a failed call."""
    times = {"analyze": Samples(), "synthesize": Samples()}

    def calibrated(client: Client, phase: str) -> float:
        slowdown, alone = calibrate.slowdown(wl.calibration[phase])
        if not alone:
            client._fail(f"another thread of the process was busy during the "
                         f"{phase} calibration")
        return slowdown

    deadline = time.perf_counter() + seconds
    for round_trip in itertools.count():
        client = clients[round_trip % len(clients)]
        slowdown = calibrated(client, "analyze")
        analyzed = client.analyze()
        if analyzed is not None:
            times["analyze"].add(analyzed, slowdown)
            slowdown = calibrated(client, "synthesize")
            for _ in range(wl.synth_reps):
                synthesized = client.synthesize()
                if synthesized is not None:
                    times["synthesize"].add(synthesized, slowdown)
                if time.perf_counter() >= deadline and times["synthesize"].raw:
                    return times
        if time.perf_counter() >= deadline:
            return times
        setup.sample()


def end_to_end(
    wl: Workload, clients: list[Client], times, setup: float
) -> dict[str, float]:
    metrics = {"setup_s": setup}
    for phase in ("analyze", "synthesize"):
        if times[phase].scaled:
            median = statistics.median(times[phase].scaled)
            metrics[f"{phase}_mpx_s"] = wl.pixels / median / 1e6
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reports = [c.report for c in clients]
    if None not in reports:
        metrics["coded_bpp"] = statistics.mean(
            int(r["total_bytes"]) * 8 / wl.pixels for r in reports
        )
        metrics["lowpass_psnr_db"] = statistics.mean(
            float(r["mean_lowpass_psnr_db"]) for r in reports
        )
        metrics["boundary_step"] = statistics.mean(float(r["boundary_step"]) for r in reports)
    return metrics


def run_traced(client: Client, tracer, seconds: float):
    """Alternate an untraced and a traced round trip until `seconds` pass.
    Returns the untraced round walls and each traced round's
    (analyze root, synthesize root) spans."""
    plain: list[float] = []
    traced: list[tuple] = []
    start = time.perf_counter()
    while True:
        a, s = client.analyze(), client.synthesize()
        if a is not None and s is not None:
            plain.append(a + s)
        first = len(tracer.spans)
        tracer.enabled = True
        try:
            a, s = client.analyze(), client.synthesize()
        finally:
            tracer.enabled = False
        tracer.count_pending(first)
        roots = tuple(sp for sp in tracer.spans[first:] if sp.parent is None)
        if a is not None and s is not None:
            traced.append(roots)
        if time.perf_counter() - start >= seconds:
            return plain, traced


# Time metrics: metric -> (span names whose self time it sums over one
# analyze + synthesize round trip, divided by the pair count or not).
TIMED = {
    "motion.search_ms_per_pair": (("motion.search",), True),
    "fse.ms_per_pair": (("fse.reconstruct",), True),
    "imc.scatter_ms_per_pair": (("imc.scatter",), True),
    "imc.weights_ms_per_pair": (("imc.weights",), True),
    "lifting.predict_ms": (("lifting.predict",), False),
    "lifting.highpass_ms": (("lifting.highpass",), False),
    "lifting.lowpass_ms": (("lifting.lowpass",), False),
    "lifting.analyze_pair_self_ms": (("lifting.analyze_pair",), False),
    "lifting.synthesize_pair_self_ms": (("lifting.synthesize_pair",), False),
    "lifting.sequence_self_ms": (
        ("lifting.analyze_sequence", "lifting.synthesize_sequence"), False
    ),
    "lifting.container_write_ms": (("lifting.container_write",), False),
    "lifting.container_read_ms": (("lifting.container_read",), False),
    "metrics.encode_ms": (("metrics.encode", "metrics.encode_motion"), False),
    "metrics.psnr_ms": (("metrics.psnr",), False),
    "metrics.boundary_ms": (("metrics.boundary",), False),
    "io.read_dataset_ms": (("io.read_dataset",), False),
    "io.write_raw_ms": (("io.write_raw", "io.write_sidecar"), False),
    "io.sha256_ms": (("io.sha256",), False),
    "cli.analyze_self_ms": (("cli.analyze",), False),
    "cli.synthesize_self_ms": (("cli.synthesize",), False),
}
FSE_COUNTS = ("tiles", "iterations", "capped_tiles", "degenerate_tiles")


def layer_round(spans, tracer, wl: Workload, roots, container_bytes: int):
    """Per-layer metrics of one traced round trip, each phase's self time
    per layer (these add up to the phase's traced wall), and the ways in
    which synthesis counted differently from analysis."""
    a_root, s_root = roots
    selfs = {
        root.name: spans.self_seconds(tracer.spans, root) for root in roots
    }

    def ms(names) -> float:
        return 1000.0 * sum(p.get(n, 0.0) for p in selfs.values() for n in names)

    m = {
        metric: ms(names) / (wl.pairs if per_pair else 1)
        for metric, (names, per_pair) in TIMED.items()
    }
    blocks = -(-wl.width // BLOCK_SIZE) * -(-wl.height // BLOCK_SIZE)
    candidates = wl.pairs * blocks * (2 * SEARCH_RANGE + 1) ** 2
    m["motion.ns_per_block_candidate"] = 1e6 * ms(("motion.search",)) / candidates

    counts = {
        (root.name, name): spans.summed_counts(tracer.spans, root, name)
        for root in roots
        for name in ("fse.reconstruct", "imc.scatter", "metrics.encode",
                     "metrics.encode_motion")
    }
    fse = counts["cli.analyze", "fse.reconstruct"]
    imc = counts["cli.analyze", "imc.scatter"]
    for key in FSE_COUNTS:
        m[f"fse.{key}"] = fse.get(key, 0)
    iterations = fse.get("iterations", 0) + counts["cli.synthesize", "fse.reconstruct"].get(
        "iterations", 0
    )
    m["fse.us_per_iteration"] = (
        1e3 * ms(("fse.reconstruct",)) / iterations if iterations else 0.0
    )
    ratios = fse.get("energy_ratios", [])
    m["fse.energy_ratio_median"] = statistics.median(ratios) if ratios else 0.0
    m["imc.hole_px"] = imc.get("hole_px", 0)
    m["imc.multi_px"] = imc.get("multi_px", 0)
    m["lifting.container_bytes"] = container_bytes
    m["metrics.coded_bytes"] = counts["cli.analyze", "metrics.encode"].get(
        "bytes", 0
    ) + counts["cli.analyze", "metrics.encode_motion"].get("bytes", 0)
    m["trace.analyze_ms"] = 1000.0 * a_root.seconds
    m["trace.synthesize_ms"] = 1000.0 * s_root.seconds

    # Synthesis recomputes the identical update field, so its FSE and imc
    # counts must equal those of analysis.
    mismatches = [
        f"synthesis {name} {key}={counts['cli.synthesize', name].get(key)} "
        f"!= analysis {counts['cli.analyze', name].get(key)}"
        for name, keys in (("fse.reconstruct", FSE_COUNTS),
                           ("imc.scatter", ("hole_px", "multi_px")))
        for key in keys
        if counts["cli.synthesize", name].get(key) != counts["cli.analyze", name].get(key)
    ]
    phases = {}
    for root in roots:
        by_layer: dict[str, float] = {}
        for name, sec in selfs[root.name].items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + 1000.0 * sec
        phases[root.name] = {"wall_ms": 1000.0 * root.seconds, "self_ms": by_layer}
    # A span of FSE that returned no TileStats leaves its counts unknown.
    fse_counted = all(
        sp.counts for root in roots for sp in spans.tree(tracer.spans, root)
        if sp.name == "fse.reconstruct"
    )
    return m, phases, mismatches, fse_counted


def dropped_metrics(tracer, fse_counted: bool) -> dict[str, str]:
    """Per-layer metrics that cannot be measured, with the reason."""
    dropped = {}
    for metric, (names, _) in TIMED.items():
        lost = [n for n in names if n in tracer.missing]
        if lost:
            dropped[metric] = f"no function found for span {', '.join(lost)}"
    fse_metrics = [f"fse.{k}" for k in FSE_COUNTS] + [
        "fse.us_per_iteration", "fse.energy_ratio_median"
    ]
    if "fse.reconstruct" in tracer.missing or not fse_counted:
        for metric in fse_metrics:
            dropped[metric] = "fse.reconstruct not found or returned no TileStats"
    sources = {
        "motion.ns_per_block_candidate": "motion.search",
        "imc.hole_px": "imc.scatter",
        "imc.multi_px": "imc.scatter",
        "metrics.coded_bytes": "metrics.encode",
    }
    for metric, name in sources.items():
        if name in tracer.missing:
            dropped[metric] = f"no function found for span {name}"
    return dropped


def summarize_trace(spans, tracer, wl, client, plain, rounds, errors, exact):
    """Median per-layer metrics over the traced round trips. Appends to
    `errors` every count that differs between round trips or phases, and
    adds the exact counts to `exact`."""
    if not rounds or not plain:
        errors.append("no untraced and traced round trip pair succeeded")
        return {}
    per_round, phases, fse_counted = [], [], True
    for roots in rounds:
        try:
            m, ph, mismatches, counted = layer_round(
                spans, tracer, wl, roots, client.container_bytes
            )
        except ValueError as exc:  # spans that do not nest
            errors.append(str(exc))
            continue
        per_round.append(m)
        phases.append(ph)
        errors.extend(mismatches)
        fse_counted = fse_counted and counted
        for phase, info in ph.items():
            total = sum(info["self_ms"].values())
            if abs(total - info["wall_ms"]) > 1e-6 * info["wall_ms"]:
                errors.append(f"{phase} self times add up to {total} ms, "
                              f"not its wall time {info['wall_ms']} ms")
    if not per_round:
        return {}
    dropped = dropped_metrics(tracer, fse_counted)
    for metric, reason in dropped.items():
        print(f"warning: dropped {metric}: {reason}", file=sys.stderr)
    counted = [k for k in EXACT_COUNTS if k not in dropped]
    for m in per_round[1:]:
        errors.extend(
            f"{k} {m[k]} != {per_round[0][k]} of the first traced round trip"
            for k in counted if m[k] != per_round[0][k]
        )
    exact.update({k: per_round[0][k] for k in counted})
    if "metrics.coded_bytes" in counted and client.report is not None and int(
        client.report["total_bytes"]
    ) != exact["metrics.coded_bytes"]:
        errors.append("traced coded bytes differ from the metrics CSV total_bytes")

    metrics = {
        k: per_round[0][k] if k in counted else statistics.median(m[k] for m in per_round)
        for k in per_round[0] if k not in dropped
    }
    traced_wall = statistics.median(
        m["trace.analyze_ms"] + m["trace.synthesize_ms"] for m in per_round
    )
    plain_wall = 1000.0 * statistics.median(plain)
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    print(f"traced round trips: {len(per_round)}, untraced: {len(plain)}")
    for phase, info in phases[len(phases) // 2].items():
        layers = sorted(info["self_ms"].items(), key=lambda kv: -kv[1])
        print(f"{phase}: wall {info['wall_ms']:.2f} ms = self-time sum "
              f"{sum(v for _, v in layers):.2f} ms; largest {layers[0][0]}; "
              + ", ".join(f"{k} {v:.2f}" for k, v in layers))
    return metrics


def code_fingerprint(numpy) -> str:
    """Hash of the program's sources and the numerical stack, which key the
    exact values an earlier run of the same code recorded."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "mclift").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    digest.update(f"{platform.python_version()} {numpy.__version__}".encode())
    return digest.hexdigest()[:16]


def check_exact(key: str, exact: dict[str, object]) -> list[str]:
    """Compare exact values with what earlier runs of the same code and
    seed recorded in .perfbench_out/exact.json, and record new ones."""
    path = OUT / "exact.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    known = ledger.setdefault(key, {})
    drift = [
        f"{name} {value!r} != {known[name]!r} recorded by an earlier run"
        for name, value in exact.items()
        if name in known and known[name] != value
    ]
    for name, value in exact.items():
        known.setdefault(name, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return drift


def describe(values: list[float], unit: str = " s") -> str:
    if not values:
        return "n=0"
    return (
        f"n={len(values)} median {statistics.median(values):.4f}{unit} "
        f"min {min(values):.4f} max {max(values):.4f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window; the last round trip may end after it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its reduced size")
    args = parser.parse_args(argv)

    cli, numpy = _import_program()
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.shrunk()
    env = environment(numpy)
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"

    print(f"mclift benchmark: workload {wl.name}, seed {args.seed} "
          f"(held-out seed {HELD_OUT_SEED}), trace {args.trace}, "
          f"{args.seconds:g} s, closed loop, 1 client")
    print("environment: " + json.dumps(env))
    print(f"workload: {wl.kind} {wl.width}x{wl.height}, {wl.frames} frames, "
          f"{wl.bit_depth}-bit, mode {wl.mode}; {wl.why}")

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        print("traced: " + ", ".join(f"{k}={v}" for k, v in tracer.found.items()))
        for name in tracer.missing:
            print(f"warning: no function found for span {name}; its time "
                  "counts in its caller's self time", file=sys.stderr)

    setup = None if args.trace else SetupTimer()
    seeds = [DATASETS * args.seed + i for i in range(1 if args.trace else DATASETS)]
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{tag}-") as tmp:
        clients = []
        for sub_seed in seeds:
            workdir = Path(tmp) / f"seed{sub_seed}"
            workdir.mkdir()
            clients.append(Client(cli, workdir, wl, sub_seed, tracer))
        # One untimed round trip per dataset and one calibration first: they
        # load lazily imported modules and FFT plans, and let the allocator
        # settle on the sizes this input needs (the first full-size call runs
        # up to 40% slower). They also record each dataset's container.
        for client in clients:
            client.analyze()
            client.synthesize()
        for weights in wl.calibration.values():
            calibrate.slowdown(weights)
        if args.trace:
            plain, rounds = run_traced(clients[0], tracer, args.seconds)
        else:
            times = run_untraced(clients, wl, args.seconds, setup)

    errors = [message for c in clients for message in c.errors]
    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failed for c in clients)
    exact: dict[int, dict[str, object]] = {
        c.seed: {"container_sha256": c.container_sha, "metrics_csv": c.report}
        for c in clients
    }
    result: dict[str, object] = {
        "workload": {**asdict(wl), "seed": args.seed, "dataset_seeds": seeds,
                     "held_out_seed": HELD_OUT_SEED},
        "environment": env,
    }

    if args.trace:
        metrics = summarize_trace(
            spans, tracer, wl, clients[0], plain, rounds, errors, exact[seeds[0]]
        )
        units = PER_LAYER
        result["hooks"] = {"found": tracer.found, "missing": tracer.missing}
        (OUT / f"spans-{tag}.json").write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "dataset_seed": seeds[0],
            "spans": [sp.to_json() for sp in tracer.spans],
        }) + "\n")
        tracer.close()
    else:
        metrics = end_to_end(wl, clients, times, setup.value())
        print(f"setup imports: raw {describe(setup.raw)}; scaled {describe(setup.scaled)}")
        units = END_TO_END
        for phase, samples in times.items():
            print(f"{phase}: raw {describe(samples.raw)}; slowdown "
                  f"{describe(samples.slowdown, '')}; scaled {describe(samples.scaled)}")
        result["samples_s"] = {phase: asdict(samples) for phase, samples in times.items()}
        result["setup_samples_s"] = {"raw": setup.raw, "scaled": setup.scaled}

    inputs = f"{wl.kind}-{wl.width}x{wl.height}x{wl.frames}-{wl.bit_depth}bit-{wl.mode}"
    for sub_seed, values in exact.items():
        errors.extend(check_exact(
            f"{code_fingerprint(numpy)}/{inputs}/seed{sub_seed}", values
        ))
    correct = failed == 0 and not errors
    print(f"calls: attempted {attempted}, failed {failed}, "
          f"failed_ops {failed / max(attempted, 1):.4f}; container sha256 "
          + ", ".join(f"seed {c.seed} {c.container_sha}" for c in clients))
    for name in units:
        if name in metrics:
            unit, better = units[name]
            print(f"  {name:32s} {metrics[name]:14.6g} {unit:7s} ({better} is better)")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name][0]}
            for name in units if name in metrics
        },
    }
    result.update(out, errors=errors, exact=exact)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n"
    )
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
