"""The benchmark's span tracer against the real CLI.

`perfbench/spans.py` replaces public functions at the module attributes
their callers look them up through, so a rename or a signature change in
the program can silently lose a hook. This test loads that file as it is,
installs its own hooks and runs one `analyze` + `synthesize` round trip in
`block+fse`, the way a traced benchmark round does.
"""

import importlib.util
import sys
from pathlib import Path

from mclift.cli import main

from test_golden import FIXTURES

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# Block-path stages that run once per pair in each direction.
PER_PAIR = ("lifting.predict", "imc.scatter", "imc.weights", "fse.reconstruct")


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_round_trip_finds_every_hook_and_counts_alike(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    sidecar = tmp_path / "noise.json"
    argv = ["gen-fixture", "--kind", "noise", "--output", str(sidecar)]
    for key, value in FIXTURES["noise"].items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    container, recon = tmp_path / "bands.mclf", tmp_path / "recon.raw"

    tracer = spans.Tracer()
    tracer.install(spans.HOOKS)
    try:
        tracer.enabled = True
        with tracer.span("cli.analyze"):
            assert main(["analyze", "--input", str(sidecar), "--output",
                         str(container), "--mode", "block+fse"]) == 0
        with tracer.span("cli.synthesize"):
            assert main(["synthesize", "--input", str(container),
                         "--output", str(recon)]) == 0
        tracer.enabled = False
        tracer.count_pending()
    finally:
        tracer.close()

    assert tracer.missing == []
    assert recon.read_bytes() == (tmp_path / "noise.raw").read_bytes()
    roots = [span for span in tracer.spans if span.parent is None]
    assert [root.name for root in roots] == ["cli.analyze", "cli.synthesize"]
    for root in roots:
        names = [span.name for span in spans.tree(tracer.spans, root)]
        assert [names.count(name) for name in PER_PAIR] == [1] * len(PER_PAIR)
    for name in ("imc.scatter", "fse.reconstruct"):
        analysis, synthesis = (
            spans.summed_counts(tracer.spans, root, name) for root in roots
        )
        assert analysis and analysis == synthesis
