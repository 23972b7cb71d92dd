"""Golden sha256 values for the container and the reconstruction.

Each case generates a small fixture, runs `mclift analyze` and
`mclift synthesize` with default flags in one update mode, and compares
the sha256 of the container and of the raw reconstruction with pinned
values. A change in motion search, weighting, FSE arithmetic, numpy/FFT
behaviour or the container layout that moves a single byte fails here.

The fixtures cover a trailing frame and partial blocks (translate,
50x38x3), FSE hole filling next to a sharp update step
(flash_disocclusion, 80x80x2) and 12-bit samples whose SSD needs 64-bit
accumulation with 16x16 blocks (noise, 32x32x2, every FSE tile capped).
"""

import hashlib

import pytest

from mclift.cli import main

FIXTURES = {
    "translate": dict(width=50, height=38, frames=3, bit_depth=8, seed=5),
    "flash_disocclusion": dict(width=80, height=80, frames=2, bit_depth=8, seed=3),
    "noise": dict(width=32, height=32, frames=2, bit_depth=12, seed=7),
}

# (kind, mode) -> (container sha256, reconstruction sha256)
GOLDEN = {
    ("translate", "none"): (
        "9f5cef6ebcc757556bc6979889f888cb33288a1328fe438008658c2b006717e2",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("translate", "block"): (
        "c45f45f5d45d3751ec88df3f60712464b7ae569e0d1a14fb34ac91429b359654",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("translate", "block+fse"): (
        "9258f92f20662f3081adb9f71623b3f104af756730470005f26a1d582bac7edc",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("flash_disocclusion", "none"): (
        "ede2bdabd014e28c8b78dcd74cd41db081d3a5dab35f77e94045c3e319e83e8b",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("flash_disocclusion", "block"): (
        "b1b3c510384f282b3f69b051b8086eb2196e622c05184445b9877708abed8ab2",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("flash_disocclusion", "block+fse"): (
        "ff62a7e7024c5d97a4be7586f797bd927e144fdfe66bb5e4d892c6d6f61dd212",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("noise", "none"): (
        "bd84b95ca985cd72fc46311387e734d09163adaa9c7840d7caf72213b9c2e776",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
    ("noise", "block"): (
        "b1245a6c2bb2ef2c7c5f36b810e9a57f4182efd42b889b6cc3a6847c8cacb177",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
    ("noise", "block+fse"): (
        "29e6e0bbb318cfef17f8dd0a8c47d35f0454c8f8e656b33119fc9752f48944d1",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(tmp_path, kind: str, mode: str) -> tuple[str, str]:
    sidecar = tmp_path / f"{kind}.json"
    argv = ["gen-fixture", "--kind", kind, "--output", str(sidecar)]
    for key, value in FIXTURES[kind].items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    container = tmp_path / "bands.mclf"
    recon = tmp_path / "recon.raw"
    assert main(["analyze", "--input", str(sidecar), "--output", str(container),
                 "--mode", mode]) == 0
    assert main(["synthesize", "--input", str(container), "--output", str(recon)]) == 0
    assert recon.read_bytes() == (tmp_path / f"{kind}.raw").read_bytes()
    return _sha256(container), _sha256(recon)


@pytest.mark.parametrize("kind,mode", sorted(GOLDEN))
def test_golden_hashes(tmp_path, kind, mode):
    assert digests(tmp_path, kind, mode) == GOLDEN[kind, mode]
