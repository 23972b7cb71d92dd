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
        "93edb72f67df3828c9427897a46b75eb5a06d8acf8aa5d7a4177276005e6ada4",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("translate", "block"): (
        "4c49bc979cd8e578e46cdca84a94554b4b2e6f3956721f04517d2099d8242173",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("translate", "block+fse"): (
        "344a16e93ed113836be92bd2bcedc39c9b953a04121e9afe81b79ab12924d58f",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("flash_disocclusion", "none"): (
        "ddbc58a6b1608e28d2a1542186cbe0265f4763427e67ea3136311b51b7099ce8",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("flash_disocclusion", "block"): (
        "ca5fc0f9fd7f21f02400454fe78a1602ea43b81cb5b66b9dc037865f68144e80",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("flash_disocclusion", "block+fse"): (
        "fec9760dfb7dec78f58f38f2036aea5003ebc51b67a8949ecc9ea583c4b84ba6",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("noise", "none"): (
        "74b7509bed73392295c235efe5f81805106717fbed8143610aa1ea4cad4fc906",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
    ("noise", "block"): (
        "bf161ab7746a7d3145f4d0366c3d6327ccc739040d37c0feaeca5b86ab4de6aa",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
    ("noise", "block+fse"): (
        "c654601fe930224043cbd6ed14604fbbaf37ac7c55b3d3785a748588ccee60f6",
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
