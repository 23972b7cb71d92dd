"""Golden sha256 values for the container and the reconstruction.

Each case generates a small fixture, runs `mclift analyze` and
`mclift synthesize` with default flags in one update mode, and compares
the sha256 of the container and of the raw reconstruction with pinned
values. A change in motion search, weighting, FSE arithmetic, numpy/FFT
behaviour or the container layout that moves a single byte fails here.

The header carries the FSE parameters and the decoder recomputes the fill
from them, so a change of a default moves every container hash but must
leave the containers written at the old value, and every reconstruction,
unchanged. Two such pin sets are kept:

* `--fse-tile 16 --fse-border 16`, the default tile geometry of earlier
  releases. These are the container hashes the default flags gave before
  the default became tile 40, border 12.
* `--fse-tile 16 --fse-border 16 --fse-iters 1000`, the default geometry
  and iteration budget of earlier releases.

All are version 3 pins, no longer the bytes earlier releases wrote: the
half-plane FSE loop bumped the container version, and the containers of
every case here differ from the version 2 ones only in that byte.

The fixtures cover a trailing frame and partial blocks (translate,
50x38x3), FSE hole filling next to a sharp update step
(flash_disocclusion, 80x80x2) and 12-bit samples whose SSD needs 64-bit
accumulation with 16x16 blocks (noise, 32x32x2, every FSE tile capped: one
tile at the default geometry, three at tile 16).
"""

import hashlib

import pytest

from mclift.cli import main

FIXTURES = {
    "translate": dict(width=50, height=38, frames=3, bit_depth=8, seed=5),
    "flash_disocclusion": dict(width=80, height=80, frames=2, bit_depth=8, seed=3),
    "noise": dict(width=32, height=32, frames=2, bit_depth=12, seed=7),
}

# (kind, mode) -> (container sha256, reconstruction sha256) at default flags
GOLDEN = {
    ("translate", "none"): (
        "98a919c09e3ada8af3b6a799d0f9d395a2e7391b9993b6e3227d4359734dc60e",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("translate", "block"): (
        "d211c95242a642bc1f47b23dc7ab158d951095b2dbcc6376b38c02c381cfca06",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("translate", "block+fse"): (
        "a1be5034622febc76dba37d28111987eb29a62210dc16fd0f23ee65d6a5710ef",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("flash_disocclusion", "none"): (
        "e44b38c76281626288a65d7ed65b226c0363fa31364db03a355aeaf4f0fe613b",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("flash_disocclusion", "block"): (
        "4600bc70df1667432ca4488e4566cadbb2a1c998ae041dfa0938384650ed5900",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("flash_disocclusion", "block+fse"): (
        "7d34a3d7cec2931b8861783cf8a5cf29e5fc1fe3b00678d78589482d7db32535",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("noise", "none"): (
        "95a216a4d1d8e1e6554b2be736227f7d4aaf6ad0ba968e1f9152fc8a0d5b49fb",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
    ("noise", "block"): (
        "ef95e1be73d5baecdf49ed82a6e34da9bad67a5c516f4a43a3023c373c1cc979",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
    ("noise", "block+fse"): (
        "23a233bfc2040e5761c9e9a8662d7ef809b75e1c674278cb6be1d59f1630fc2a",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
}

# (kind, mode) -> container sha256 at --fse-tile 16 --fse-border 16, the
# default geometry of earlier releases; the reconstruction sha256 is the one
# in GOLDEN
GOLDEN_TILE_16 = {
    ("translate", "none"):
        "7f622390b700d066128a55152fc3ed0015d4a527a0042812f7720b68c6b5a2fd",
    ("translate", "block"):
        "e037e3d87782afdebff7d244d8e7d09fdf70ab9c2505055e02c4cc26ab710985",
    ("translate", "block+fse"):
        "08c54548a2557f1afefd96e37312102cc5694ac5e9a6e5a0b1b289a343f62a6c",
    ("flash_disocclusion", "none"):
        "98f833662f8ae42929c37353742a43ce9563c587d21c808c1ea47a3ca881c222",
    ("flash_disocclusion", "block"):
        "5d577f976df5b9bae7b7debf70d4061a9a3a59af73c992491209bf8c1127fae1",
    ("flash_disocclusion", "block+fse"):
        "aa4cc24f48517188e626f918058df5fa7decb7f1efdd822bc6773452d89b20a3",
    ("noise", "none"):
        "b6880fb5d76ac50d718156d13ba75738cc16641217f53f069b2f0348eb162505",
    ("noise", "block"):
        "be666ee0e3a1cc053a9a480317ca1e53b2660275f5647a84b592e4579867220d",
    ("noise", "block+fse"):
        "7e166510e4a5b5f7ef9ed7fe6b20e255d82e766813e5b87f88a338295b411c24",
}

# (kind, mode) -> container sha256 at --fse-tile 16 --fse-border 16
# --fse-iters 1000; the reconstruction sha256 is the one in GOLDEN
GOLDEN_BUDGET_1000 = {
    ("translate", "none"):
        "3d5e183ca8f0e590d66cdb2bb8ee2004fb3386478dd1c459a358b42549bf0065",
    ("translate", "block"):
        "e5c3c81ed9f80d2ec151256a57f4c89507db06083712f12e3979146b3a26a30f",
    ("translate", "block+fse"):
        "ac8c2c7c6f8522d9ae789108c36bb4af71279fbc911dcfb42727e4cf85cfb041",
    ("flash_disocclusion", "none"):
        "a3b55259202b91a0ea364e3f3899ce33956fbca9296ee73d960ba2741351747c",
    ("flash_disocclusion", "block"):
        "08f03a44127755c6bd774c8578f197b3dfc695ac2e4b4fa7bb52825fab761c8a",
    ("flash_disocclusion", "block+fse"):
        "36c116850bec19032decffb5c110cb7f0c1df660b43a8991250505cda25a057b",
    ("noise", "none"):
        "baeff9f6c37edce2ffaf86af2d3374a2d7646fb888a3236f862dfefd5cac1f08",
    ("noise", "block"):
        "cceb06cb25de505dc04d7cd60b97839616b30f6501bf18b9945e4564b5fc6e88",
    ("noise", "block+fse"):
        "2fe52aba432ed2d7fb6c5eba837a5e08239ade12acbe788e41c2cee93f29bdff",
}


TILE_16_FLAGS = ("--fse-tile", "16", "--fse-border", "16")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(tmp_path, kind: str, mode: str, *flags: str) -> tuple[str, str]:
    sidecar = tmp_path / f"{kind}.json"
    argv = ["gen-fixture", "--kind", kind, "--output", str(sidecar)]
    for key, value in FIXTURES[kind].items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    container = tmp_path / "bands.mclf"
    recon = tmp_path / "recon.raw"
    assert main(["analyze", "--input", str(sidecar), "--output", str(container),
                 "--mode", mode, *flags]) == 0
    assert main(["synthesize", "--input", str(container), "--output", str(recon)]) == 0
    assert recon.read_bytes() == (tmp_path / f"{kind}.raw").read_bytes()
    return _sha256(container), _sha256(recon)


@pytest.mark.parametrize("kind,mode", sorted(GOLDEN))
def test_golden_hashes(tmp_path, kind, mode):
    assert digests(tmp_path, kind, mode) == GOLDEN[kind, mode]


@pytest.mark.parametrize("kind,mode", sorted(GOLDEN_TILE_16))
def test_golden_hashes_at_tile_16(tmp_path, kind, mode):
    container, recon = GOLDEN_TILE_16[kind, mode], GOLDEN[kind, mode][1]
    assert digests(tmp_path, kind, mode, *TILE_16_FLAGS) == (container, recon)


@pytest.mark.parametrize("kind,mode", sorted(GOLDEN_BUDGET_1000))
def test_golden_hashes_at_budget_1000(tmp_path, kind, mode):
    container, recon = GOLDEN_BUDGET_1000[kind, mode], GOLDEN[kind, mode][1]
    flags = (*TILE_16_FLAGS, "--fse-iters", "1000")
    assert digests(tmp_path, kind, mode, *flags) == (container, recon)
