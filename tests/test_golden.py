"""Golden sha256 values for the container and the reconstruction.

Each case generates a small fixture, runs `mclift analyze` and
`mclift synthesize` with default flags in one update mode, and compares
the sha256 of the container and of the raw reconstruction with pinned
values. A change in motion search, weighting, FSE arithmetic, numpy/FFT
behaviour or the container layout that moves a single byte fails here.

The same cases run again with `--fse-iters 1000`, the default budget of
earlier releases, against the container hashes those releases wrote. The
header carries the budget and the decoder recomputes the fill from it, so
a default budget change moves every container hash but must leave these
pins, and every reconstruction, unchanged.

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

# (kind, mode) -> (container sha256, reconstruction sha256) at default flags
GOLDEN = {
    ("translate", "none"): (
        "34dabfc00bd95321c1a136862446699ac9bd118770abdc0e09499fb3f2fea38c",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("translate", "block"): (
        "960dd79ed640922da825c0b4ba207d4a673ebfc61d3575c43e5b3981229c7417",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("translate", "block+fse"): (
        "3f1d59308ca72d09a88c8a9e436b888f0eb35845d6fe7760fb6892c78a79f7f6",
        "d359c19e468b35a6b2fbef023b42b6cd04ef197ccf84e1972ffa53029e51387d",
    ),
    ("flash_disocclusion", "none"): (
        "83809ab536643e9513ef1db13ea8db9dddee23dfd0208726b2907cb8872cd06c",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("flash_disocclusion", "block"): (
        "166305596691b81f10fde0f2be930a666c4833ef740ae5a6afba33795dc2c230",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("flash_disocclusion", "block+fse"): (
        "3a1c19a6287ca8fae9841f054ad02c9b9f6ced7cc5c17d8496b956cf850e7c5e",
        "26fc6d485a38a7999bda9d54539cc472a531762df85fed4ec89f94914feb9a8d",
    ),
    ("noise", "none"): (
        "62aeed4c05e26ed0c1ba6e57af19cb11c6726e94f950458cac54d5bd34d9b7f1",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
    ("noise", "block"): (
        "e7f4dd15cdb49194bd4c0eab4d5a793f769d9fba0a64fce20047af289a39839c",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
    ("noise", "block+fse"): (
        "a39c7f71deddbfb5cd6920a03de04f51ec6c1cc9330307642485534d3a80721d",
        "fbb89e75e0c8d9eb8ec4dea9860e39302243ae512dc78a38cd8a6a1f84817d72",
    ),
}

# (kind, mode) -> container sha256 at --fse-iters 1000; the reconstruction
# sha256 is the one in GOLDEN
GOLDEN_BUDGET_1000 = {
    ("translate", "none"):
        "9f5cef6ebcc757556bc6979889f888cb33288a1328fe438008658c2b006717e2",
    ("translate", "block"):
        "c45f45f5d45d3751ec88df3f60712464b7ae569e0d1a14fb34ac91429b359654",
    ("translate", "block+fse"):
        "9258f92f20662f3081adb9f71623b3f104af756730470005f26a1d582bac7edc",
    ("flash_disocclusion", "none"):
        "ede2bdabd014e28c8b78dcd74cd41db081d3a5dab35f77e94045c3e319e83e8b",
    ("flash_disocclusion", "block"):
        "b1b3c510384f282b3f69b051b8086eb2196e622c05184445b9877708abed8ab2",
    ("flash_disocclusion", "block+fse"):
        "ff62a7e7024c5d97a4be7586f797bd927e144fdfe66bb5e4d892c6d6f61dd212",
    ("noise", "none"):
        "bd84b95ca985cd72fc46311387e734d09163adaa9c7840d7caf72213b9c2e776",
    ("noise", "block"):
        "b1245a6c2bb2ef2c7c5f36b810e9a57f4182efd42b889b6cc3a6847c8cacb177",
    ("noise", "block+fse"):
        "29e6e0bbb318cfef17f8dd0a8c47d35f0454c8f8e656b33119fc9752f48944d1",
}


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


@pytest.mark.parametrize("kind,mode", sorted(GOLDEN_BUDGET_1000))
def test_golden_hashes_at_budget_1000(tmp_path, kind, mode):
    container, recon = GOLDEN_BUDGET_1000[kind, mode], GOLDEN[kind, mode][1]
    assert digests(tmp_path, kind, mode, "--fse-iters", "1000") == (container, recon)
