"""Calibration kernels: fixed work that measures how fast the machine runs
right now, so that the program's call times can be put on one scale.

On a shared virtual machine the speed of the same code drifts by 1.3-2.5x
over stretches of seconds to minutes, and a whole run can sit in a slow
stretch. The benchmark times a calibration mix right before each program
call and divides the call's time by the mix's slowdown against its nominal
time. The mix resembles the call's own work, because different code slows
by different amounts.

The kernels are frozen miniatures of the program's hot loops as they were
when the benchmark was written: the exhaustive block-SSD candidate loop
over integral images, the frequency-selective-extrapolation iteration, and
a mix of small numpy calls and plain Python. They never import the
program, so no change to the program changes them.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_CUR = _RNG.integers(0, 256, size=(144, 176)).astype(np.int64)
_REF = np.roll(_CUR, (2, -3), (0, 1)) + _RNG.integers(-2, 3, size=(144, 176))
_BLOCKS = np.arange(0, 176, 16, dtype=np.int64), np.arange(0, 144, 16, dtype=np.int64)
_SIZE = 64
_WINDOW = np.exp(-np.hypot(*np.meshgrid(np.arange(_SIZE) - 31.5, np.arange(_SIZE) - 31.5)) / 8)
_WINDOW[24:40, 24:40] = 0.0
_SUPPORT = _RNG.integers(0, 256, size=(_SIZE, _SIZE)).astype(np.float64) * (_WINDOW > 0)


def motion(candidates: int = 40) -> None:
    """Block-SSD costs of every 16x16 block of a 176x144 frame for
    `candidates` displacements, by integral images."""
    xs0, ys0 = _BLOCKS
    height, width = _CUR.shape
    best = np.full((ys0.size, xs0.size), np.iinfo(np.int64).max)
    for k in range(candidates):
        dy, dx = k % 7 - 3, k // 7 - 3
        y0, y1 = max(0, -dy), min(height, height - dy)
        x0, x1 = max(0, -dx), min(width, width - dx)
        d = _CUR[y0:y1, x0:x1] - _REF[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
        integral = np.zeros((d.shape[0] + 1, d.shape[1] + 1), dtype=np.int64)
        np.cumsum(d * d, axis=0, out=integral[1:, 1:])
        np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
        top = np.clip(ys0 - y0, 0, integral.shape[0] - 1)
        bottom = np.clip(ys0 + 16 - y0, 0, integral.shape[0] - 1)
        left = np.clip(xs0 - x0, 0, integral.shape[1] - 1)
        right = np.clip(xs0 + 16 - x0, 0, integral.shape[1] - 1)
        costs = (
            integral[bottom[:, None], right[None, :]]
            - integral[top[:, None], right[None, :]]
            - integral[bottom[:, None], left[None, :]]
            + integral[top[:, None], left[None, :]]
        )
        np.minimum(best, costs, out=best)


def fse(iterations: int = 200) -> None:
    """`iterations` steps of selecting the strongest residual bin of a
    64x64 tile and subtracting its shifted window spectrum."""
    window_spectrum = np.fft.fft2(_WINDOW)
    w_total = float(window_spectrum[0, 0].real)
    residual = np.fft.fft2(_WINDOW * _SUPPORT)
    for _ in range(iterations):
        mag2 = residual.real**2 + residual.imag**2
        uy, ux = divmod(int(np.argmax(mag2)), _SIZE)
        step = 0.5 * residual[uy, ux] / w_total
        residual -= step * np.roll(window_spectrum, (uy, ux), (0, 1))
        residual -= step.conjugate() * np.roll(
            window_spectrum, ((-uy) % _SIZE, (-ux) % _SIZE), (0, 1)
        )


def overhead(rounds: int = 1500) -> None:
    """Small numpy calls and plain Python objects, as in argument parsing,
    container packing and per-block bookkeeping."""
    plane = _SUPPORT[:16, :16]
    table: dict[tuple[int, int], float] = {}
    for i in range(rounds):
        table[i % 37, i % 11] = float(plane[i % 16].sum()) + len(str(i))
        np.clip(plane[i % 16], 0, 255).astype(np.uint8).tobytes()


KERNELS = {"motion": motion, "fse": fse, "overhead": overhead}
# Plain-Python loop that calibrates the import time of a fresh interpreter,
# run as source there before anything else is imported.
PYTHON_LOOP = "s = 0\nfor i in range(200000):\n    s += i * i % 7\n"
PYTHON_LOOP_NOMINAL_S = 0.0275
# Seconds per kernel call that define speed 1.0: about the fastest of 200
# calls on a shared 2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4.
NOMINAL_S = {"motion": 0.0095, "fse": 0.0107, "overhead": 0.0085}
# A kernel whose process used this much more CPU time than wall time ran
# beside another busy thread of the process, which would skew the scale.
CPU_OVER_WALL = 1.25


def slowdown(weights: dict[str, float]) -> tuple[float, bool]:
    """Time the kernels named in `weights` once each. Returns the weighted
    sum of each kernel's time over its nominal time (1.0 at nominal speed,
    2.0 when the machine runs half as fast) and whether the process used
    no more CPU than the kernels themselves did."""
    total, alone = 0.0, True
    for name, weight in weights.items():
        cpu, start = time.process_time(), time.perf_counter()
        KERNELS[name]()
        wall = time.perf_counter() - start
        alone = alone and time.process_time() - cpu <= CPU_OVER_WALL * wall + 1e-3
        total += weight * wall / NOMINAL_S[name]
    return total, alone
