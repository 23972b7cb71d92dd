"""Inversion of the block-based compensation.

Highpass blocks are scattered back to the reference-frame positions they
were predicted from. Pixels hit by k blocks accumulate k contributions;
those sums are later weighted by 1/(k+1), which reproduces the classic
Haar 1/2 update for one-connected pixels. Pixels hit by no block form
the unconnected (hole) set.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import ConnectivityMap, Frame, UpdateField


class ConnectivityStats(NamedTuple):
    unconnected: int
    one: int
    multi: int


def imc_scatter(
    highpass: Frame, source: np.ndarray
) -> tuple[np.ndarray, ConnectivityMap]:
    """Scatter highpass blocks back along the compensation map `source`
    (see `compensation_source`).

    Returns the raw accumulated sums (float64, not yet weighted) and the
    per-pixel contribution counts, both binned over the map. The sums are
    exact while every partial sum is an integer below 2**53, so they do not
    depend on summation order. Data read from a dataset always meets this:
    |highpass| < 2**16 and a pixel takes at most 2**32 contributions.
    Analysis and synthesis share this code, so the round trip is exact in
    every case.
    """
    shape = highpass.samples.shape
    if source.shape != shape:
        raise ValueError("compensation map shape does not match frame")
    flat = source.ravel()
    sums = np.bincount(flat, weights=highpass.samples.ravel(), minlength=flat.size)
    counts = np.bincount(flat, minlength=flat.size)
    return sums.reshape(shape), ConnectivityMap(counts.reshape(shape))


def apply_connectivity_weights(sums: np.ndarray, conn: ConnectivityMap) -> UpdateField:
    """Weight k-connected sums by 1/(k+1). No block lands on an unconnected
    pixel, so its sum, and its weighted value, is zero."""
    if conn.counts.shape != sums.shape:
        raise ValueError("connectivity map shape does not match update sums")
    k = conn.counts
    return UpdateField(values=sums / (k + 1), hole_mask=k == 0)


def connectivity_stats(conn: ConnectivityMap) -> ConnectivityStats:
    counts = conn.counts
    unconnected = int(np.count_nonzero(counts == 0))
    one = int(np.count_nonzero(counts == 1))
    multi = counts.size - unconnected - one
    return ConnectivityStats(unconnected, one, multi)
