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

from .core import ConnectivityMap, Frame, MotionField, UpdateField, compensation_source


class ConnectivityStats(NamedTuple):
    unconnected: int
    one: int
    multi: int


def imc_scatter(
    highpass: Frame, motion: MotionField
) -> tuple[UpdateField, ConnectivityMap]:
    """Scatter highpass blocks back along their vectors.

    Returns the raw accumulated sums (not yet weighted) and the per-pixel
    contribution counts, both binned over the compensation map. The float64
    sums are exact while every partial sum is an integer below 2**53, so
    they do not depend on summation order. Data read from a dataset always
    meets this: |highpass| < 2**16 and a pixel takes at most 2**32
    contributions. Analysis and synthesis share this code, so the round
    trip is exact in every case.
    """
    height, width = highpass.samples.shape
    source = compensation_source(motion, width, height).ravel()
    size = height * width
    sums = np.bincount(source, weights=highpass.samples.ravel(), minlength=size)
    counts = np.bincount(source, minlength=size).reshape(height, width)
    accum = UpdateField(values=sums.reshape(height, width), hole_mask=counts == 0)
    return accum, ConnectivityMap(counts)


def apply_connectivity_weights(
    accum: UpdateField, conn: ConnectivityMap
) -> UpdateField:
    """Weight k-connected sums by 1/(k+1); unconnected pixels stay zero."""
    if conn.counts.shape != accum.values.shape:
        raise ValueError("connectivity map shape does not match update field")
    k = conn.counts
    values = np.where(k > 0, accum.values / (k + 1), 0.0)
    return UpdateField(values=values, hole_mask=k == 0)


def connectivity_stats(conn: ConnectivityMap) -> ConnectivityStats:
    counts = conn.counts
    unconnected = int(np.count_nonzero(counts == 0))
    one = int(np.count_nonzero(counts == 1))
    multi = counts.size - unconnected - one
    return ConnectivityStats(unconnected, one, multi)
