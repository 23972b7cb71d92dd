import numpy as np
import pytest
from hypothesis import given, strategies as st

from mclift.core import (
    Frame,
    FseParams,
    LiftConfig,
    MotionField,
    Sequence,
    UpdateField,
    floor_samples,
    grid_dims,
)

from conftest import iter_blocks


@pytest.mark.parametrize(
    "value,expected",
    [(2.5, 2), (-2.5, -3), (7.0, 7), (-0.0001, -1), (0.0, 0)],
)
def test_floor_scale_examples(value, expected):
    # A scaled prediction or update value floors toward minus infinity.
    assert floor_samples(np.array([[value]])).tolist() == [[expected]]


def test_floor_samples_matches_scalar():
    vals = np.array([[2.5, -2.5, 7.0, -0.75], [-0.0001, 0.0, -0.0, 1e-300]])
    assert floor_samples(vals).tolist() == [[2, -3, 7, -1], [-1, 0, 0, 0]]


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12))
def test_floor_samples_bracket(x):
    f = int(floor_samples(np.array([[x]]))[0, 0])
    assert f <= x < f + 1


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(np.zeros((0, 4), dtype=np.int32), 8)
    with pytest.raises(ValueError):
        Frame(np.zeros(16, dtype=np.int32), 8)
    with pytest.raises(TypeError):
        Frame(np.zeros((2, 2), dtype=np.float64), 8)
    with pytest.raises(ValueError):
        Frame(np.zeros((2, 2), dtype=np.int32), 0)
    with pytest.raises(ValueError):
        Frame(np.zeros((2, 2), dtype=np.int32), 17)


def test_frame_is_immutable_and_comparable():
    a = Frame(np.arange(6, dtype=np.int32).reshape(2, 3), 8)
    b = Frame(np.arange(6, dtype=np.int32).reshape(2, 3), 8)
    c = Frame(np.arange(6, dtype=np.int32).reshape(2, 3), 12)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        a.samples[0, 0] = 5
    assert a.width == 3 and a.height == 2 and a.max_value == 255


def test_frame_accepts_subband_range():
    hp = Frame(np.array([[-256, 256]], dtype=np.int32), 8)
    assert hp.samples.tolist() == [[-256, 256]]
    assert hp.samples.min() < 0 and hp.samples.max() > hp.max_value


def test_sequence_validation():
    f = Frame(np.zeros((4, 4), dtype=np.int32), 8)
    g = Frame(np.zeros((4, 5), dtype=np.int32), 8)
    with pytest.raises(ValueError):
        Sequence(())
    with pytest.raises(ValueError):
        Sequence((f, g))
    seq = Sequence((f, f), axis_label="slice")
    assert len(seq) == 2 and seq.axis_label == "slice"


def test_motion_field_rejects_float_or_misshapen_vectors():
    with pytest.raises(TypeError):
        MotionField(8, np.zeros((2, 2, 2)))
    for shape in [(2, 2), (2, 2, 3), (1, 2, 2, 2)]:
        with pytest.raises(ValueError, match="shape"):
            MotionField(8, np.zeros(shape, dtype=np.int64))


def test_motion_field_vectors_are_frozen():
    field = MotionField(8, np.zeros((2, 3, 2), dtype=np.int16))
    assert field.vectors.dtype == np.int64
    assert (field.blocks_x, field.blocks_y) == (3, 2)
    with pytest.raises(ValueError, match="read-only"):
        field.vectors[0, 0, 0] = 1


def test_update_field_shape_check():
    with pytest.raises(ValueError):
        UpdateField(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))


def test_grid_dims_and_clipped_blocks():
    assert grid_dims(33, 16, 16) == (3, 1)
    blocks = list(iter_blocks(33, 16, 16))
    assert len(blocks) == 3
    assert blocks[-1].w == 1 and blocks[-1].h == 16
    assert sum(b.w * b.h for b in blocks) == 33 * 16


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tile_size": 0},
        {"border": -1},
        {"decay_rho": 1.0},
        {"decay_rho": 0.0},
        {"orth_gamma": 0.0},
        {"orth_gamma": 1.5},
        {"max_iterations": 0},
        {"stop_epsilon": -1.0},
        {"stop_epsilon": float("nan")},
        {"stop_epsilon": float("inf")},
        {"stop_epsilon": float("-inf")},
        {"tile_size": 1 << 16},
        {"border": 1 << 16},
        {"tile_size": 200, "border": 100},  # fft_size 512
        {"max_iterations": 10_001},
        {"max_iterations": 1 << 32},
        {"tile_size": 16, "border": 16, "max_iterations": 1001},  # work 16016
        {"tile_size": 1, "border": 127, "max_iterations": 10_000},
        {"max_iterations": 6251},  # work per pixel 16002.56 at the defaults
    ],
)
def test_fse_params_validation(kwargs):
    with pytest.raises(ValueError):
        FseParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        # the default geometry and budget of earlier releases
        {"tile_size": 16, "border": 16, "max_iterations": 1000},
        {"tile_size": 8, "border": 8, "max_iterations": 1000},
        {"tile_size": 16, "border": 0, "max_iterations": 10_000},
        {"max_iterations": 6250},
    ],
)
def test_fse_params_accept_work_per_pixel_up_to_the_bound(kwargs):
    # fft_size^2 * max_iterations / tile_size^2 is 16000, 16000, 10000 and
    # 16000
    assert FseParams(**kwargs).max_iterations == kwargs["max_iterations"]


def test_fse_params_derive_fft_size():
    assert FseParams().fft_size == 64
    assert FseParams(tile_size=128, border=64).fft_size == 256
    assert FseParams(tile_size=8, border=8).fft_size == 32
    assert FseParams(tile_size=8, border=4).fft_size == 16
    assert FseParams(tile_size=4, border=4).fft_size == 16
    assert FseParams(tile_size=16, border=17).fft_size == 64
    assert FseParams(tile_size=17, border=16).fft_size == 64
    assert FseParams(tile_size=1, border=0).fft_size == 1
    assert FseParams(tile_size=3, border=0).fft_size == 4


def test_lift_config_validation():
    with pytest.raises(ValueError):
        LiftConfig(block_size=0)
    with pytest.raises(ValueError):
        LiftConfig(search_range=-1)
    with pytest.raises(ValueError, match="65535"):
        LiftConfig(block_size=65536)
    assert LiftConfig(block_size=65535).block_size == 65535
    cfg = LiftConfig()
    assert cfg.block_size == 16 and cfg.search_range == 15
    assert cfg.fse.max_iterations == 100
