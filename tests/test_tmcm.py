"""Word-level TMCM, secret key slicing, folded filter simulation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_convolution, tmcm_multiply

from firlock.decoys import DecoyMethod, assign_decoys
from firlock.tmcm import (
    ObfuscatedTMCM,
    SecretKey,
    build_tmcm,
    key_offsets,
    simulate_filter,
    tmcm_select,
)

from conftest import make_quantized, small_tmcms


@pytest.fixture()
def small_build():
    qf = make_quantized([3, -2, 5], [2, -3, 4], [4, -1, 6], Q=4)
    da = assign_decoys(qf, 4, DecoyMethod.RD, seed=9)
    tmcm, key = build_tmcm(qf, da, ibw=6, seed=10)
    return qf, da, tmcm, key


# --- build and key ------------------------------------------------------

def test_key_slice_points_at_coefficient(small_build):
    qf, da, tmcm, key = small_build
    for i in range(qf.N):
        pos = key.slice_value(i)
        assert tmcm.mux_tables[i][pos] == qf.coeffs[i]


def test_tables_are_permutations(small_build):
    qf, da, tmcm, _ = small_build
    for i in range(qf.N):
        assert sorted(tmcm.mux_tables[i]) == sorted((int(qf.coeffs[i]),) + da.D[i])


def test_reference_key_width_layout(built):
    b = built(1, DecoyMethod.HDRD)
    assert b.tmcm.key_widths == (2, 2, 2) + (1,) * 26
    assert b.tmcm.p == 32
    assert b.secret.p == 32


def test_build_deterministic(small_build):
    qf, da, tmcm, key = small_build
    tmcm2, key2 = build_tmcm(qf, da, ibw=6, seed=10)
    assert tmcm2 == tmcm and key2 == key
    tmcm3, _ = build_tmcm(qf, da, ibw=6, seed=11)
    assert tmcm3 != tmcm


def test_key_hex_round_trip(small_build):
    _, _, tmcm, key = small_build
    text = key.to_hex()
    assert len(text) == (key.p + 3) // 4
    assert text == text.lower()
    again = SecretKey.from_hex(text, key.widths)
    assert again == key


def test_layout_sidecar_fields(small_build):
    _, _, _, key = small_build
    layout = key.layout_json_dict()
    assert layout["p"] == key.p
    assert [s["width"] for s in layout["slices"]] == list(key.widths)
    offs = [s["offset"] for s in layout["slices"]]
    assert offs == sorted(offs)


def test_key_offsets_pack_slices_from_bit_0():
    assert key_offsets((2, 1, 3)) == (0, 2, 3)
    assert key_offsets(()) == ()


@pytest.mark.parametrize("size", [0, 3])
def test_table_size_must_be_a_power_of_two(size):
    with pytest.raises(ValueError, match=f"table 1 size {size} is not a power of two"):
        ObfuscatedTMCM(ibw=4, cbw=4, mux_tables=((1, 2), tuple(range(size))), seed=0)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_tmcm_json_round_trip(data):
    tmcm = data.draw(small_tmcms(data.draw(st.integers(-1, 1))))
    again = ObfuscatedTMCM.from_json_dict(json.loads(json.dumps(tmcm.to_json_dict())))
    assert again == tmcm
    assert (again.N, again.key_widths, again.p) == (tmcm.N, tmcm.key_widths, tmcm.p)


# --- select / multiply --------------------------------------------------

def test_select_secret_yields_coefficients(small_build):
    qf, _, tmcm, key = small_build
    assert [tmcm_select(tmcm, i, key) for i in range(qf.N)] == list(qf.coeffs)


def test_select_slice_locality(small_build):
    qf, _, tmcm, key = small_build
    for j in range(qf.N):
        if tmcm.key_widths[j] == 0:
            continue
        wrong = key.with_slice(j, key.slice_value(j) ^ 1)
        for i in range(qf.N):
            got = tmcm_select(tmcm, i, wrong)
            if i == j:
                assert got != qf.coeffs[i]
            else:
                assert got == qf.coeffs[i]


def test_any_wrong_key_hits_a_decoy(small_build):
    qf, _, tmcm, key = small_build
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(0, 1 << tmcm.p))
        if k == key.bits:
            continue
        selected = [tmcm_select(tmcm, i, k) for i in range(qf.N)]
        assert any(s != c for s, c in zip(selected, qf.coeffs))


def test_multiply_values(small_build):
    _, _, tmcm, key = small_build
    assert tmcm_multiply(tmcm, 0, key, 0) == 0
    assert tmcm_multiply(tmcm, 1, key, 1) == -2
    assert tmcm_multiply(tmcm, 2, key, 3) == 15


def test_multiply_range_checked(small_build):
    _, _, tmcm, key = small_build
    with pytest.raises(ValueError):
        tmcm_multiply(tmcm, 0, key, 1 << (tmcm.ibw - 1))


# --- folded filter ------------------------------------------------------

def test_step_response_prefix_sums(small_build):
    qf, _, tmcm, key = small_build
    y = simulate_filter(tmcm, key, [1, 1, 1])
    expect = np.cumsum(qf.coeffs)
    assert list(y) == list(expect)


def test_simulation_matches_reference_convolution(small_build):
    qf, _, tmcm, key = small_build
    rng = np.random.default_rng(2)
    xs = rng.integers(-32, 32, size=500)
    assert np.array_equal(simulate_filter(tmcm, key, xs), reference_convolution(qf.coeffs, xs))


def test_batched_rows_equal_single_key_runs(small_build):
    # One run of the secret, every single-slice corruption and random
    # keys: each row is that key's own stream and its own convolution.
    from firlock.evaluate import single_slice_corruptions

    _, _, tmcm, key = small_build
    rng = np.random.default_rng(6)
    keys = [
        key,
        *single_slice_corruptions(key),
        *(int(k) for k in rng.integers(0, 1 << tmcm.p, size=20)),
    ]
    xs = rng.integers(-32, 32, size=60)
    rows = simulate_filter(tmcm, keys, xs)
    assert rows.shape == (len(keys), len(xs))
    for k, row in zip(keys, rows):
        taps = [tmcm_select(tmcm, i, k) for i in range(tmcm.N)]
        assert np.array_equal(row, simulate_filter(tmcm, k, xs))
        assert np.array_equal(row, reference_convolution(taps, xs))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_rows_equal_convolutions_of_selected_constants(data):
    tmcm = data.draw(small_tmcms(1))
    keys = data.draw(st.lists(st.integers(0, (1 << tmcm.p) - 1), max_size=6))
    half = 1 << (tmcm.ibw - 1)
    xs = data.draw(st.lists(st.integers(-half, half - 1), max_size=12))
    rows = simulate_filter(tmcm, keys, xs)
    assert rows.shape == (len(keys), len(xs))
    for k, row in zip(keys, rows):
        taps = [tmcm_select(tmcm, i, k) for i in range(tmcm.N)]
        assert np.array_equal(row, reference_convolution(taps, xs))


def test_wrong_keys_corrupt_step_stream(built):
    # 1000 sampled wrong keys plus every single-slice corruption: the
    # constant-1 step exposes each of them within the first N outputs.
    from firlock.evaluate import sample_wrong_keys, single_slice_corruptions

    b = built(1, DecoyMethod.HDRD)
    step = np.ones(b.tmcm.N, dtype=np.int64)
    correct = simulate_filter(b.tmcm, b.secret, step)
    keys = [
        *sample_wrong_keys(b.secret, 1000, max_hd=b.secret.p, seed=21),
        *single_slice_corruptions(b.secret),
    ]
    for k in keys:
        assert not np.array_equal(simulate_filter(b.tmcm, k, step), correct)


def test_zero_input_zero_output_any_key(small_build):
    qf, _, tmcm, key = small_build
    rng = np.random.default_rng(3)
    for _ in range(5):
        k = int(rng.integers(0, 1 << tmcm.p))
        assert not np.any(simulate_filter(tmcm, k, np.zeros(20, dtype=int)))


# --- reference convolution ----------------------------------------------

def test_reference_convolution_step():
    y = reference_convolution([3, -2, 5], [1, 1, 1, 1])
    assert list(y) == [3, 1, 6, 6]


def test_reference_convolution_impulse():
    y = reference_convolution([3, -2, 5], [1, 0, 0])
    assert list(y) == [3, -2, 5]


def test_reference_convolution_linearity():
    rng = np.random.default_rng(4)
    coeffs = rng.integers(-50, 50, size=7)
    u = rng.integers(-100, 100, size=40)
    v = rng.integers(-100, 100, size=40)
    a, b = 3, -2
    lhs = reference_convolution(coeffs, a * u + b * v)
    rhs = a * reference_convolution(coeffs, u) + b * reference_convolution(coeffs, v)
    assert np.array_equal(lhs, rhs)
