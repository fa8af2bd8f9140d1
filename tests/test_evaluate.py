"""Wrong-key sampling, behavioral probing, spec-violation reporting."""

import io
from itertools import combinations

import numpy as np
import pytest

import firlock.evaluate
from firlock.decoys import DecoyMethod, assign_decoys
from firlock.design import response_matrix
from firlock.evaluate import (
    behavior_report,
    effective_coefficients,
    emit_curves,
    sample_wrong_keys,
    single_slice_corruptions,
    write_curves,
)
from firlock.tmcm import SecretKey, build_tmcm, simulate_filter, tmcm_select

from conftest import EVAL_SEED, WriteLog, make_quantized, quantization_deviation_bound
from oracles import direct_dft_audit


# --- wrong key sampling ----------------------------------------------------

def test_max_hd_one_is_single_bit_flips(built):
    secret = built(1, DecoyMethod.HDRD).secret
    keys = sample_wrong_keys(secret, count=32, max_hd=1, seed=EVAL_SEED)
    assert len(set(keys)) == 32
    assert sorted(bin(k ^ secret.bits).count("1") for k in keys) == [1] * 32


def test_sample_fifty_within_four(built):
    secret = built(1, DecoyMethod.HDRD).secret
    keys = sample_wrong_keys(secret, count=50, max_hd=4, seed=EVAL_SEED)
    assert len(set(keys)) == 50
    assert all(1 <= bin(k ^ secret.bits).count("1") <= 4 for k in keys)


def test_sample_deterministic(built):
    secret = built(1, DecoyMethod.HDRD).secret
    a = sample_wrong_keys(secret, 50, 4, seed=1)
    b = sample_wrong_keys(secret, 50, 4, seed=1)
    assert a == b
    assert a != sample_wrong_keys(secret, 50, 4, seed=2)


def test_sample_ball_exhaustion_rejected(built):
    secret = built(1, DecoyMethod.HDRD).secret
    with pytest.raises(ValueError):
        sample_wrong_keys(secret, count=33, max_hd=1, seed=0)


def _sample_by_enumeration(secret, count, max_hd, seed):
    """Oracle: list every mask of the Hamming ball, distance 1 first and
    each distance in `combinations` order, then draw ``count`` of them."""
    masks = [
        sum(1 << b for b in positions)
        for d in range(1, max_hd + 1)
        for positions in combinations(range(secret.p), d)
    ]
    chosen = np.random.default_rng(seed).choice(len(masks), size=count, replace=False)
    return tuple(secret.bits ^ masks[m] for m in chosen)


@pytest.mark.parametrize(
    "widths, max_hd, count, seed",
    [
        ((2,) * 3 + (1,) * 26, 4, 50, EVAL_SEED),   # filter 1's layout at p = 32
        ((2,) * 3 + (1,) * 26, 1, 32, 0),           # the whole distance-1 ball
        ((2,) * 3 + (1,) * 26, 2, 528, 5),          # the whole distance-2 ball
        ((2,) * 3 + (1,) * 26, 3, 1000, 11),
        ((3, 4), 7, 127, 2),                        # every wrong key of p = 7
        ((3, 4), 3, 20, 7),
        ((5, 5, 5, 5), 3, 1350, 4),                 # the whole ball, p = 20
        ((1,), 1, 1, 9),
        ((0, 9, 0), 9, 0, 3),
    ],
)
def test_sampling_equals_drawing_from_enumerated_ball(widths, max_hd, count, seed):
    p = sum(widths)
    secret = SecretKey(bits=0x9E3779B97F4A7C15 & ((1 << p) - 1), widths=widths)
    assert sample_wrong_keys(secret, count, max_hd, seed) == _sample_by_enumeration(
        secret, count, max_hd, seed
    )


def test_large_keyspace_rejection_path(built):
    secret = built(3, DecoyMethod.RD).secret  # p = 128: ball too big to enumerate
    keys = sample_wrong_keys(secret, count=50, max_hd=4, seed=EVAL_SEED)
    assert len(set(keys)) == 50
    assert all(1 <= bin(k ^ secret.bits).count("1") <= 4 for k in keys)


def test_single_slice_corruptions_cover_every_wrong_value(built):
    b = built(1, DecoyMethod.HDRD)
    keys = single_slice_corruptions(b.secret)
    assert len(keys) == 3 * 3 + 26 * 1
    for k in keys:
        diff = [
            i
            for i in range(b.tmcm.N)
            if tmcm_select(b.tmcm, i, k) != tmcm_select(b.tmcm, i, b.secret)
        ]
        assert len(diff) == 1


# --- behavioral probe -------------------------------------------------------

def test_probe_equals_select_for_any_key(built):
    b = built(1, DecoyMethod.RD)
    rng = np.random.default_rng(5)
    keys = [b.secret.bits] + [int(rng.integers(0, 1 << b.tmcm.p)) for _ in range(10)]
    for k in keys:
        probed = effective_coefficients(b.tmcm, k)
        word = [tmcm_select(b.tmcm, i, k) for i in range(b.tmcm.N)]
        assert list(probed) == word


def test_probe_secret_key_gives_design(built):
    b = built(1, DecoyMethod.HDRD)
    assert list(effective_coefficients(b.tmcm, b.secret)) == list(b.design.qf.coeffs)


def test_slice_flip_corrupts_single_position(built):
    b = built(1, DecoyMethod.HDRD)
    wrong = b.secret.with_slice(4, b.secret.slice_value(4) ^ 1)
    taps = effective_coefficients(b.tmcm, wrong)
    diff = np.nonzero(taps != b.design.qf.coeffs)[0]
    assert list(diff) == [4]


def test_monotone_corruption(built):
    b = built(1, DecoyMethod.HDRD)
    key = b.secret
    corrupted_counts = []
    for j in (0, 5, 10, 20):
        key = key.with_slice(j, key.slice_value(j) ^ 1)
        taps = effective_coefficients(b.tmcm, key)
        corrupted_counts.append(int(np.sum(taps != b.design.qf.coeffs)))
    assert corrupted_counts == sorted(corrupted_counts)
    assert corrupted_counts[-1] == 4


# --- behavior report ----------------------------------------------------------

def test_report_correct_key_only(built):
    b = built(1, DecoyMethod.HDRD)
    report = behavior_report(b.tmcm, b.secret, b.design.spec, wrong_keys=[])
    assert report.violation_fraction == 0.0
    assert report.entries[0].is_secret
    assert not report.entries[0].violates
    assert report.entries[0].symmetric


def test_report_simulates_each_key_once(built, monkeypatch):
    # Counts keys, not calls: one call may simulate many keys.
    b = built(1, DecoyMethod.HDRD)
    simulated = []

    def counting(tmcm, keys, inputs):
        simulated.extend([keys] if isinstance(keys, int) else keys)
        return simulate_filter(tmcm, keys, inputs)

    monkeypatch.setattr(firlock.evaluate, "simulate_filter", counting)
    keys = single_slice_corruptions(b.secret)[:5]
    report = behavior_report(b.tmcm, b.secret, b.design.spec, keys, curve_points=64)
    assert len(report.entries) == 6
    assert sorted(simulated) == sorted([b.secret.bits, *keys])
    monkeypatch.undo()
    rows = response_matrix(report.curve_w, b.design.spec.M)
    scale = 1 << b.design.spec.Q
    for key, e in zip([b.secret] + keys, report.entries):
        taps = effective_coefficients(b.tmcm, key)
        sym = (taps + taps[::-1]) / 2.0
        assert np.array_equal(e.curve, rows @ (sym[: b.design.spec.M + 1] / scale))


@pytest.mark.parametrize("dsm", ["hd", "rd", "hdrd"])
@pytest.mark.parametrize("index", [1, 2])
def test_audit_bits_equal_direct_dft_oracle(built, index, dsm):
    # The audit builds one band's DFT matrix at a time, in place; every
    # deviation and curve must keep the bits of the direct formula.
    b = built(index, dsm)
    spec = b.design.spec
    keys = [*sample_wrong_keys(b.secret, 50, 4, EVAL_SEED), *single_slice_corruptions(b.secret)[:10]]
    report = behavior_report(b.tmcm, b.secret, spec, keys)
    taps = np.array([[tmcm_select(b.tmcm, i, k) for i in range(spec.N)] for k in [b.secret, *keys]])
    expected = direct_dft_audit(taps, spec, b.design.verify_grid, report.curve_w)
    assert len(report.entries) == len(expected) == 61
    for e, row, (pass_dev, stop_dev, excess, curve) in zip(report.entries, taps, expected):
        assert e.taps == tuple(row.tolist())
        assert e.max_passband_dev.hex() == pass_dev.hex()
        assert e.max_stopband_dev.hex() == stop_dev.hex()
        assert e.band_excess.hex() == excess.hex()
        assert e.curve.tobytes() == curve.tobytes()


def test_zpfr_secret_key_within_quantization_bound(built):
    b = built(1, DecoyMethod.HDRD)
    d = b.design
    report = behavior_report(b.tmcm, b.secret, d.spec, wrong_keys=[])
    float_curve = response_matrix(report.curve_w, d.spec.M) @ d.coeffs.h
    bound = quantization_deviation_bound(d.spec.M, d.spec.Q)
    assert np.max(np.abs(report.entries[0].curve - float_curve)) <= bound


def test_report_wrong_keys_flagged_with_full_chain(built):
    # The whole argument, asserted per key: the effective tap vector
    # contains a decoy, every decoy sits outside its feasible interval,
    # and the response leaves the ripple band.
    b = built(1, DecoyMethod.HDRD)
    qf = b.design.qf
    keys = single_slice_corruptions(b.secret)[:10]
    report = behavior_report(b.tmcm, b.secret, b.design.spec, keys)
    assert report.violation_fraction == 1.0
    for e in report.entries[1:]:
        wrong = [i for i, t in enumerate(e.taps) if t != qf.coeffs[i]]
        assert wrong
        for i in wrong:
            assert e.taps[i] < qf.bounds_l[i] or e.taps[i] > qf.bounds_u[i]
        assert e.violates and e.band_excess > 1e-8


def test_report_negative_control_decoys_inside_bounds(designed):
    """Decoys forced inside the feasible interval can evade detection."""
    d = designed(1)
    qf = d.qf
    inside = make_quantized(
        qf.coeffs,
        qf.coeffs - 2,       # fake bounds hugging the coefficients,
        qf.coeffs + 2,       # so "outside" values are still feasible
        Q=qf.Q,
    )
    da = assign_decoys(inside, 29, DecoyMethod.HD, seed=4)
    tmcm, key = build_tmcm(inside, da, ibw=32, seed=5)
    report = behavior_report(tmcm, key, d.spec, single_slice_corruptions(key))
    assert report.violation_fraction < 1.0


def test_emit_curves_shape_and_round_trip(built):
    b = built(1, DecoyMethod.HDRD)
    keys = single_slice_corruptions(b.secret)[:3]
    report = behavior_report(
        b.tmcm, b.secret, b.design.spec, keys, curve_points=100
    )
    text = emit_curves(report)
    lines = text.strip().splitlines()
    assert lines[0] == "key_id,w_over_pi,gain"
    assert len(lines) == 1 + 4 * 100
    data = np.genfromtxt(io.StringIO(text), delimiter=",", names=True)
    key0 = data[data["key_id"] == 0]
    assert np.allclose(key0["gain"], report.entries[0].curve, atol=1e-9)
    assert np.allclose(key0["w_over_pi"], report.curve_w / np.pi, atol=1e-9)


def _curves_one_value_at_a_time(report):
    """Oracle: the CSV with one formatted string per value."""
    lines = ["key_id,w_over_pi,gain"]
    w_over_pi = (report.curve_w / np.pi).tolist()
    for key_id, entry in enumerate(report.entries):
        lines += [f"{key_id},{w:.10g},{g:.10g}" for w, g in zip(w_over_pi, entry.curve.tolist())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("curve_points", [0, 1, 100])
def test_emit_curves_equals_per_value_formatting(built, curve_points):
    # 13 keys, so key ids reach two digits.
    b = built(1, DecoyMethod.HDRD)
    keys = single_slice_corruptions(b.secret)[:12]
    report = behavior_report(b.tmcm, b.secret, b.design.spec, keys, curve_points=curve_points)
    assert len(report.entries) == 13
    assert emit_curves(report) == _curves_one_value_at_a_time(report)
    # The header, each key's rows, the last newline: one write each.
    writes = WriteLog()
    write_curves(report, writes)
    assert "".join(writes) == _curves_one_value_at_a_time(report)
    assert len(writes) == 2 + len(report.entries)
    assert all(w.count("\n") == curve_points for w in writes[1:-1])
