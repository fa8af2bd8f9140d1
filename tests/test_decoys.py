"""Decoy engine: candidate sets, the three selection methods, round structure."""

import numpy as np
import pytest
from indistinguishability import check_indistinguishability

import firlock.decoys
from firlock.decoys import (
    DecoyAssignment,
    DecoyMethod,
    EmptyCandidateSet,
    InsufficientCandidates,
    assign_decoy_single,
    assign_decoys,
    candidate_set,
)
from firlock.hamming import hamming_distance

from conftest import DECOY_SEED, make_quantized


# --- candidate sets -----------------------------------------------------

def test_candidates_positive_with_exclusion():
    cs = candidate_set(7, 6, 8, mbw=4)
    assert sorted(cs.values()) == [1, 2, 3, 4, 5] + list(range(9, 16))


def test_candidates_zero_treated_positive():
    cs = candidate_set(0, -2, 2, mbw=4)
    assert sorted(cs.values()) == list(range(3, 16))


def test_candidates_negative_intervals():
    cs = candidate_set(-4915, -4920, -4910, mbw=13)
    vals = cs.values()
    assert vals.min() == -8191 and vals.max() == -1
    assert not np.any((vals >= -4920) & (vals <= -4910))
    assert cs.size == (8191 - 4921 + 1) + (4909 - 1 + 1)


def test_candidates_empty_raises():
    # All 3-bit positive values sit inside the excluded interval.
    with pytest.raises(EmptyCandidateSet):
        candidate_set(3, 1, 7, mbw=3)


def test_candidate_membership_and_sampling():
    cs = candidate_set(7, 6, 8, mbw=4)
    assert 5 in cs and 9 in cs and 7 not in cs and -3 not in cs
    rng = np.random.default_rng(0)
    draws = {cs.sample(rng) for _ in range(200)}
    assert draws <= set(cs.values().tolist())
    assert len(draws) > 5


# --- single assignment --------------------------------------------------

def test_hd_picks_all_distance_one_neighbors():
    # Coefficient 7 = 111b with no exclusions inside 3 bits: the three
    # distance-1 patterns 110b, 101b, 011b are the only minimal picks.
    rng = np.random.default_rng(1)
    nd, decoys = assign_decoy_single(3, 7, 7, 7, [], DecoyMethod.HD, rng, mbw=3)
    assert nd == 3
    assert sorted(decoys) == [3, 5, 6]
    assert all(hamming_distance(d, 7) == 1 for d in decoys)


def test_rd_deterministic_under_seed():
    a = assign_decoy_single(1, 7, 7, 7, [], DecoyMethod.RD, np.random.default_rng(42), mbw=6)
    b = assign_decoy_single(1, 7, 7, 7, [], DecoyMethod.RD, np.random.default_rng(42), mbw=6)
    assert a == b
    # Bit-width slice around bw(7)=3 clamps to [2, 4] bits: values 2..15.
    assert 2 <= a[1][0] <= 15


def test_hdrd_first_decoy_is_hd_then_rd():
    rng = np.random.default_rng(7)
    _, first = assign_decoy_single(1, 7, 7, 7, [], DecoyMethod.HDRD, rng, mbw=5)
    assert hamming_distance(first[0], 7) == 1
    # With one decoy present the method behaves as RD: over many seeds
    # the picks spread far beyond the distance-1 neighborhood.
    spread = set()
    for s in range(40):
        _, d2 = assign_decoy_single(
            2, 7, 7, 7, list(first), DecoyMethod.HDRD, np.random.default_rng(s), mbw=5
        )
        spread.update(hamming_distance(v, 7) for v in d2[1:])
    assert max(spread) > 1


def test_insufficient_candidates_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(InsufficientCandidates):
        assign_decoy_single(8, 3, 2, 4, [], DecoyMethod.RD, rng, mbw=3)


def test_hd_minimality_against_enumeration():
    # At small widths, check every selected decoy is at the minimum
    # distance among candidates still unused when it was picked.
    rng = np.random.default_rng(3)
    h, lo, hi, mbw = 12, 10, 13, 4
    cs = candidate_set(h, lo, hi, mbw)
    taken = []
    for _ in range(4):
        _, new = assign_decoy_single(1, h, lo, hi, taken, DecoyMethod.HD, rng, mbw)
        picked = new[-1]
        remaining = [v for v in cs.values() if v not in taken]
        assert hamming_distance(picked, h) == min(hamming_distance(v, h) for v in remaining)
        taken = new


# --- full assignment (round structure) ----------------------------------

def small_qf(n=5, base=200):
    coeffs = [base + 17 * i for i in range(n)]
    return make_quantized(coeffs, [c - 5 for c in coeffs], [c + 5 for c in coeffs], Q=8)


def test_round_structure_reference_filter(designed):
    da = assign_decoys(designed(1).qf, 32, DecoyMethod.HDRD, seed=DECOY_SEED)
    assert da.nd[:3] == (3, 3, 3)
    assert da.nd[3:] == (1,) * 26
    assert da.key_widths[:3] == (2, 2, 2)
    assert sum(da.key_widths) == 32


def test_round_structure_hand_trace():
    da = assign_decoys(small_qf(5), 7, DecoyMethod.RD, seed=0)
    assert da.nd == (3, 3, 1, 1, 1)


def test_round_structure_large(designed):
    da = assign_decoys(designed(3).qf, 128, DecoyMethod.RD, seed=DECOY_SEED)
    assert sum(1 for n in da.nd if n == 3) == 23
    assert sum(1 for n in da.nd if n == 1) == 82


def test_visit_order_trace(monkeypatch):
    qf = small_qf(4)
    index_of = {int(c): i for i, c in enumerate(qf.coeffs)}
    trace = []

    def recording(nod, h_i, *args):
        trace.append((nod.bit_length() - 1, index_of[h_i], nod))
        return assign_decoy_single(nod, h_i, *args)

    monkeypatch.setattr(firlock.decoys, "assign_decoy_single", recording)
    assign_decoys(qf, 6, DecoyMethod.RD, seed=1)
    assert trace == [
        (0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1),
        (1, 0, 2), (1, 1, 2),
    ]


def test_budget_checked_before_any_draw(monkeypatch):
    # Each coefficient has 15 - 3 = 12 four-bit candidates.  p = 9 visits
    # each three times (7 decoys); at p = 10 coefficient 0 is visited a
    # fourth time and would need 2**4 - 1 = 15.
    qf = make_quantized([5, 9, 12], [4, 8, 11], [6, 10, 13], Q=4)
    assert assign_decoys(qf, 9, DecoyMethod.RD, seed=0).nd == (7, 7, 7)
    visits = []
    monkeypatch.setattr(
        firlock.decoys, "assign_decoy_single", lambda *args: visits.append(args)
    )
    with pytest.raises(InsufficientCandidates, match="coefficient 0"):
        assign_decoys(qf, 10, DecoyMethod.RD, seed=0)
    assert visits == []


def test_p_below_n_rejected():
    with pytest.raises(ValueError):
        assign_decoys(small_qf(5), 4, DecoyMethod.RD, seed=0)


@pytest.mark.parametrize("dsm", list(DecoyMethod))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assignment_invariants_random_filters(dsm, seed):
    rng = np.random.default_rng(seed + 100)
    n = int(rng.integers(3, 9))
    coeffs = rng.integers(-400, 400, size=n)
    lo = coeffs - rng.integers(1, 30, size=n)
    hi = coeffs + rng.integers(1, 30, size=n)
    qf = make_quantized(coeffs, lo, hi, Q=9)
    p = n + int(rng.integers(0, 2 * n))
    da = assign_decoys(qf, p, dsm, seed=seed)

    assert sum(da.key_widths) == p
    for i in range(n):
        assert (da.nd[i] + 1) & da.nd[i] == 0  # power of two
        decoys = da.D[i]
        assert len(set(decoys)) == len(decoys) == da.nd[i]
        c = int(coeffs[i])
        for d in decoys:
            assert d != c
            assert (d > 0) if c >= 0 else (d < 0)
            assert d < lo[i] or d > hi[i]
            assert abs(d) <= 2**qf.mbw - 1


def test_assignment_deterministic(designed):
    qf = designed(1).qf
    a = assign_decoys(qf, 32, DecoyMethod.HDRD, seed=5)
    b = assign_decoys(qf, 32, DecoyMethod.HDRD, seed=5)
    assert a == b
    c = assign_decoys(qf, 32, DecoyMethod.HDRD, seed=6)
    assert a != c


def test_assignment_json_round_trip(designed):
    da = assign_decoys(designed(1).qf, 32, DecoyMethod.RD, seed=1)
    assert DecoyAssignment.from_json_dict(da.to_json_dict()) == da


# --- indistinguishability ------------------------------------------------

def test_rd_uniformity_not_rejected(designed):
    report = check_indistinguishability(
        DecoyMethod.RD, designed(1).qf, trials=3000, seed=0
    )
    entries = report.multi_decoy()
    assert entries
    for e in entries:
        assert e["kind"] == "chi-square"
        assert e["pvalue"] >= 0.01


def test_hd_hub_pattern_dominates(designed):
    report = check_indistinguishability(
        DecoyMethod.HD, designed(1).qf, trials=1000, seed=0
    )
    for e in report.multi_decoy():
        assert e["hub_frequency"] >= 0.99


def test_hdrd_pairs_marked_symmetric(designed):
    report = check_indistinguishability(
        DecoyMethod.HDRD, designed(1).qf, trials=1000, seed=0
    )
    kinds = {e["kind"] for e in report.entries}
    assert "symmetric-pair" in kinds
    for e in report.multi_decoy():
        assert e["hub_frequency"] <= 0.05


def test_trials_floor_enforced(designed):
    with pytest.raises(ValueError):
        check_indistinguishability(DecoyMethod.RD, designed(1).qf, trials=10, seed=0)
