"""Decoy engine: candidate sets, the three selection methods, round structure."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from indistinguishability import check_indistinguishability

import firlock.decoys
from firlock.decoys import (
    MAX_CANDIDATE_BITS,
    DecoyMethod,
    EmptyCandidateSet,
    InsufficientCandidates,
    assign_decoy_single,
    assign_decoys,
    candidate_set,
)
from firlock.design import magnitude_bitwidth
from firlock.hamming import hamming_distance

from conftest import DECOY_SEED, make_quantized


# --- candidate sets -----------------------------------------------------

def test_candidates_positive_with_exclusion():
    cs = candidate_set(7, 6, 8, mbw=4)
    assert cs.dtype == np.int64
    assert cs.tolist() == [1, 2, 3, 4, 5] + list(range(9, 16))


def test_candidates_zero_treated_positive():
    cs = candidate_set(0, -2, 2, mbw=4)
    assert cs.tolist() == list(range(3, 16))


def test_candidates_negative_intervals():
    cs = candidate_set(-4915, -4920, -4910, mbw=13)
    assert cs[0] == -8191 and cs[-1] == -1 and np.all(np.diff(cs) > 0)
    assert not np.any((cs >= -4920) & (cs <= -4910))
    assert cs.size == (8191 - 4921 + 1) + (4909 - 1 + 1)


def test_candidates_empty_raises():
    # All 3-bit positive values sit inside the excluded interval.
    with pytest.raises(EmptyCandidateSet):
        candidate_set(3, 1, 7, mbw=3)


def test_candidates_wider_than_limit_rejected():
    # Refused before the 2**40-entry array is allocated.
    assert MAX_CANDIDATE_BITS == 24
    with pytest.raises(ValueError, match="24-bit limit"):
        candidate_set(5, 5, 5, mbw=40)


def test_candidate_membership_and_sampling():
    cs = candidate_set(7, 6, 8, mbw=4)
    assert 5 in cs and 9 in cs and 7 not in cs and -3 not in cs
    rng = np.random.default_rng(0)
    draws = {int(cs[rng.integers(0, cs.size)]) for _ in range(200)}
    assert draws <= set(cs.tolist())
    assert len(draws) > 5


# --- single assignment --------------------------------------------------

def visit(nod, h, l, u, existing, dsm, rng, mbw):
    """One visit to a coefficient whose decoys ``existing`` are already drawn.

    Builds the candidate array and its ``free`` mask as `assign_decoys`
    holds them after earlier visits; returns ``(nd, D)`` after the visit.
    """
    cands = candidate_set(h, l, u, mbw)
    free = ~np.isin(cands, existing)
    picks = assign_decoy_single(nod, cands, free, h, dsm, rng)
    assert not free[np.isin(cands, picks)].any()
    D = list(existing) + picks
    return len(D), D


def test_hd_picks_all_distance_one_neighbors():
    # Coefficient 7 = 111b with no exclusions inside 3 bits: the three
    # distance-1 patterns 110b, 101b, 011b are the only minimal picks.
    rng = np.random.default_rng(1)
    nd, decoys = visit(3, 7, 7, 7, [], DecoyMethod.HD, rng, mbw=3)
    assert nd == 3
    assert sorted(decoys) == [3, 5, 6]
    assert all(hamming_distance(d, 7) == 1 for d in decoys)


def test_rd_deterministic_under_seed():
    a = visit(1, 7, 7, 7, [], DecoyMethod.RD, np.random.default_rng(42), mbw=6)
    b = visit(1, 7, 7, 7, [], DecoyMethod.RD, np.random.default_rng(42), mbw=6)
    assert a == b
    # Bit-width slice around bw(7)=3 clamps to [2, 4] bits: values 2..15.
    assert 2 <= a[1][0] <= 15


def test_hdrd_first_decoy_is_hd_then_rd():
    rng = np.random.default_rng(7)
    _, first = visit(1, 7, 7, 7, [], DecoyMethod.HDRD, rng, mbw=5)
    assert hamming_distance(first[0], 7) == 1
    # With one decoy present the method behaves as RD: over many seeds
    # the picks spread far beyond the distance-1 neighborhood.
    spread = set()
    for s in range(40):
        _, d2 = visit(
            2, 7, 7, 7, list(first), DecoyMethod.HDRD, np.random.default_rng(s), mbw=5
        )
        spread.update(hamming_distance(v, 7) for v in d2[1:])
    assert max(spread) > 1


def test_insufficient_candidates_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(InsufficientCandidates):
        visit(8, 3, 2, 4, [], DecoyMethod.RD, rng, mbw=3)


def test_hd_minimality_against_enumeration():
    # At small widths, check every selected decoy is at the minimum
    # distance among candidates still unused when it was picked.
    rng = np.random.default_rng(3)
    h, lo, hi, mbw = 12, 10, 13, 4
    cs = candidate_set(h, lo, hi, mbw)
    taken = []
    for _ in range(4):
        _, new = visit(1, h, lo, hi, taken, DecoyMethod.HD, rng, mbw)
        picked = new[-1]
        remaining = [v for v in cs.tolist() if v not in taken]
        assert hamming_distance(picked, h) == min(hamming_distance(v, h) for v in remaining)
        taken = new


# --- draw order against a restatement over intervals -----------------------

def _restated_draws(nod, h, l, u, existing, dsm, rng, mbw):
    """The decoy rules over intervals and a set of taken values.

    Candidates are the sign-matching values of at most ``mbw`` bits
    outside [l, u], in ascending order; a uniform draw over a union of
    intervals takes the r-th value for r = rng.integers(0, size).
    """
    top = (1 << mbw) - 1
    lo, hi = (1, top) if h >= 0 else (-top, -1)
    intervals = [iv for iv in ((lo, min(hi, l - 1)), (max(lo, u + 1), hi)) if iv[0] <= iv[1]]
    b = magnitude_bitwidth(h)
    m_lo, m_hi = 1 << (max(1, b - 1) - 1), (1 << min(mbw, b + 1)) - 1
    sliced = []
    for a, z in intervals:
        a, z = (max(a, m_lo), min(z, m_hi)) if a > 0 else (max(a, -m_hi), min(z, -m_lo))
        if a <= z:
            sliced.append((a, z))

    def members(ivs):
        return [v for a, z in ivs for v in range(a, z + 1)]

    def sample(ivs):
        r = int(rng.integers(0, sum(z - a + 1 for a, z in ivs)))
        for a, z in ivs:
            if r <= z - a:
                return a + r
            r -= z - a + 1

    def distance(v):
        return bin(abs(v) ^ abs(h)).count("1")

    taken = set(existing)
    if dsm is DecoyMethod.HDRD:
        dsm = DecoyMethod.HD if not taken and nod == 1 else DecoyMethod.RD
    picked = []
    for _ in range(nod):
        if dsm is DecoyMethod.HD:
            free = [v for v in members(intervals) if v not in taken]
            best = [v for v in free if distance(v) == min(map(distance, free))]
            v = best[int(rng.integers(0, len(best)))]
        else:
            pool = sliced if any(v not in taken for v in members(sliced)) else intervals
            v = sample(pool)
            while v in taken:
                v = sample(pool)
        picked.append(v)
        taken.add(v)
    return picked


@st.composite
def single_visits(draw):
    mbw = draw(st.integers(2, 8))
    top = (1 << mbw) - 1
    h = draw(st.integers(-top, top))
    l = draw(st.integers(-top - 1, h))
    u = draw(st.integers(h, top + 1))
    signed = range(1, top + 1) if h >= 0 else range(-top, 0)
    if all(l <= v <= u for v in signed):
        # Bounds that cover every candidate leave none: shrink them to h.
        l = u = h
    cands = [v for v in signed if v < l or v > u]
    existing = draw(st.lists(st.sampled_from(cands), unique=True, max_size=len(cands) - 1))
    nod = draw(st.integers(1, len(cands) - len(existing)))
    dsm = draw(st.sampled_from(list(DecoyMethod)))
    seed = draw(st.integers(0, 2**32 - 1))
    return nod, h, l, u, existing, dsm, seed, mbw, cands


@settings(max_examples=300, deadline=None)
@given(single_visits())
def test_draws_match_interval_restatement(case):
    nod, h, l, u, existing, dsm, seed, mbw, cands = case
    nd, D = visit(nod, h, l, u, existing, dsm, np.random.default_rng(seed), mbw)
    expected = _restated_draws(nod, h, l, u, existing, dsm, np.random.default_rng(seed), mbw)
    assert D[: len(existing)] == existing
    picks = D[len(existing):]
    assert picks == expected
    assert nd == len(D) == len(existing) + nod
    assert len(set(picks)) == nod
    assert set(picks) <= set(cands) and not set(picks) & set(existing)


# sha256 of the sorted-key JSON of assign_decoys on filter 1 (seed
# DECOY_SEED).  The deep rounds use up several rd bit-width slices, so
# these also pin the fallback to the full candidate array.
PINNED_ASSIGNMENTS = {
    (174, "hd"): "bac319f4f595735da83959ef7d728c1efccfcc0d7614eff588ba784df515b55d",
    (174, "rd"): "c5bd36c4deb3c34f21fae51853f6bc9061b86553c99b5c2507c7d3fb5a28aa07",
    (174, "hdrd"): "7929feb59a020dd686ffbb71077fcf812aad984873a772b22d7eee7a5fbe767c",
    (247, "hd"): "acf6c29f05064ac564a81e92e88b8f8ce028d696a415bb366c23bd35212e39eb",
    (247, "rd"): "051bb604006084f5c2dac545013bb50f308196057517a7a9dd2b5689ea98e38c",
    (247, "hdrd"): "730e4a5a98d5fc819cd3074ed141d632525b9686a8e01d93cb5331b05480690f",
}


@pytest.mark.parametrize("p, dsm", list(PINNED_ASSIGNMENTS))
def test_deep_round_assignment_pinned(designed, p, dsm):
    da = assign_decoys(designed(1).qf, p, DecoyMethod(dsm), seed=DECOY_SEED)
    blob = json.dumps(da.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_ASSIGNMENTS[p, dsm]


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


def test_candidates_built_once_per_coefficient(monkeypatch):
    qf = small_qf(4)
    calls = []

    def counting(*args):
        calls.append(args)
        return candidate_set(*args)

    monkeypatch.setattr(firlock.decoys, "candidate_set", counting)
    da = assign_decoys(qf, 10, DecoyMethod.HDRD, seed=0)
    assert da.nd == (7, 7, 3, 3)
    assert len(calls) == qf.N


def test_visit_order_trace(monkeypatch):
    qf = small_qf(4)
    index_of = {int(c): i for i, c in enumerate(qf.coeffs)}
    trace = []

    def recording(nod, cands, free, h_i, *args):
        trace.append((nod.bit_length() - 1, index_of[h_i], nod))
        return assign_decoy_single(nod, cands, free, h_i, *args)

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
