"""Attack side: slice inference, LSB-first extraction, hub recovery, reports."""

import numpy as np
import pytest
from oracles import invert_truth_table

from firlock.attack import (
    InconclusiveClassification,
    RecoveredConstantSets,
    classify_dsm,
    compile_report,
    extract_bit,
    extract_constants,
    fit_hub_threshold,
    infer_key_slices,
    recover_coefficient,
)
from firlock.decoys import DecoyMethod, assign_decoys, candidate_set
from firlock.netlist import PackedEvaluator, lower_to_gates
from firlock.tmcm import build_tmcm

from conftest import ATTACK_SEED, make_quantized


def build_small(coeffs, p=None, dsm=DecoyMethod.RD, ibw=5, seed=3, spread=2):
    coeffs = list(coeffs)
    qf = make_quantized(
        coeffs, [c - spread for c in coeffs], [c + spread for c in coeffs], Q=4
    )
    da = assign_decoys(qf, p or len(coeffs), dsm, seed=seed)
    tmcm, key = build_tmcm(qf, da, ibw=ibw, seed=seed + 1)
    return qf, da, tmcm, key, lower_to_gates(tmcm)


# --- key slice inference --------------------------------------------------

def test_infer_key_slices_matches_builder_layout(built):
    b = built(1, DecoyMethod.HDRD)
    slices = infer_key_slices(b.netlist)
    offsets = np.cumsum((0,) + b.tmcm.key_widths[:-1])
    expected = [
        list(range(off, off + w)) for off, w in zip(offsets, b.tmcm.key_widths)
    ]
    assert [sorted(s) for s in slices] == expected


# --- bit extraction -------------------------------------------------------

def test_extract_lsb_is_product_at_x_one():
    qf, da, tmcm, key, nl = build_small([3, -2, 5])
    ev = PackedEvaluator(nl)
    for i in range(tmcm.N):
        for v in range(2):
            k = v << sum(tmcm.key_widths[:i])
            constant = tmcm.mux_tables[i][v]
            assert extract_bit(ev, i, k, 0, 0) == (constant & 1)


def test_extract_bit_constant_five():
    # Constant 5 = 101b: after bit0 = 1, bit 1 resolves to 0 via the
    # exhaustive check over the two free input bits.
    qf, da, tmcm, key, nl = build_small([5], p=1)
    ev = PackedEvaluator(nl)
    pos = key.slice_value(0)
    assert extract_bit(ev, 0, pos, 0, 0) == 1
    assert extract_bit(ev, 0, pos, 1, 1) == 0


def test_extract_zero_constant_all_bits_zero():
    qf, da, tmcm, key, nl = build_small([0, 5], spread=1)
    ev = PackedEvaluator(nl)
    pos = key.slice_value(0)
    partial = 0
    for j in range(tmcm.cbw):
        partial |= extract_bit(ev, 0, pos, partial, j) << j
    assert partial == 0


# --- full extraction ------------------------------------------------------

def test_extraction_matches_ground_truth_multiset():
    qf, da, tmcm, key, nl = build_small([30, -20, 50, -70], p=7, ibw=6)
    rec = extract_constants(nl, seed=ATTACK_SEED)
    assert rec.N == 4
    for i in range(4):
        assert sorted(rec.R[i]) == sorted((int(qf.coeffs[i]),) + da.D[i])
        assert len(rec.R[i]) == 1 << len(rec.slices[i])


def test_extraction_recovers_table_order():
    qf, da, tmcm, key, nl = build_small([3, -2, 5])
    rec = extract_constants(nl)
    for i in range(3):
        assert list(rec.R[i]) == list(tmcm.mux_tables[i])


def test_extraction_agrees_with_truth_table_inversion():
    rng = np.random.default_rng(100)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        mags = rng.integers(2, 8, size=n)
        mags[int(rng.integers(0, n))] = rng.integers(4, 8)  # pin mbw to 3
        coeffs = [int(v) * int(s) for v, s in zip(mags, rng.choice([-1, 1], size=n))]
        qf, da, tmcm, key, nl = build_small(
            coeffs, p=n + int(rng.integers(0, 2)), ibw=4, seed=trial, spread=1
        )
        assert tmcm.cbw == 4 and tmcm.ibw == 4
        rec = extract_constants(nl, samples=64, seed=trial)
        for i in range(n):
            bits_i = rec.slices[i]
            for v, got in enumerate(rec.R[i]):
                k = sum(((v >> t) & 1) << b for t, b in enumerate(bits_i))
                exact = invert_truth_table(nl, i, k)
                assert got in exact


# --- hub recovery (undecided on pairs) -------------------------------------

def test_hub_recovery_classic_example():
    assert recover_coefficient([7, 6, 5, 3]) == 7


def test_hub_recovery_pair_undecided():
    assert recover_coefficient([7, 6]) is None


def test_hub_recovery_no_unique_hub():
    # 4 and 6 are both within distance 1 of everything else.
    assert recover_coefficient([4, 6, 5, 7], tau=2) is None


@pytest.mark.parametrize("dsm", [DecoyMethod.RD, DecoyMethod.HDRD])
def test_hub_recovery_at_chance_on_random_methods(designed, dsm):
    # Over 100 seeded designs, the hub test on multi-decoy sets must not
    # beat guessing one of four table entries (chance + 3 sigma).
    d = designed(1)
    correct = total = 0
    for seed in range(100):
        da = assign_decoys(d.qf, 32, dsm, seed=2000 + seed)
        for i, nd in enumerate(da.nd):
            if nd <= 1:
                continue
            total += 1
            hypothesis = recover_coefficient([int(d.qf.coeffs[i]), *da.D[i]])
            correct += hypothesis == int(d.qf.coeffs[i])
    assert total == 300
    chance = 1 / 4
    assert correct / total <= chance + 3 * np.sqrt(chance * (1 - chance) / total)


def test_hub_recovery_random_sets_mostly_undecided():
    # Uniform random 4-element sets essentially never form a hub.
    rng = np.random.default_rng(0)
    cs = candidate_set(300, 290, 310, mbw=12)
    undecided = 0
    hits = 0
    trials = 10_000
    for _ in range(trials):
        vals = [int(cs[rng.integers(0, cs.size)]) for _ in range(4)]
        if len(set(vals)) < 4:
            undecided += 1
            continue
        if recover_coefficient(vals) is None:
            undecided += 1
        else:
            hits += 1
    assert undecided / trials >= 0.95


# --- classification ---------------------------------------------------------

def test_classify_hd_design(built):
    rec = RecoveredConstantSets(
        R=built(1, DecoyMethod.HD).tmcm.mux_tables, cbw=14, slices=((),)
    )
    verdict = classify_dsm(rec)
    assert verdict.label == "HD-like"
    assert verdict.score >= 0.99


def test_classify_rd_design(built):
    rec = RecoveredConstantSets(
        R=built(1, DecoyMethod.RD).tmcm.mux_tables, cbw=14, slices=((),)
    )
    verdict = classify_dsm(rec)
    assert verdict.label == "non-HD"
    assert verdict.score <= 0.05


def test_classify_hdrd_records_both_signals(built):
    rec = RecoveredConstantSets(
        R=built(1, DecoyMethod.HDRD).tmcm.mux_tables, cbw=14, slices=((),)
    )
    verdict = classify_dsm(rec)
    # Multi-decoy sets look random, but the pair-level signal shows the
    # single-decoy picks were Hamming-minimal.
    assert verdict.score <= 0.05
    assert verdict.features["pair_close_fraction"] >= 0.9


def test_classify_pairs_only_is_inconclusive():
    rec = RecoveredConstantSets(R=((1, 2), (5, 9)), cbw=5, slices=((0,), (1,)))
    with pytest.raises(InconclusiveClassification):
        classify_dsm(rec)


def test_fit_hub_threshold_separates():
    t = fit_hub_threshold([0.9, 1.0, 1.0], [0.0, 0.0, 0.1])
    assert 0.1 < t < 0.9


# --- report ------------------------------------------------------------------

def test_report_hd_accounting(built):
    b = built(1, DecoyMethod.HD)
    rec = extract_constants(b.netlist, seed=ATTACK_SEED)
    report = compile_report(rec, ground_truth=b.design.qf.coeffs)
    assert report.vc == 3
    assert report.cdc == 3
    assert report.apc_log2 == 26


def test_report_without_ground_truth_omits_cdc(built):
    b = built(1, DecoyMethod.HD)
    rec = extract_constants(b.netlist, seed=ATTACK_SEED)
    report = compile_report(rec)
    assert report.cdc is None
    assert "cdc" not in report.to_json_dict()


def test_report_no_resolution_keeps_full_keyspace():
    rec = RecoveredConstantSets(R=((1, 9), (5, 12)), cbw=5, slices=((0,), (1,)))
    report = compile_report(rec)
    assert report.vc == 0
    assert report.apc_log2 == 2

