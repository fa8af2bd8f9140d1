"""Acceptance gate: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import shutil
import time

import numpy as np
from oracles import invert_truth_table, reference_convolution

from firlock.attack import (
    RecoveredConstantSets,
    classify_dsm,
    compile_report,
    extract_constants,
)
from firlock.cli import BENCH_KEY_BITS, bundled_spec_text, main
from firlock.decoys import DecoyMethod, assign_decoys
from firlock.design import (
    design_coefficients,
    response_matrix,
    verify_response,
)
from firlock.evaluate import behavior_report, sample_wrong_keys, single_slice_corruptions
from firlock.tmcm import build_tmcm, simulate_filter

from conftest import (
    ATTACK_SEED,
    DECOY_SEED,
    EVAL_SEED,
    fit_hub_threshold,
    lowered,
    make_quantized,
    quantization_deviation_bound,
)

FILTERS = (1, 2, 3)
METHODS = (DecoyMethod.HD, DecoyMethod.RD, DecoyMethod.HDRD)

EXPECTED_VC = {1: 3, 2: 5, 3: 23}
EXPECTED_APC_HD = {1: 26, 2: 54, 3: 82}


def report_pass(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_filter_design(designed):
    """Feasible designs, clean at 10x verification density, under 60 s."""
    for index in FILTERS:
        d = designed(index)
        t0 = time.time()
        coeffs = design_coefficients(d.spec, d.grid)
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"filter {index} design took {elapsed:.1f}s"
        report = verify_response(coeffs.h, d.spec, d.verify_grid, tol=1e-8)
        assert report.ok, f"filter {index}: float design violates at 10x density"
    report_pass(1, "all three designs feasible, zero 10x-grid violations, < 60 s each")


def test_criterion_2_quantization_bound(designed):
    """Quantized ZPFR within 2 (M+1) 2^-14 of the real ZPFR, uniformly."""
    for index in FILTERS:
        d = designed(index)
        bound = quantization_deviation_bound(d.spec.M, d.spec.Q)
        for band in (d.verify_grid.passband, d.verify_grid.stopband):
            rows = response_matrix(band, d.spec.M)
            dev = np.abs(rows @ (d.qf.half() / 2**d.spec.Q) - rows @ d.coeffs.h)
            assert np.max(dev) <= bound, f"filter {index}: deviation {np.max(dev):.3e}"
    report_pass(2, "quantized response within the ceiling-error bound on all filters")


def test_criterion_3_correct_key_equivalence(built):
    """Folded output equals the reference convolution on 10,000 samples."""
    rng = np.random.default_rng(33)
    for index in FILTERS:
        b = built(index, DecoyMethod.HDRD)
        xs = rng.integers(-(2**31), 2**31, size=10_000, dtype=np.int64)
        (got,) = simulate_filter(b.filt, [b.secret.bits], xs)
        want = reference_convolution(b.design.qf.coeffs, xs)
        assert np.array_equal(got, want), f"filter {index}: folded output diverges"
    report_pass(3, "exact integer equality with the convolution oracle, 10,000 samples each")


def test_criterion_4_wrong_key_corruption(built):
    """Sampled and single-slice wrong keys: outputs differ, spec violated."""
    for index in FILTERS:
        for dsm in METHODS:
            b = built(index, dsm)
            spec = b.design.spec
            keys = [
                *sample_wrong_keys(b.secret, 50, max_hd=4, seed=EVAL_SEED),
                *single_slice_corruptions(b.secret),
            ]
            step = np.ones(b.tmcm.N, dtype=np.int64)
            (correct_stream,) = simulate_filter(b.filt, [b.secret.bits], step)
            for k in keys:
                assert not np.array_equal(
                    simulate_filter(b.filt, [k], step)[0], correct_stream
                ), f"filter {index}/{dsm.value}: wrong key mimics the step stream"
            report = behavior_report(b.filt, b.secret, spec, keys)
            assert report.violation_fraction == 1.0, (
                f"filter {index}/{dsm.value}: only "
                f"{report.violation_fraction:.3f} of wrong keys violate"
            )
    report_pass(4, "100% wrong-key divergence and spec violation, 3 filters x 3 methods")


def test_criterion_5_extraction_exactness(built, extracted):
    """Exact multiset recovery at full size; truth-table agreement reduced."""
    for index in FILTERS:
        b = built(index, DecoyMethod.HDRD)
        rec = extracted(index, DecoyMethod.HDRD)
        total = sum(len(row) for row in rec.R)
        assert total == b.tmcm.N + sum(b.da.nd)
        for i in range(b.tmcm.N):
            truth = sorted((int(b.design.qf.coeffs[i]),) + b.da.D[i])
            assert sorted(rec.R[i]) == truth, f"filter {index}: multiset differs at {i}"

    rng = np.random.default_rng(55)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        mags = rng.integers(2, 8, size=n)
        mags[int(rng.integers(0, n))] = rng.integers(4, 8)  # pin mbw to 3
        coeffs = [int(v) * int(s) for v, s in zip(mags, rng.choice([-1, 1], size=n))]
        qf = make_quantized(coeffs, [c - 1 for c in coeffs], [c + 1 for c in coeffs], Q=4)
        da = assign_decoys(qf, n + int(rng.integers(0, 2)), DecoyMethod.RD, seed=trial)
        tmcm, _ = build_tmcm(qf, da, ibw=4, seed=trial + 1)
        assert tmcm.cbw == 4 and tmcm.ibw == 4
        nl = lowered(tmcm)
        rec = extract_constants(nl, samples=64, seed=trial)
        for i in range(n):
            for v, got in enumerate(rec.R[i]):
                k = sum(((v >> t) & 1) << bit for t, bit in enumerate(rec.slices[i]))
                assert [got] == invert_truth_table(nl, i, k), f"trial {trial}"
    report_pass(5, "exact multiset recovery (64/128/256 constants) and 100 "
                   "reduced-width designs matching truth-table inversion")


def test_criterion_6_attack_table_reproduction(built, extracted):
    """vc / cdc / apc accounting matches the expected table exactly."""
    for index in FILTERS:
        for dsm in METHODS:
            b = built(index, dsm)
            rec = extracted(index, dsm)
            report = compile_report(rec, ground_truth=b.design.qf.coeffs)
            assert report.vc == EXPECTED_VC[index], f"{index}/{dsm.value}: vc={report.vc}"
            if dsm is DecoyMethod.HD:
                assert report.cdc == EXPECTED_VC[index]
                assert report.apc_log2 == EXPECTED_APC_HD[index]
            else:
                assert report.cdc == 0, f"{index}/{dsm.value}: cdc={report.cdc}"
                assert report.apc_log2 == BENCH_KEY_BITS[index]
    report_pass(6, "vc={3,5,23}; hd: cdc=vc, apc=2^{26,54,82}; rd/hdrd: cdc=0, full keyspace")


def test_criterion_7_chance_level_pairs(designed):
    """Position choosers on two-element sets sit at 50% within 3 sigma.

    The two-element sets are taken in key-slice order straight from the
    multiplexer tables; criterion 5 established these equal the netlist
    extraction output.  Value-based choosers are reported for context
    but not asserted: the bit-width slice is not symmetric around the
    coefficient, so magnitude heuristics encode a prior about the
    coefficient distribution rather than netlist information.
    """
    d = designed(1)
    first_hits = last_hits = min_hits = max_hits = n_pairs = 0
    for seed in range(100):
        da = assign_decoys(d.qf, 32, DecoyMethod.RD, seed=seed)
        tmcm, secret = build_tmcm(d.qf, da, ibw=32, seed=1000 + seed)
        for i in range(tmcm.N):
            if len(tmcm.mux_tables[i]) != 2:
                continue
            pair = tmcm.mux_tables[i]
            truth = int(d.qf.coeffs[i])
            n_pairs += 1
            first_hits += pair[0] == truth
            last_hits += pair[1] == truth
            min_hits += min(pair, key=abs) == truth
            max_hits += max(pair, key=abs) == truth
    assert n_pairs == 2600
    sigma3 = 3 * math.sqrt(0.25 / n_pairs)
    for name, hits in (("first-position", first_hits), ("last-position", last_hits)):
        acc = hits / n_pairs
        assert abs(acc - 0.5) <= sigma3, f"{name} chooser at {acc:.4f}"
    print(f"\n  (context: min-|.| chooser {min_hits / n_pairs:.3f}, "
          f"max-|.| chooser {max_hits / n_pairs:.3f}, not asserted)")
    report_pass(7, f"position choosers within 3 sigma of 50% over n={n_pairs} pairs")


def test_criterion_8_substitute_classifier():
    """>= 0.95 cross-validated accuracy separating hd from rd designs."""
    rng = np.random.default_rng(77)
    scores, labels = [], []
    for case in range(200):
        dsm = DecoyMethod.HD if case % 2 == 0 else DecoyMethod.RD
        n = int(rng.choice([9, 11, 13, 15]))
        mags = rng.integers(64, 4096, size=n)
        signs = rng.choice([-1, 1], size=n)
        coeffs = mags * signs
        spread = rng.integers(4, 40, size=n)
        qf = make_quantized(coeffs, coeffs - spread, coeffs + spread, Q=12)
        p = n + 3 + int(rng.integers(0, n - 3))
        da = assign_decoys(qf, p, dsm, seed=5000 + case)
        tmcm, _ = build_tmcm(qf, da, ibw=16, seed=6000 + case)
        rec = RecoveredConstantSets(
            R=tmcm.mux_tables, cbw=tmcm.cbw, slices=((),) * qf.N
        )
        scores.append(classify_dsm(rec).score)
        labels.append(dsm is DecoyMethod.HD)

    order = rng.permutation(200)
    folds = np.array_split(order, 5)
    correct = 0
    for f in range(5):
        test_idx = set(folds[f].tolist())
        train_hd = [scores[i] for i in range(200) if i not in test_idx and labels[i]]
        train_rd = [scores[i] for i in range(200) if i not in test_idx and not labels[i]]
        threshold = fit_hub_threshold(train_hd, train_rd)
        for i in test_idx:
            predicted = scores[i] >= threshold
            correct += predicted == labels[i]
    accuracy = correct / 200
    assert accuracy >= 0.95, f"cross-validated accuracy {accuracy:.3f}"
    report_pass(8, f"hd-vs-rd classifier accuracy {accuracy:.3f} on 200 held-out designs")


def test_criterion_9_determinism(tmp_path):
    """Two consecutive runs of every stage are byte-identical."""
    spec_path = tmp_path / "filter1.json"
    spec_path.write_text(bundled_spec_text(1), "utf-8")

    def run():
        d, o, a, e = (tmp_path / s for s in ("d", "o", "a", "e"))
        assert main(["design", "--spec", str(spec_path), "--out", str(d)]) == 0
        assert main([
            "obfuscate", "--quant", str(d / "filter1.quant.json"),
            "--dsm", "hdrd", "--p", "32",
            "--seed-obfuscate", str(DECOY_SEED), "--out", str(o),
        ]) == 0
        assert main([
            "attack", "--netlist", str(o / "netlist.json"),
            "--seed-attack", str(ATTACK_SEED),
            "--ground-truth", str(o / "secret-assignment.json"), "--out", str(a),
        ]) == 0
        assert main([
            "evaluate", "--secret", str(o / "secret-assignment.json"),
            "--keys", "25", "--seed-eval", str(EVAL_SEED), "--out", str(e),
        ]) == 0

    run()
    snapshot = {
        p.relative_to(tmp_path): p.read_bytes()
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    assert len(snapshot) > 10
    for sub in ("d", "o", "a", "e"):
        shutil.rmtree(tmp_path / sub)
    run()
    for rel, blob in snapshot.items():
        assert (tmp_path / rel).read_bytes() == blob, f"{rel} changed between runs"
    report_pass(9, f"{len(snapshot)} pipeline artifacts byte-identical across reruns")
