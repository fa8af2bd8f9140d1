"""Attack side: slice inference, LSB-first extraction, hub recovery, reports."""

import multiprocessing
import os
import tracemalloc
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import invert_truth_table

from firlock import attack
from firlock.attack import (
    InconclusiveClassification,
    NoConsistentBit,
    RecoveredConstantSets,
    VerificationMismatch,
    classify_dsm,
    compile_report,
    extract_bit,
    extract_constants,
    infer_key_slices,
    recover_coefficient,
)
from firlock.decoys import DecoyMethod, assign_decoys, candidate_set
from firlock.netlist import (
    OP_AND,
    OP_MUX2,
    OP_NOT,
    OP_XOR,
    GateNetlist,
    PackedEvaluator,
    pack_value_bits,
)
from firlock.tmcm import ObfuscatedTMCM, build_tmcm

from conftest import ATTACK_SEED, fit_hub_threshold, lowered, make_quantized, small_tmcms


def build_small(coeffs, p=None, dsm=DecoyMethod.RD, ibw=5, seed=3, spread=2):
    coeffs = list(coeffs)
    qf = make_quantized(
        coeffs, [c - spread for c in coeffs], [c + spread for c in coeffs], Q=4
    )
    da = assign_decoys(qf, p or len(coeffs), dsm, seed=seed)
    tmcm, key = build_tmcm(qf, da, ibw=ibw, seed=seed + 1)
    return qf, da, tmcm, key, lowered(tmcm)


# --- key slice inference --------------------------------------------------

def test_infer_key_slices_matches_builder_layout(built):
    b = built(1, DecoyMethod.HDRD)
    slices = infer_key_slices(PackedEvaluator(b.netlist))
    offsets = np.cumsum((0,) + b.tmcm.key_widths[:-1])
    expected = [
        list(range(off, off + w)) for off, w in zip(offsets, b.tmcm.key_widths)
    ]
    assert [sorted(s) for s in slices] == expected


# --- bit extraction -------------------------------------------------------

def observe(nl, i, k):
    """f_r(i, k, x) per output bit on x = 0 .. 2**min(cbw, ibw) - 1, and x read signed."""
    cbw, ibw = nl.meta["cbw"], nl.meta["ibw"]
    width = 1 << min(cbw, ibw)
    xs = np.arange(width, dtype=np.int64)
    masks = {
        "i": pack_value_bits(np.full(width, i), len(nl.inputs["i"])),
        "k": pack_value_bits(np.full(width, k), len(nl.inputs["k"])),
        "x": pack_value_bits(xs, ibw),
    }
    xs_signed = np.where(xs >= 1 << (ibw - 1), xs - (1 << ibw), xs)
    return PackedEvaluator(nl).run(masks, width), xs_signed


def test_extract_lsb_is_product_at_x_one():
    qf, da, tmcm, key, nl = build_small([3, -2, 5])
    for i in range(tmcm.N):
        for v in range(2):
            k = v << sum(tmcm.key_widths[:i])
            constant = tmcm.mux_tables[i][v]
            observed, xs = observe(nl, i, k)
            assert extract_bit(observed[0], xs, 0, 0) == (constant & 1)


def test_extract_bit_constant_five():
    # Constant 5 = 101b: after bit0 = 1, bit 1 resolves to 0 via the
    # exhaustive check over the two free input bits.
    qf, da, tmcm, key, nl = build_small([5], p=1)
    observed, xs = observe(nl, 0, key.slice_value(0))
    assert extract_bit(observed[0], xs, 0, 0) == 1
    assert extract_bit(observed[1], xs, 1, 1) == 0


def test_extract_zero_constant_all_bits_zero():
    qf, da, tmcm, key, nl = build_small([0, 5], spread=1)
    observed, xs = observe(nl, 0, key.slice_value(0))
    partial = 0
    for j in range(tmcm.cbw):
        partial |= extract_bit(observed[j], xs, partial, j) << j
    assert partial == 0


# --- full extraction ------------------------------------------------------

def test_extraction_matches_ground_truth_multiset():
    qf, da, tmcm, key, nl = build_small([30, -20, 50, -70], p=7, ibw=6)
    rec = extract_constants(nl, seed=ATTACK_SEED)
    assert rec.N == 4
    for i in range(4):
        assert sorted(rec.R[i]) == sorted((int(qf.coeffs[i]),) + da.D[i])
        assert len(rec.R[i]) == 1 << len(rec.slices[i])


def test_extraction_runs_netlist_once_per_constant_and_spot_check_run(monkeypatch):
    # One run infers the key slices, one observes each of the 14
    # constants, and one spot-checks them all: the four slices' 14 x 1000
    # lanes fit in one run.  The slice groups are solved in forked
    # workers, so the count lives in memory they share.
    qf, da, tmcm, key, nl = build_small([30, -20, 50, -70], p=7, ibw=6)
    runs = multiprocessing.get_context("fork").Value("i", 0)
    original = PackedEvaluator.run

    def counting_run(self, *args, **kwargs):
        with runs.get_lock():
            runs.value += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PackedEvaluator, "run", counting_run)
    rec = extract_constants(nl, seed=ATTACK_SEED)
    assert sum(len(row) for row in rec.R) == 14
    assert runs.value == 16


def test_observation_runs_build_one_schedule_per_worker(monkeypatch, tmp_path):
    # With one value per spot-check run every slice is a group of its
    # own, so spot-check runs, which read every output bit, come between
    # the observation runs of consecutive slices.  Each observation run
    # appends "<pid> <i> <schedules built>" to one file, from whichever
    # forked worker makes it; the runs of one worker must build one
    # schedule between them.
    qf, da, tmcm, key, nl = build_small([30, -20, 50, -70], p=7, ibw=6)
    monkeypatch.setattr(attack, "SPOT_CHECK_LANES", 64)
    log = os.open(tmp_path / "runs.txt", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    built = []
    original_build, original_run = PackedEvaluator._build_schedule, PackedEvaluator.run

    def counting_build(self, *args):
        built.append(args)
        return original_build(self, *args)

    def logging_run(self, input_masks, width, out_bits=None):
        before = len(built)
        result = original_run(self, input_masks, width, out_bits)
        if out_bits is not None:
            os.write(log, f"{os.getpid()} {input_masks['i']} {len(built) - before}\n".encode())
        return result

    monkeypatch.setattr(PackedEvaluator, "_build_schedule", counting_build)
    monkeypatch.setattr(PackedEvaluator, "run", logging_run)
    rec = extract_constants(nl, samples=64, seed=ATTACK_SEED)
    os.close(log)
    runs, builds = {}, {}
    for line in (tmp_path / "runs.txt").read_text().splitlines():
        pid, i, n = map(int, line.split())
        runs[i] = runs.get(i, 0) + 1
        builds[pid] = builds.get(pid, 0) + n
    assert runs == {i: len(row) for i, row in enumerate(rec.R)}
    assert set(builds.values()) == {1}


def lane_values(port, width):
    """Per-lane values of an evaluator port: lane masks, or an int held on every lane."""
    if isinstance(port, int):
        return np.full(width, port, dtype=np.uint64)
    out = np.zeros(width, dtype=np.uint64)
    for t, m in enumerate(port):
        packed = np.frombuffer(m.to_bytes(-(-width // 8), "little"), dtype=np.uint8)
        out |= np.unpackbits(packed, bitorder="little")[:width].astype(np.uint64) << np.uint64(t)
    return out


@pytest.mark.parametrize("samples", [8, 32])
@pytest.mark.parametrize("lanes", [attack.SPOT_CHECK_LANES, 64], ids=["default-lanes", "64-lanes"])
def test_spot_check_lanes_restate_per_slice_draws(monkeypatch, tmp_path, lanes, samples):
    # Every spot-check lane's (i, k, x), as the evaluator receives it in
    # the forked workers, is saved to a file.  Blocks of ``samples`` lanes
    # must cover each (slice, value) pair exactly once, with x drawn from
    # the slice's own generator, ``samples`` draws per value in value
    # order, whichever runs the pairs share.
    qf, da, tmcm, key, nl = build_small([30, -20, 50, -70], p=7, ibw=6)
    monkeypatch.setattr(attack, "SPOT_CHECK_LANES", lanes)
    original = PackedEvaluator.run

    def recording_run(self, input_masks, width, out_bits=None):
        if out_bits is None and not isinstance(input_masks["x"], int):
            lanes_ikx = [lane_values(input_masks[name], width) for name in "ikx"]
            np.save(tmp_path / f"{uuid.uuid4().hex}.npy", np.stack(lanes_ikx))
        return original(self, input_masks, width, out_bits)

    monkeypatch.setattr(PackedEvaluator, "run", recording_run)
    rec = extract_constants(nl, samples=samples, seed=ATTACK_SEED)

    covered = {}
    for path in tmp_path.glob("*.npy"):
        run_i, run_k, run_x = np.load(path)
        assert run_x.size <= lanes or run_x.size == samples
        for first in range(0, run_x.size, samples):
            block = slice(first, first + samples)
            pair = (int(run_i[first]), int(run_k[first]))
            assert (run_i[block] == pair[0]).all() and (run_k[block] == pair[1]).all()
            assert pair not in covered
            covered[pair] = run_x[block].tolist()

    expected = {}
    for i, bits in enumerate(rec.slices):
        rng = np.random.default_rng((ATTACK_SEED, i))
        for v in range(1 << len(bits)):
            k = sum(((v >> t) & 1) << pos for t, pos in enumerate(bits))
            expected[(i, k)] = rng.integers(0, 1 << nl.meta["ibw"], size=samples, dtype=np.uint64).tolist()
    assert covered == expected


def test_spot_check_split_into_runs_per_value_passes_the_same_constants(monkeypatch):
    qf, da, tmcm, key, nl = build_small([30, -20, 50, -70], p=7, ibw=6)
    whole = extract_constants(nl, samples=64, seed=ATTACK_SEED)
    monkeypatch.setattr(attack, "SPOT_CHECK_LANES", 64)
    assert extract_constants(nl, samples=64, seed=ATTACK_SEED) == whole


def tampered(top_keys, lsb_keys) -> GateNetlist:
    """One tap, key slice {0}, constants 3 (k = 0) and 5 (k = 1), with faults.

    The top product bit is flipped for the key values in ``top_keys``:
    the low bits the extraction observes stay intact, so only the spot
    check can see it.  Product bit 0 is flipped for those in
    ``lsb_keys``, which leaves that constant's bit 0 inconsistent (x = 0
    must give 0).
    """
    tmcm = ObfuscatedTMCM(ibw=4, cbw=4, mux_tables=((3, 5),), seed=0)
    nl = lowered(tmcm)
    (k0,) = nl.inputs["k"]
    gates, outputs = list(nl.gates), list(nl.outputs)

    def add(*gate):
        gates.append(gate)
        return nl.first_gate_id + len(gates) - 1

    def flip(t, keys):
        if keys:
            when = {(0,): add(OP_NOT, k0), (1,): k0, (0, 1): 1}[tuple(keys)]
            outputs[t] = add(OP_XOR, outputs[t], when)

    flip(-1, top_keys)
    flip(0, lsb_keys)
    bad = GateNetlist(inputs=nl.inputs, outputs=outputs, gates=gates, meta=nl.meta)
    bad.validate()
    return bad


@pytest.mark.parametrize(
    "top_keys, lsb_keys, error, message",
    [
        ((0,), (1,), VerificationMismatch, "fails spot check for i=0, k=0x0"),
        ((), (1,), NoConsistentBit, "no constant bit 0 reproduces f_r for i=0, k=0x1"),
        ((0,), (), VerificationMismatch, "fails spot check for i=0, k=0x0"),
        ((1,), (), VerificationMismatch, "fails spot check for i=0, k=0x1"),
        ((0, 1), (), VerificationMismatch, "fails spot check for i=0, k=0x0"),
    ],
    ids=[
        "spot-check-before-extraction", "extraction-only", "spot-check-k0", "spot-check-k1",
        "spot-check-both",
    ],
)
@pytest.mark.parametrize("lanes", [attack.SPOT_CHECK_LANES, 64], ids=["one-run", "run-per-value"])
def test_extraction_raises_first_failure_in_constant_order(
    monkeypatch, lanes, top_keys, lsb_keys, error, message
):
    # The spot check of constant 0 comes before the extraction of
    # constant 1, whether the slice is spot-checked in one run or in one
    # run per value.
    monkeypatch.setattr(attack, "SPOT_CHECK_LANES", lanes)
    with pytest.raises(error, match=message):
        extract_constants(tampered(top_keys, lsb_keys), samples=64)


def test_extraction_raises_first_failure_in_slice_order():
    # Slice 0's constants 3 and 5 read right on the bits extraction
    # observes, but the top product bit is flipped when i = 0, so only its
    # spot check fails.  Bit 0 is flipped when i = 1, so slice 1 fails on
    # its first constant, in its worker, before slice 0 gets that far.
    tmcm = ObfuscatedTMCM(ibw=4, cbw=4, mux_tables=((3, 5), (6, 7)), seed=0)
    nl = lowered(tmcm)
    (i0,) = nl.inputs["i"]
    gates, outputs = list(nl.gates), list(nl.outputs)
    gates.append((OP_NOT, i0))
    gates.append((OP_XOR, outputs[-1], nl.first_gate_id + len(gates) - 1))
    outputs[-1] = nl.first_gate_id + len(gates) - 1
    gates.append((OP_XOR, outputs[0], i0))
    outputs[0] = nl.first_gate_id + len(gates) - 1
    bad = GateNetlist(inputs=nl.inputs, outputs=outputs, gates=gates, meta=nl.meta)
    bad.validate()
    with pytest.raises(VerificationMismatch, match="fails spot check for i=0, k=0x0"):
        extract_constants(bad, samples=64)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda i0, k0, k1: (OP_AND, i0, k1), "fails spot check for i=1, k=0x2"),
        (lambda i0, k0, k1: (OP_MUX2, k0, k1, i0), "fails spot check for i=0, k=0x1"),
    ],
    ids=["slice-1", "both-slices"],
)
def test_shared_spot_check_run_raises_first_failure_in_slice_order(fault, message):
    # Slices 0 and 1 have one key bit each, so their four constants share
    # one spot-check run.  The top product bit is flipped when i = 1 and
    # key bit 1 is set, and in the second case also when i = 0 and key
    # bit 0 is set.  The low bits extraction observes stay intact, so only
    # the shared run sees the faults, and it names the first in slice order.
    tmcm = ObfuscatedTMCM(ibw=4, cbw=4, mux_tables=((3, 5), (6, 7)), seed=0)
    nl = lowered(tmcm)
    (i0,), (k0, k1) = nl.inputs["i"], nl.inputs["k"]
    gates, outputs = list(nl.gates), list(nl.outputs)
    gates.append(fault(i0, k0, k1))
    gates.append((OP_XOR, outputs[-1], nl.first_gate_id + len(gates) - 1))
    outputs[-1] = nl.first_gate_id + len(gates) - 1
    bad = GateNetlist(inputs=nl.inputs, outputs=outputs, gates=gates, meta=nl.meta)
    bad.validate()
    with pytest.raises(VerificationMismatch, match=message):
        extract_constants(bad, samples=64)


def test_extraction_parent_holds_no_spot_check_inputs():
    # Each task draws its own spot-check inputs, so the parent's
    # memory does not grow with samples: 14 constants x 100k draws of
    # 8 bytes would be 11 MB.
    qf, da, tmcm, key, nl = build_small([30, -20, 50, -70], p=7, ibw=6)
    tracemalloc.start()
    try:
        extract_constants(nl, samples=100_000, seed=ATTACK_SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_extraction_independent_of_worker_count(monkeypatch, built, extracted):
    b = built(1, DecoyMethod.HDRD)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert extract_constants(b.netlist, seed=ATTACK_SEED) == extracted(1, DecoyMethod.HDRD)


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


@pytest.mark.parametrize("cbw_minus_ibw", [-1, 0, 1])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_extraction_agrees_with_truth_table_inversion_random_tables(cbw_minus_ibw, data):
    # cbw < ibw, = ibw and > ibw are the edges of the 2**min(cbw, ibw)
    # observation grid.
    nl = lowered(data.draw(small_tmcms(cbw_minus_ibw)))
    rec = extract_constants(nl, samples=64)
    for i, bits_i in enumerate(rec.slices):
        for v, got in enumerate(rec.R[i]):
            k = sum(((v >> t) & 1) << b for t, b in enumerate(bits_i))
            assert invert_truth_table(nl, i, k) == [got]


# --- hub recovery (undecided on pairs) -------------------------------------

def test_hub_recovery_classic_example():
    assert recover_coefficient([7, 6, 5, 3]) == 7


def test_hub_recovery_pair_undecided():
    assert recover_coefficient([7, 6]) is None


def test_hub_recovery_no_unique_hub():
    # 5 and -5 share a magnitude one bit from 4: all three are hubs.
    assert recover_coefficient([5, -5, 4]) is None


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

