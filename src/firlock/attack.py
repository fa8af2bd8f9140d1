"""Reverse engineering of a multiplexed constant-multiplier netlist.

The attacker holds the gate-level function f_r(i, k, x) and nothing
else: no key, no filter spec, no working reference device.  The attack
proceeds in stages:

1. key slice discovery: which key bits steer which primary select value
   (functional probing in one netlist run; the lowering is regular so
   this is reliable);
2. LSB-first constant extraction: product bit j depends only on bits
   0..j of the constant and of x, so one netlist run per constant, with
   i and k held, observes every input the scan needs.  The bits are
   decided one at a time by an exhaustive check over the free low bits
   of x -- the desk-scale equivalent of proving a miter bit
   unsatisfiable -- against a bit-sliced product of the bits decided so
   far, one int lane mask per product bit; runs of random inputs then
   spot-check the constants,
   consecutive key slices sharing a run while their constants fit (a
   slice too wide for one run takes several).  Every run is a
   `PackedEvaluator.run` on the one evaluator the attack builds.  The
   key slices are independent, so forked workers, one per usable CPU,
   take one group of slices that share a run each; a slice's random
   inputs come from its own generator, seeded by the attack seed and
   the slice index, so the result does not depend on the workers or on
   the grouping;
3. decoy-method classification from the extracted constant sets;
4. hub-based coefficient recovery: a constant whose Hamming distance to
   every other extracted constant is minimal gives itself away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from firlock.forkmap import fork_map
from firlock.hamming import hamming_distance, hub_element
from firlock.netlist import GateNetlist, PackedEvaluator, pack_value_bits

__all__ = [
    "DsmVerdict",
    "InconclusiveClassification",
    "NoConsistentBit",
    "RecoveredConstantSets",
    "RecoveryReport",
    "VerificationMismatch",
    "classify_dsm",
    "compile_report",
    "extract_bit",
    "extract_constants",
    "infer_key_slices",
    "recover_coefficient",
]


HD_THRESHOLD = 0.5  # hub fraction from which `classify_dsm` says HD-like
# Most lanes in one spot-check run: 2 KB per net value however many key
# slices share the run or however wide one slice is (all 512 values of a
# 9-bit slice in one run would take 64 KB per net).
SPOT_CHECK_LANES = 1 << 14


class NoConsistentBit(Exception):
    """Neither bit value matches: the block is not a constant multiplier here."""


class VerificationMismatch(Exception):
    """A completed constant failed the random-input spot check."""


class InconclusiveClassification(Exception):
    """Every constant set has two elements; no hub signal exists."""


def infer_key_slices(ev: PackedEvaluator) -> list:
    """Group key bits by the primary select value they influence.

    Drives x = 1 in one run of ``ev``'s netlist, (p + 1) blocks of N
    lanes: lane i of every block reads select i, block 0 holds the key
    at 0 and block b + 1 sets key bit b alone.  Flipping a key bit
    changes the selected constant (all table entries are distinct), so
    the lanes where block b + 1 differs from block 0 identify the owner.
    Raises if a key bit feeds no lane or several, which would mean the
    netlist is not a per-coefficient selector.
    """
    nl = ev.nl
    n, p = nl.meta["N"], len(nl.inputs["k"])
    width = (p + 1) * n
    block = (1 << n) - 1
    i_masks = pack_value_bits(np.arange(width, dtype=np.uint64) % np.uint64(n), len(nl.inputs["i"]))
    k_masks = [block << (n * (bit + 1)) for bit in range(p)]
    out = ev.run({"i": i_masks, "k": k_masks, "x": 1}, width)
    every_block = ((1 << width) - 1) // block  # bit 0 of each block set
    diff = 0
    for m in out:
        diff |= m ^ ((m & block) * every_block)
    slices = [[] for _ in range(n)]
    for bit in range(p):
        flipped = (diff >> (n * (bit + 1))) & block
        owners = [lane for lane in range(n) if (flipped >> lane) & 1]
        if len(owners) != 1:
            raise ValueError(f"key bit {bit} influences {len(owners)} selects, expected 1")
        slices[owners[0]].append(bit)
    return slices


def extract_bit(
    observed_j: int, product_j: int, lanes: int, j: int, odd_lanes: int | None = None
) -> int:
    """Bit j of a constant, given the product of its verified bits 0..j-1.

    ``observed_j`` is the netlist's product bit j on lanes x = 0, 1, ...,
    ``product_j`` the same bit of partial * x, partial being the
    verified bits, and ``lanes`` masks the lanes checked: the first
    2**(j+1), every x with bits 0..j free (all lanes once j reaches
    ibw).  Setting bit j adds x << j to the product, which carries
    nothing into bit j, so candidate 1's bit j is candidate 0's flipped
    where x is odd, which is on the odd lanes.  The checked lanes include
    x = 1, so the two candidates always differ and at most one matches;
    when neither does, the block is no constant multiplier and
    `NoConsistentBit` is raised.  ``odd_lanes`` is the odd-lane pattern
    ``lanes // 3 << 1``, computed here when not given; the scan passes
    the patterns `extract_constants` computes once.
    """
    diff = (observed_j ^ product_j) & lanes
    if not diff:
        return 0
    if odd_lanes is None:
        odd_lanes = lanes // 3 << 1  # 0b...1010 over 1 or an even number of lanes
    if diff == odd_lanes:
        return 1
    raise NoConsistentBit(f"no constant bit {j} reproduces f_r")


def _scan(observed, x_planes, lanes, odd_lanes) -> int:
    """The constant's bits 0..cbw-1 (cbw = ``len(lanes)``), LSB first.

    ``observed`` holds the netlist's product bits on lanes x = 0, 1, ...,
    ``x_planes`` the bits of x read signed, sign-extended to cbw planes,
    ``lanes[j]`` the lanes bit j is checked on and ``odd_lanes[j]`` their
    odd ones.  The product of the bits decided so far is kept
    bit-sliced, one lane mask per product bit mod 2**cbw; each 1 bit j
    adds x << j to it by a ripple-carry over planes j..cbw-1.
    """
    cbw = len(lanes)
    product = [0] * cbw
    constant = 0
    for j in range(cbw):
        if extract_bit(observed[j], product[j], lanes[j], j, odd_lanes[j]):
            constant |= 1 << j
            carry = product[j] & x_planes[0]  # plane j itself is not read again
            for t in range(j + 1, cbw):
                a, b = product[t], x_planes[t - j]
                a_b = a ^ b
                product[t] = a_b ^ carry
                carry = (a & b) | (a_b & carry)
    return constant


def _spread(value: int, bit_positions) -> int:
    out = 0
    for t, pos in enumerate(bit_positions):
        out |= ((value >> t) & 1) << pos
    return out


@dataclass(frozen=True)
class RecoveredConstantSets:
    """Per-select lists of extracted constants, in key-slice-value order.

    ``R[i]`` holds one signed constant per value of key slice i; which
    entry is the true coefficient is exactly what the key hides.
    """

    R: tuple
    cbw: int
    slices: tuple

    @property
    def N(self) -> int:
        return len(self.R)

    def to_json_dict(self) -> dict:
        return {
            "cbw": int(self.cbw),
            "R": [[int(v) for v in row] for row in self.R],
            "key_slices": [[int(b) for b in s] for s in self.slices],
        }


def _signed(v, width: int):
    """Two's-complement reading of ``width``-bit words (an int or an int64 array)."""
    return v - ((v >> (width - 1)) << width)


def extract_constants(nl: GateNetlist, samples: int = 1000, seed: int = 0) -> RecoveredConstantSets:
    """Recover every constant behind every (i, key slice value) pair.

    One netlist run infers the key slices.  One run per constant, with
    i and k held, observes product bits 0..cbw-1 on
    x = 0 .. 2**min(cbw, ibw) - 1, every input the LSB-first scan reads,
    and `extract_bit` decides the bits against a bit-sliced running
    product on the same lane masks, so no bit decision builds an array.
    Runs of at most
    `SPOT_CHECK_LANES` lanes then spot-check the constants, each on
    ``samples`` random full-width inputs: consecutive slices whose
    constants fit in one run share it, and a slice too wide for one run
    takes several.  The first failure in (slice, constant) order is
    raised, as if every constant were spot-checked as soon as it was
    extracted.

    Every run is a `PackedEvaluator.run` on one evaluator, which reuses
    a run's schedule for the next run that varies the same input bits
    and reads the same outputs, as a group's observation runs do.  The
    slices are independent, so `fork_map`'s workers, which inherit the
    evaluator, solve one group of slices that share a run each.  Slice i
    draws its spot-check inputs from its own generator, seeded by
    ``(seed, i)``, so the result does not depend on the worker count or
    on the grouping.
    """
    cbw, ibw = nl.meta["cbw"], nl.meta["ibw"]
    if cbw + ibw > 63:
        raise ValueError("extraction verification uses 64-bit arithmetic; cbw + ibw must stay below 64")
    ev = PackedEvaluator(nl)
    slices = tuple(tuple(s) for s in infer_key_slices(ev))
    width = 1 << min(cbw, ibw)
    x_masks = pack_value_bits(np.arange(width), ibw)
    x_planes = (x_masks + x_masks[-1:] * cbw)[:cbw]
    lanes = [(1 << min(2 << j, width)) - 1 for j in range(cbw)]
    odd_lanes = [m // 3 << 1 for m in lanes]

    def solve_group(group) -> list:
        rows = []
        for i in group:
            bits_i = slices[i]
            row = []
            rows.append(row)
            for v in range(1 << len(bits_i)):
                k = _spread(v, bits_i)
                observed = ev.run({"i": i, "k": k, "x": x_masks}, width, range(cbw))
                try:
                    constant = _scan(observed, x_planes, lanes, odd_lanes)
                except NoConsistentBit as exc:
                    _spot_check(ev, slices, group, rows, samples, seed)
                    raise NoConsistentBit(f"{exc} for i={i}, k={k:#x}") from None
                row.append(_signed(constant, cbw))
        _spot_check(ev, slices, group, rows, samples, seed)
        return rows

    groups = _spot_check_groups(slices, _values_per_run(samples))
    rows = [tuple(row) for group_rows in fork_map(solve_group, groups) for row in group_rows]
    return RecoveredConstantSets(R=tuple(rows), cbw=cbw, slices=slices)


def _values_per_run(samples: int) -> int:
    """Slice values one spot-check run holds, ``samples`` lanes each."""
    return max(1, SPOT_CHECK_LANES // max(samples, 1))


def _spot_check_groups(slices, per_run: int) -> list:
    """Consecutive slice indices whose values fit in one run of ``per_run``.

    A slice with more values than a run holds is a group of its own.
    """
    groups, filled = [], per_run
    for i, bits in enumerate(slices):
        values = 1 << len(bits)
        if filled + values > per_run:
            groups.append([])
            filled = 0
        groups[-1].append(i)
        filled += values
    return groups


def _spot_check(ev, slices, group, rows, samples, seed):
    """Full-width random check of f(c, x) == f_r(i, k, x), in (slice, value) order.

    ``rows[n]`` lists the constants extracted for slice ``group[n]``, in
    value order (the last row may stop early).  Each (slice, value) pair
    gets a block of ``samples`` lanes, with i and k set to it and x drawn
    from the slice's generator, seeded by ``(seed, i)``; k's other
    slices' bits stay 0.  The pairs fill runs of at most
    `SPOT_CHECK_LANES` lanes in order, each run's x drawn as it is built,
    one generator call per slice in the run.
    A run that covers one slice holds i, so the evaluator prunes by it.
    """
    nl = ev.nl
    cbw, ibw = nl.meta["cbw"], nl.meta["ibw"]
    rngs = {i: np.random.default_rng((seed, i)) for i in group}
    pairs = [(i, v, c) for i, row in zip(group, rows) for v, c in enumerate(row)]
    per_run = _values_per_run(samples)
    for first in range(0, len(pairs), per_run):
        batch_i, batch_v, batch_c = zip(*pairs[first : first + per_run])
        xs = np.concatenate([
            rngs[i].integers(0, 1 << ibw, size=samples * len(list(run)), dtype=np.uint64)
            for i, run in groupby(batch_i)
        ])
        lane_i = np.repeat(np.array(batch_i, dtype=np.uint64), samples)
        lane_v = np.repeat(np.array(batch_v, dtype=np.uint64), samples)
        lo, hi = batch_i[0], batch_i[-1]
        i_port = lo if lo == hi else pack_value_bits(lane_i, len(nl.inputs["i"]))
        k_masks = [0] * len(nl.inputs["k"])
        for i in range(lo, hi + 1):
            values = np.where(lane_i == i, lane_v, np.uint64(0))
            for pos, m in zip(slices[i], pack_value_bits(values, len(slices[i]))):
                k_masks[pos] = m
        observed = ev.run({"i": i_port, "k": k_masks, "x": pack_value_bits(xs, ibw)}, xs.size)
        constants = np.repeat(np.array(batch_c, dtype=np.int64), samples)
        products = constants * _signed(xs.astype(np.int64), ibw)
        diff = 0
        for o, e in zip(observed, pack_value_bits(products.astype(np.uint64), cbw + ibw)):
            diff |= o ^ e
        for n, (i, v) in enumerate(zip(batch_i, batch_v)):
            if (diff >> (n * samples)) & ((1 << samples) - 1):
                k = _spread(v, slices[i])
                raise VerificationMismatch(f"extracted constant fails spot check for i={i}, k={k:#x}")


def recover_coefficient(values):
    """Hub test on one constant set: the coefficient, or None if undecided.

    A two-element set is always undecided; for a larger set the hub
    `hub_element` finds, if unique, is reported as the coefficient.
    """
    vals = list(values)
    if len(vals) <= 2:
        return None
    return hub_element(vals)


@dataclass(frozen=True)
class DsmVerdict:
    """Classifier output over the extracted constant sets."""

    label: str
    score: float
    features: dict

    def to_json_dict(self) -> dict:
        return {"label": self.label, "score": self.score, "features": dict(self.features)}


def classify_dsm(R: RecoveredConstantSets) -> DsmVerdict:
    """Label the design HD-like or non-HD from hub-pattern evidence.

    The score is the fraction of multi-element sets containing a unique
    Hamming hub; pair-level proximity (distance at most 1) of the
    two-element sets is kept as a secondary feature (a hybrid method
    leaves hub-free multi sets but near-neighbor pairs).  Raises `InconclusiveClassification` when
    only two-element sets exist.
    """
    multi = [row for row in R.R if len(row) > 2]
    pairs = [row for row in R.R if len(row) == 2]
    if not multi:
        raise InconclusiveClassification("all constant sets are pairs; no hub signal")
    hub_fraction = float(np.mean([hub_element(row) is not None for row in multi]))
    pair_close = (
        float(np.mean([hamming_distance(a, b) <= 1 for a, b in pairs])) if pairs else 0.0
    )
    widths = [
        float(np.std([abs(int(v)).bit_length() for v in row])) for row in R.R if len(row) > 1
    ]
    features = {
        "hub_fraction": hub_fraction,
        "pair_close_fraction": pair_close,
        "bitwidth_spread": float(np.mean(widths)),
        "n_multi_sets": len(multi),
    }
    label = "HD-like" if hub_fraction >= HD_THRESHOLD else "non-HD"
    return DsmVerdict(label=label, score=hub_fraction, features=features)


@dataclass(frozen=True)
class RecoveryReport:
    """Attack outcome accounting.

    ``vc`` counts multi-decoy selects, ``cdc`` the hub hypotheses that
    match the ground truth (None without ground truth), and
    ``apc_log2`` the log2 of key combinations left after removing the
    slices the hub test resolved.
    """

    vc: int
    cdc: int | None
    apc_log2: int
    verdicts: tuple
    dsm_verdict: DsmVerdict | None

    def to_json_dict(self) -> dict:
        d = {
            "vc": self.vc,
            "apc_log2": self.apc_log2,
            "verdicts": [None if v is None else int(v) for v in self.verdicts],
            "dsm_verdict": None if self.dsm_verdict is None else self.dsm_verdict.to_json_dict(),
        }
        if self.cdc is not None:
            d["cdc"] = self.cdc
        return d


def compile_report(
    R: RecoveredConstantSets, ground_truth=None, dsm_verdict: DsmVerdict | None = None
) -> RecoveryReport:
    """Assemble vc / cdc / apc from the extraction and hub results.

    ``ground_truth`` (the true coefficient list) is owner-side scoring
    data and the only secret-aware input in this module; everything
    else is computable by the attacker.
    """
    verdicts = [recover_coefficient(row) for row in R.R]
    widths = [int(math.log2(len(row))) for row in R.R]
    p = sum(widths)
    vc = sum(1 for row in R.R if len(row) > 2)
    resolved = [i for i, v in enumerate(verdicts) if v is not None]
    apc_log2 = p - sum(widths[i] for i in resolved)
    cdc = None
    if ground_truth is not None:
        truth = [int(v) for v in ground_truth]
        cdc = sum(1 for i in resolved if verdicts[i] == truth[i])
    return RecoveryReport(
        vc=vc,
        cdc=cdc,
        apc_log2=apc_log2,
        verdicts=tuple(verdicts),
        dsm_verdict=dsm_verdict,
    )
