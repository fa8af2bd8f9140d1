"""Behavior of the obfuscated filter under wrong keys.

The effective coefficients of the filter under *any* key can be read
off behaviorally: drive the constant-1 step from reset and difference
the first N outputs.  The resulting tap vector is exactly what the key
selected per index, so its frequency response tells whether the filter
still meets its spec.  A filter is audited through its
`ObfuscatedTMCM`, which with a key fully determines the folded filter.
A wrong key can break coefficient symmetry, so the violation test uses
the full-response magnitude |H(e^jw)| (a direct DFT of the effective
taps); the ZPFR of the taps' symmetric part is kept for plotting
(`write_curves`).
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from firlock.design import VERIFY_DENSITY, FilterSpec, build_frequency_grid, response_matrix
from firlock.tmcm import ObfuscatedTMCM, SecretKey, simulate_filter

__all__ = [
    "BehaviorReport",
    "KeyBehavior",
    "behavior_report",
    "effective_coefficients",
    "emit_curves",
    "sample_wrong_keys",
    "single_slice_corruptions",
    "write_curves",
]

VIOLATION_TOL = 1e-8

# Frequencies, evenly spaced over [0, pi], of each key's exported curve.
CURVE_POINTS = 257

# Up to this ball size the keys are drawn as distinct ranks into the
# ball's enumeration order (exact uniform sampling without replacement);
# above it, by rejection.  The value picks the scheme, and so the keys.
_ENUMERATION_LIMIT = 1 << 18


def _unrank_combination(n: int, d: int, rank: int) -> int:
    """Bit mask of the ``rank``-th d-subset of range(n) in `combinations` order."""
    mask = 0
    b = 0
    for left in range(d, 0, -1):
        # Of the subsets still in play, comb(n - b, left) - comb(n - c, left)
        # take their next element below c, and all of them come earlier in
        # the order: the next element is the largest c with at most rank
        # of them (a binary search, so a whole ball unranks in d log n).
        target = math.comb(n - b, left) - rank
        lo, hi = b, n - left
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(n - mid, left) >= target:
                lo = mid
            else:
                hi = mid - 1
        rank -= math.comb(n - b, left) - math.comb(n - lo, left)
        mask |= 1 << lo
        b = lo + 1
    return mask


def sample_wrong_keys(secret: SecretKey, count: int, max_hd: int, seed: int) -> tuple:
    """Uniform sample of ``count`` distinct keys at HD 1..max_hd from the secret."""
    p = secret.p
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 1 <= max_hd <= p:
        raise ValueError("max_hd must lie in [1, p]")
    sizes = [math.comb(p, d) for d in range(1, max_hd + 1)]
    total = sum(sizes)
    if count > total:
        raise ValueError(f"only {total} keys exist within Hamming distance {max_hd}")
    rng = np.random.default_rng(seed)
    if total <= _ENUMERATION_LIMIT:
        # Rank r enumerates distance 1 first, then 2, ..., each distance
        # in `combinations` order; only the chosen ranks are unranked.
        starts = list(accumulate(sizes, initial=0))
        keys = []
        for r in rng.choice(total, size=count, replace=False).tolist():
            d = bisect_right(starts, r)
            keys.append(secret.bits ^ _unrank_combination(p, d, r - starts[d - 1]))
    else:
        weights = np.array(sizes, dtype=float) / total
        seen = set()
        keys = []
        while len(keys) < count:
            d = int(rng.choice(np.arange(1, max_hd + 1), p=weights))
            positions = rng.choice(p, size=d, replace=False)
            key = secret.bits ^ sum(1 << int(b) for b in positions)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return tuple(keys)


def single_slice_corruptions(secret: SecretKey) -> list:
    """Every key that differs from the secret in exactly one slice."""
    keys = []
    for i, w in enumerate(secret.widths):
        good = secret.slice_value(i)
        for v in range(1 << w):
            if v != good:
                keys.append(secret.with_slice(i, v).bits)
    return keys


def effective_coefficients(tmcm: ObfuscatedTMCM, keys) -> np.ndarray:
    """Taps realized under each of the key-bus ints ``keys``, probed through the step response.

    One row of taps per key, from one `simulate_filter` run.  Row k
    equals ``tmcm_select`` per index for key k: the step makes output j
    the running sum of the first j+1 selected constants.
    """
    y = simulate_filter(tmcm, keys, np.ones(tmcm.N, dtype=np.int64))
    return np.diff(y, prepend=0)


@dataclass(frozen=True)
class KeyBehavior:
    """Spec audit of the filter under one key."""

    key_hex: str
    is_secret: bool
    taps: tuple
    symmetric: bool
    max_passband_dev: float
    max_stopband_dev: float
    band_excess: float
    violates: bool
    curve: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "key": self.key_hex,
            "is_secret": self.is_secret,
            "taps": [int(t) for t in self.taps],
            "symmetric": self.symmetric,
            "max_passband_dev": self.max_passband_dev,
            "max_stopband_dev": self.max_stopband_dev,
            "band_excess": self.band_excess,
            "violates": self.violates,
        }


@dataclass(frozen=True)
class BehaviorReport:
    """Per-key audits plus the wrong-key violation fraction."""

    spec: FilterSpec
    entries: tuple
    violation_fraction: float
    grid_density: float
    curve_w: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "grid_density": self.grid_density,
            "tol": VIOLATION_TOL,
            "wrong_keys": len(self.entries) - 1,
            "violation_fraction": self.violation_fraction,
            "keys": [e.to_json_dict() for e in self.entries],
        }


# Rows of a band's DFT matrix computed per step, which bounds the
# temporary that `np.outer` makes.
_DFT_ROWS = 1024


def _band_gains(w, taps):
    """|H(e^jw)| of each row of ``taps``, one gemv per row.

    The band's DFT matrix, ``np.exp(-1j * np.outer(w, range(N)))``, is
    built in place a block of rows at a time and lives until the last
    row is done.
    """
    n = np.arange(taps.shape[1])
    phase = np.empty((len(w), len(n)), dtype=complex)
    for r in range(0, len(w), _DFT_ROWS):
        block = phase[r : r + _DFT_ROWS]
        np.multiply(-1j, np.outer(w[r : r + _DFT_ROWS], n), out=block)
        np.exp(block, out=block)
    for row in taps:
        yield np.abs(phase @ row)


def behavior_report(
    tmcm: ObfuscatedTMCM,
    secret: SecretKey,
    spec: FilterSpec,
    wrong_keys,
    grid_density: float = VERIFY_DENSITY,
    curve_points: int = CURVE_POINTS,
) -> BehaviorReport:
    """Audit the correct key and every wrong key against the spec.

    A key is flagged violating when |H(e^jw)| leaves the ripple band by
    more than `VIOLATION_TOL` anywhere on the verification grid.  Each
    key's curve is the ZPFR of its taps' symmetric part on
    ``curve_points`` frequencies.  The correct key always appears first
    (key id 0 in the curve export); only wrong keys count toward the
    violation fraction.  ``wrong_keys`` are key-bus ints; the secret is
    audited through its ``bits``.
    """
    grid = build_frequency_grid(spec, grid_density)
    M = (tmcm.N - 1) // 2
    curve_w = np.linspace(0.0, np.pi, curve_points)
    curve_rows = response_matrix(curve_w, M)
    scale = 1 << spec.Q
    keys = [secret.bits, *wrong_keys]
    taps = effective_coefficients(tmcm, keys)
    h = taps / scale
    # One band's DFT matrix is live at a time.
    pass_dev = [float(np.max(np.abs(mag - 1.0))) for mag in _band_gains(grid.passband, h)]
    stop_dev = [float(np.max(mag)) for mag in _band_gains(grid.stopband, h)]

    def audit(j, key, row):
        excess = max(pass_dev[j] - spec.dp, stop_dev[j] - spec.ds)
        sym = (row + row[::-1]) / 2.0
        return KeyBehavior(
            key_hex=SecretKey(key, secret.widths).to_hex(),
            is_secret=j == 0,
            taps=tuple(int(t) for t in row),
            symmetric=bool(np.array_equal(row, row[::-1])),
            max_passband_dev=pass_dev[j],
            max_stopband_dev=stop_dev[j],
            band_excess=float(excess),
            violates=bool(excess > VIOLATION_TOL),
            curve=curve_rows @ (sym[: M + 1] / scale),
        )

    entries = [audit(j, k, row) for j, (k, row) in enumerate(zip(keys, taps))]
    wrong = entries[1:]
    fraction = float(np.mean([e.violates for e in wrong])) if wrong else 0.0
    return BehaviorReport(
        spec=spec,
        entries=tuple(entries),
        violation_fraction=fraction,
        grid_density=grid_density,
        curve_w=curve_w,
    )


def write_curves(report: BehaviorReport, fh) -> None:
    """Write the CSV of the per-key zero-phase curves to ``fh``, one key
    at a time; key id 0 is the correct key."""
    # One template per report, a "\n<w>,%.10g" row per frequency; each
    # key puts its id after every newline and fills in its gains.
    rows = "".join(f"\n{w:.10g},%.10g" for w in (report.curve_w / np.pi).tolist())
    fh.write("key_id,w_over_pi,gain")
    for key_id, entry in enumerate(report.entries):
        fh.write(rows.replace("\n", f"\n{key_id},") % tuple(entry.curve.tolist()))
    fh.write("\n")


def emit_curves(report: BehaviorReport) -> str:
    """`write_curves`'s text as one string."""
    buf = io.StringIO()
    write_curves(report, buf)
    return buf.getvalue()
