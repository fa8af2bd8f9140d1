"""Decoy assignment for quantized filter coefficients.

Every coefficient is hidden among decoy constants that share its sign,
fit in the filter's magnitude bit-width, and lie strictly outside its
feasible integer interval, so that selecting any decoy instead of the
coefficient pushes the filter out of spec.  Decoys are handed out in
rounds: round r gives 2**r fresh decoys to each coefficient visited, one
key bit per visit, until the key budget p is exhausted.  Three selection
methods are supported:

* ``hd``   -- prefer candidates at minimal Hamming distance to the
  coefficient (cheap hardware, but leaks the coefficient when it gets
  several decoys: it becomes the unique mutual near-neighbor).
* ``rd``   -- uniform random over candidates whose magnitude bit-width
  is within one of the coefficient's.
* ``hdrd`` -- ``hd`` for a coefficient's first and only decoy, ``rd``
  for everything after.

`assign_decoys` holds one assignment's state: the schedule (visits per
coefficient, fixed by N and p alone), each coefficient's legal decoys as
one ascending int64 array built once, and one boolean ``free`` mask per
coefficient that every pick clears; a visit only draws from that state.
A visit draws its random numbers in batched ``rng.integers`` calls that
consume exactly the values one call per draw would: numpy's generator
gives one array call, also one with an array of bounds, the values and
the end state of the same run of scalar calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from firlock.design import QuantizedFilter, magnitude_bitwidth
from firlock.hamming import hamming_to

__all__ = [
    "MAX_CANDIDATE_BITS",
    "DecoyAssignment",
    "DecoyMethod",
    "EmptyCandidateSet",
    "InsufficientCandidates",
    "assign_decoy_single",
    "assign_decoys",
    "candidate_set",
]

# Widest magnitude for which candidate arrays are built (2**24 int64 values: 128 MB).
MAX_CANDIDATE_BITS = 24


class DecoyMethod(str, Enum):
    HD = "hd"
    RD = "rd"
    HDRD = "hdrd"


class EmptyCandidateSet(Exception):
    """Sign and range constraints leave no legal decoy value."""


class InsufficientCandidates(Exception):
    """Fewer unused candidates remain than decoys requested."""


def candidate_set(h_i: int, l_i: int, u_i: int, mbw: int) -> np.ndarray:
    """All legal decoy values for a coefficient with bounds [l_i, u_i].

    A candidate shares the coefficient's sign (a zero coefficient counts
    as positive), has magnitude in [1, 2**mbw - 1], and lies strictly
    outside the bound interval.  The values come back as one ascending
    int64 array, so ``mbw`` may not exceed `MAX_CANDIDATE_BITS`.
    """
    if not (l_i <= h_i <= u_i):
        raise ValueError("coefficient must lie within its bounds")
    if mbw > MAX_CANDIDATE_BITS:
        raise ValueError(
            f"mbw={mbw} exceeds the {MAX_CANDIDATE_BITS}-bit limit of the decoy candidates"
        )
    top = 1 << mbw
    vals = np.arange(1, top, dtype=np.int64) if h_i >= 0 else np.arange(1 - top, 0, dtype=np.int64)
    cands = vals[(vals < l_i) | (vals > u_i)]
    if cands.size == 0:
        raise EmptyCandidateSet(
            f"no sign-matching value of at most {mbw} bits lies outside [{l_i}, {u_i}]"
        )
    return cands


def assign_decoy_single(
    nod: int, cands: np.ndarray, free: np.ndarray, h_i: int, dsm: DecoyMethod, rng
) -> list:
    """Draw ``nod`` fresh decoys for one coefficient in one visit.

    ``cands`` is the coefficient's `candidate_set` and ``free`` marks
    the entries no earlier visit has drawn; the picks are cleared in
    ``free``.  Raises `InsufficientCandidates` when fewer than ``nod``
    free values remain.

    The picks, and ``rng``'s state afterwards, are those of drawing one
    value per ``rng.integers`` call (``tests/oracles.py`` keeps that
    loop): ``hd`` takes a pool's picks from one call with decreasing
    bounds, and ``rd`` draws at most as many values at a time as its
    redraw loop is sure to use from the same range.
    """
    if nod < 1:
        raise ValueError("nod must be at least 1")
    remaining = int(np.count_nonzero(free))
    if remaining < nod:
        raise InsufficientCandidates(
            f"{nod} decoys requested but only {remaining} candidates remain"
        )
    if dsm is DecoyMethod.HDRD:
        dsm = DecoyMethod.HD if (free.all() and nod == 1) else DecoyMethod.RD
    picks = []
    if dsm is DecoyMethod.HD:
        # The pool is the free candidates at the smallest distance that
        # has any, in index order, and a pick leaves it: each distance is
        # scanned once per visit.  The k picks from a pool of L come from
        # one call, the j-th uniform over the L - j entries left.
        dist = hamming_to(cands, h_i)
        d = 0
        while len(picks) < nod:
            pool = np.flatnonzero(free & (dist == d)).tolist()
            d += 1
            L = len(pool)
            k = min(nod - len(picks), L)
            if k:
                picks += [pool.pop(r) for r in rng.integers(0, np.arange(L, L - k, -1)).tolist()]
        free[picks] = False
    else:
        # Candidates whose magnitude bit-width is within one of h_i's:
        # cands[lo:hi], with ``left`` free entries.  A draw that hits a
        # taken entry is redrawn, and once the slice is used up the rest
        # come from the whole array.  Each call draws only what the
        # redraw loop is sure to use: at least min(need, left) more draws
        # come from the same range.
        b = magnitude_bitwidth(h_i)
        mags = (1 << max(b - 2, 0), 1 << (b + 1))
        lo, hi = np.searchsorted(cands, mags if h_i >= 0 else (1 - mags[1], 1 - mags[0])).tolist()
        left = int(np.count_nonzero(free[lo:hi]))
        while len(picks) < nod:
            if not left:
                lo, hi, left = 0, cands.size, remaining - len(picks)
            m = min(nod - len(picks), left)
            if m == 1:  # a call without ``size`` is a few µs cheaper
                draws = [int(rng.integers(0, hi - lo))]
            else:
                draws = rng.integers(0, hi - lo, size=m).tolist()
            for j in (lo + r for r in draws):
                if free[j]:
                    free[j] = False
                    picks.append(j)
                    left -= 1
    return cands[picks].tolist()


@dataclass(frozen=True)
class DecoyAssignment:
    """Decoy lists per coefficient; they fix the key budget they consume.

    ``nd[i] = len(D[i])`` is one less than a power of two (table-friendly),
    and the per-coefficient key slice widths ``log2(nd_i + 1)`` sum to p.
    """

    D: tuple
    dsm: DecoyMethod
    seed: int

    @property
    def nd(self) -> tuple:
        return tuple(map(len, self.D))

    @property
    def N(self) -> int:
        return len(self.D)

    @property
    def key_widths(self) -> tuple:
        return tuple((n + 1).bit_length() - 1 for n in self.nd)

    @property
    def p(self) -> int:
        return sum(self.key_widths)

    def to_json_dict(self) -> dict:
        return {
            "dsm": self.dsm.value,
            "seed": int(self.seed),
            "p": int(self.p),
            "nd": [int(n) for n in self.nd],
            "D": [[int(v) for v in row] for row in self.D],
        }


def assign_decoys(
    qf: QuantizedFilter,
    p: int,
    dsm: DecoyMethod | str,
    seed: int,
) -> DecoyAssignment:
    """Distribute p key bits of decoys over all N coefficients.

    Visits coefficients in index order in rounds; round ``r`` appends
    ``2**r`` decoys per visit and every visit consumes one key bit, so
    coefficient ``i`` is visited ``p // N + (i < p % N)`` times: the
    trailing coefficients of the last round keep their previous count.

    The schedule alone fixes each coefficient's final decoy count
    (``2**visits - 1``), so a budget some candidate set cannot cover
    raises `InsufficientCandidates` before any value is drawn.
    """
    N = qf.N
    if p < N:
        raise ValueError(f"p must be at least N ({N}) so every coefficient gets a decoy")
    visits = [p // N + (i < p % N) for i in range(N)]
    coeffs = qf.coeffs.tolist()
    cands = []
    for i, h_i in enumerate(coeffs):
        c = candidate_set(h_i, int(qf.bounds_l[i]), int(qf.bounds_u[i]), qf.mbw)
        # Bit lengths first: a huge p would ask for an int of p // N bits.
        v = visits[i]
        if v > c.size.bit_length() or (1 << v) - 1 > c.size:
            need = (1 << v) - 1 if v < 64 else f"2**{v} - 1"
            raise InsufficientCandidates(
                f"p={p} gives coefficient {i} {need} decoys but only {c.size} candidates exist"
            )
        cands.append(c)
    dsm = DecoyMethod(dsm)
    rng = np.random.default_rng(seed)
    free = [np.ones(c.size, dtype=bool) for c in cands]
    D = [[] for _ in range(N)]
    for r in range(max(visits)):
        for i in range(N):
            if r < visits[i]:
                D[i] += assign_decoy_single(1 << r, cands[i], free[i], coeffs[i], dsm, rng)
    return DecoyAssignment(D=tuple(map(tuple, D)), dsm=dsm, seed=seed)
