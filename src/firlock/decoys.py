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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from firlock.design import QuantizedFilter, magnitude_bitwidth
from firlock.hamming import hamming_to

__all__ = [
    "CandidateSet",
    "DecoyAssignment",
    "DecoyMethod",
    "EmptyCandidateSet",
    "InsufficientCandidates",
    "assign_decoy_single",
    "assign_decoys",
    "candidate_set",
]


class DecoyMethod(str, Enum):
    HD = "hd"
    RD = "rd"
    HDRD = "hdrd"

    @classmethod
    def parse(cls, text: str) -> "DecoyMethod":
        return cls(text.strip().lower())


class EmptyCandidateSet(Exception):
    """Sign and range constraints leave no legal decoy value."""


class InsufficientCandidates(Exception):
    """Fewer unused candidates remain than decoys requested."""


@dataclass(frozen=True)
class CandidateSet:
    """Legal decoy values as a union of closed integer intervals.

    Kept in interval form so membership, counting, and uniform sampling
    never require materializing the full set; `values` does materialize
    it for the Hamming-distance scans, which only ever run on sets
    bounded by 2**mbw entries.
    """

    intervals: tuple

    @property
    def size(self) -> int:
        return sum(b - a + 1 for a, b in self.intervals)

    def __contains__(self, v) -> bool:
        v = int(v)
        return any(a <= v <= b for a, b in self.intervals)

    def values(self) -> np.ndarray:
        if not self.intervals:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(a, b + 1, dtype=np.int64) for a, b in self.intervals])

    def sample(self, rng: np.random.Generator) -> int:
        r = int(rng.integers(0, self.size))
        for a, b in self.intervals:
            n = b - a + 1
            if r < n:
                return a + r
            r -= n
        raise AssertionError("interval bookkeeping is inconsistent")

    def restrict_magnitude(self, lo: int, hi: int) -> "CandidateSet":
        """Subset with |v| in [lo, hi]."""
        out = []
        for a, b in self.intervals:
            if a > 0:
                aa, bb = max(a, lo), min(b, hi)
            else:
                aa, bb = max(a, -hi), min(b, -lo)
            if aa <= bb:
                out.append((aa, bb))
        return CandidateSet(intervals=tuple(out))


def candidate_set(h_i: int, l_i: int, u_i: int, mbw: int) -> CandidateSet:
    """All legal decoy values for a coefficient with bounds [l_i, u_i].

    A candidate shares the coefficient's sign (a zero coefficient counts
    as positive), has magnitude in [1, 2**mbw - 1], and lies strictly
    outside the bound interval.
    """
    if not (l_i <= h_i <= u_i):
        raise ValueError("coefficient must lie within its bounds")
    top = (1 << mbw) - 1
    lo, hi = (1, top) if h_i >= 0 else (-top, -1)
    intervals = []
    if l_i - 1 >= lo:
        intervals.append((lo, min(hi, l_i - 1)))
    if u_i + 1 <= hi:
        intervals.append((max(lo, u_i + 1), hi))
    cs = CandidateSet(intervals=tuple(intervals))
    if cs.size == 0:
        raise EmptyCandidateSet(
            f"no sign-matching value of at most {mbw} bits lies outside [{l_i}, {u_i}]"
        )
    return cs


def _pick_min_hamming(cands: CandidateSet, taken: set, h_i: int, rng) -> int:
    vals = cands.values()
    if taken:
        vals = vals[~np.isin(vals, np.fromiter(taken, dtype=np.int64, count=len(taken)))]
    dist = hamming_to(vals, h_i)
    best = vals[dist == dist.min()]
    return int(best[rng.integers(0, len(best))])


def _pick_random_sliced(cands: CandidateSet, taken: set, h_i: int, mbw: int, rng) -> int:
    b = magnitude_bitwidth(h_i)
    lo_b, hi_b = max(1, b - 1), min(mbw, b + 1)
    sliced = cands.restrict_magnitude(1 << (lo_b - 1), (1 << hi_b) - 1)
    pool = sliced if sliced.size > sum(1 for t in taken if t in sliced) else cands
    while True:
        v = pool.sample(rng)
        if v not in taken:
            return v


def assign_decoy_single(
    nod: int,
    h_i: int,
    l_i: int,
    u_i: int,
    existing,
    dsm: DecoyMethod,
    rng: np.random.Generator,
    mbw: int,
):
    """Append ``nod`` fresh decoys for one coefficient.

    Returns the updated ``(nd_i, D_i)`` pair without mutating
    ``existing``.  Raises `InsufficientCandidates` when fewer than
    ``nod`` unused values remain.
    """
    if nod < 1:
        raise ValueError("nod must be at least 1")
    cands = candidate_set(int(h_i), int(l_i), int(u_i), mbw)
    taken = set(int(v) for v in existing)
    if cands.size - sum(1 for t in taken if t in cands) < nod:
        raise InsufficientCandidates(
            f"{nod} decoys requested but only "
            f"{cands.size - sum(1 for t in taken if t in cands)} candidates remain"
        )
    if dsm is DecoyMethod.HDRD:
        mode = DecoyMethod.HD if (not taken and nod == 1) else DecoyMethod.RD
    else:
        mode = dsm
    picked = []
    for _ in range(nod):
        if mode is DecoyMethod.HD:
            v = _pick_min_hamming(cands, taken, int(h_i), rng)
        else:
            v = _pick_random_sliced(cands, taken, int(h_i), mbw, rng)
        picked.append(v)
        taken.add(v)
    new_list = list(existing) + picked
    return len(new_list), new_list


@dataclass(frozen=True)
class DecoyAssignment:
    """Decoy lists per coefficient plus the key budget they consume.

    ``nd[i] + 1`` is always a power of two (table-friendly), and the
    per-coefficient key slice widths ``ceil(log2(nd_i + 1))`` sum to p.
    """

    nd: tuple
    D: tuple
    p: int
    dsm: DecoyMethod
    seed: int

    def __post_init__(self):
        if sum(self.key_widths) != self.p:
            raise ValueError("key slice widths do not sum to p")

    @property
    def N(self) -> int:
        return len(self.nd)

    @property
    def key_widths(self) -> tuple:
        return tuple((n + 1).bit_length() - 1 for n in self.nd)

    def to_json_dict(self) -> dict:
        return {
            "dsm": self.dsm.value,
            "seed": int(self.seed),
            "p": int(self.p),
            "nd": [int(n) for n in self.nd],
            "D": [[int(v) for v in row] for row in self.D],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DecoyAssignment":
        return cls(
            nd=tuple(int(n) for n in d["nd"]),
            D=tuple(tuple(int(v) for v in row) for row in d["D"]),
            p=int(d["p"]),
            dsm=DecoyMethod.parse(d["dsm"]),
            seed=int(d["seed"]),
        )


def assign_decoys(
    qf: QuantizedFilter,
    p: int,
    dsm: DecoyMethod,
    seed: int,
) -> DecoyAssignment:
    """Distribute p key bits of decoys over all N coefficients.

    Visits coefficients in index order in rounds; round ``r`` appends
    ``2**r`` decoys per visit and every visit consumes one key bit.  The
    loop stops the instant the budget is spent, so the trailing
    coefficients of the last round keep their previous decoy count.

    The schedule alone fixes each coefficient's final decoy count
    (``2**visits - 1``), so a budget some candidate set cannot cover
    raises `InsufficientCandidates` before any value is drawn.
    """
    N = qf.N
    if p < N:
        raise ValueError(f"p must be at least N ({N}) so every coefficient gets a decoy")
    for i in range(N):
        need = (1 << (p // N + (i < p % N))) - 1
        cands = candidate_set(int(qf.coeffs[i]), int(qf.bounds_l[i]), int(qf.bounds_u[i]), qf.mbw)
        if need > cands.size:
            raise InsufficientCandidates(
                f"p={p} gives coefficient {i} {need} decoys but only {cands.size} candidates exist"
            )
    dsm = DecoyMethod(dsm)
    rng = np.random.default_rng(seed)
    nd = [0] * N
    D = [[] for _ in range(N)]
    nok = 0
    noi = 0
    while nok < p:
        nod = 1 << noi
        for i in range(N):
            nd[i], D[i] = assign_decoy_single(
                nod, int(qf.coeffs[i]), int(qf.bounds_l[i]), int(qf.bounds_u[i]),
                D[i], dsm, rng, qf.mbw,
            )
            nok += 1
            if nok == p:
                break
        noi += 1
    return DecoyAssignment(
        nd=tuple(nd), D=tuple(tuple(row) for row in D), p=p, dsm=dsm, seed=seed
    )
