"""Empirical indistinguishability check of the decoy selection methods.

A test-side statistic, not part of the pipeline: it replays a method
many times under fresh seeds and measures how much the drawn decoys give
away about the coefficient they hide.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats

from firlock.decoys import (
    DecoyMethod,
    assign_decoy_single,
    assign_decoys,
    candidate_set,
)
from firlock.design import QuantizedFilter, magnitude_bitwidth
from firlock.hamming import hub_element


@dataclass(frozen=True)
class IndistinguishabilityReport:
    """Empirical per-coefficient evidence of decoy/coefficient symmetry."""

    dsm: DecoyMethod
    trials: int
    entries: tuple

    def multi_decoy(self):
        return [e for e in self.entries if e["nd"] > 1]


def _draw_decoy_set(h, l, u, mbw, dsm, rng, target_nd):
    """Decoy list a coefficient would accumulate over full rounds."""
    cands = candidate_set(h, l, u, mbw)
    free = np.ones(cands.size, dtype=bool)
    D = []
    nod = 1
    while len(D) < target_nd:
        D += assign_decoy_single(nod, cands, free, h, dsm, rng)
        nod *= 2
    return D


def check_indistinguishability(
    dsm: DecoyMethod,
    qf: QuantizedFilter,
    trials: int = 1000,
    seed: int = 0,
    p: int | None = None,
) -> IndistinguishabilityReport:
    """Re-run the selection method many times and test for value leakage.

    For each multi-decoy coefficient the DSM is replayed ``trials``
    times under fresh seeds.  Random selection is scored with a
    chi-square test of the first-round draw against the uniform
    distribution over its bit-width slice; Hamming-distance selection is
    scored by how often the coefficient ends up as the unique mutual
    near-neighbor hub of its decoy set.  A two-element set carries no
    positional information either way, which the report records as a
    symmetric pair.
    """
    if trials < 1000:
        raise ValueError("at least 1000 trials are required for stable statistics")
    dsm = DecoyMethod(dsm)
    if p is None:
        p = qf.N + 3
    profile = assign_decoys(qf, p, dsm, seed)
    entries = []
    pair_index = next((i for i, n in enumerate(profile.nd) if n == 1), None)
    if pair_index is not None:
        entries.append({"index": pair_index, "nd": 1, "kind": "symmetric-pair"})
    for i, target_nd in enumerate(profile.nd):
        if target_nd <= 1:
            continue
        h = int(qf.coeffs[i])
        l, u = int(qf.bounds_l[i]), int(qf.bounds_u[i])
        entry = {"index": i, "nd": int(target_nd)}
        if dsm is DecoyMethod.HD:
            hubs = 0
            for t in range(trials):
                rng = np.random.default_rng([seed, i, t])
                D = _draw_decoy_set(h, l, u, qf.mbw, dsm, rng, target_nd)
                if hub_element([h] + D) == h:
                    hubs += 1
            entry["kind"] = "hub-frequency"
            entry["hub_frequency"] = hubs / trials
        else:
            # First-round draw is exactly uniform over the slice; later
            # draws only exclude already-used values.
            first = np.empty(trials, dtype=np.int64)
            hubs = 0
            for t in range(trials):
                rng = np.random.default_rng([seed, i, t])
                D = _draw_decoy_set(h, l, u, qf.mbw, dsm, rng, target_nd)
                first[t] = D[0]
                if hub_element([h] + D) == h:
                    hubs += 1
            cands = candidate_set(h, l, u, qf.mbw)
            b = magnitude_bitwidth(h)
            lo_b, hi_b = max(1, b - 1), min(qf.mbw, b + 1)
            mags = np.abs(cands)
            sliced = cands[(mags >= 1 << (lo_b - 1)) & (mags <= (1 << hi_b) - 1)]
            pool = sliced if sliced.size else cands
            stat, pvalue = _uniformity_chi_square(first, pool)
            entry["kind"] = "chi-square"
            entry["chi2"] = stat
            entry["pvalue"] = pvalue
            entry["hub_frequency"] = hubs / trials
        entries.append(entry)
    return IndistinguishabilityReport(dsm=dsm, trials=trials, entries=tuple(entries))


def _uniformity_chi_square(draws: np.ndarray, vals: np.ndarray, bins: int = 20):
    """Chi-square GOF of draws against uniform over the ascending pool ``vals``.

    The pool is split into up to ``bins`` near-equal-count value bins so
    the expected count per cell stays large even for wide pools.
    """
    k = min(bins, len(vals))
    pos = np.searchsorted(vals, draws)
    idx_edges = np.linspace(0, len(vals), k + 1).astype(int)
    counts, _ = np.histogram(pos, bins=idx_edges)
    expected = np.diff(idx_edges) / len(vals) * len(draws)
    stat, pvalue = stats.chisquare(counts, expected)
    return float(stat), float(pvalue)
