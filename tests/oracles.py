"""Independent oracles the tests check the production paths against.

No oracle computes its answer the way the path it checks does: the
simplex solver is a dense two-phase textbook tableau (production builds
its HiGHS models on scipy's private ``_highspy._core`` extension, loaded
without ``scipy.optimize``), the feasibility probe is plain lattice
enumeration, the wrong-key audit builds each band's DFT matrix in one
expression, and the constant-recovery oracle inverts the netlist truth
table outright.  `numpy_scan` is the LSB-first scan without bit slicing:
each bit checked with an int64 product over its lanes.
`pack_value_bits_per_bit` packs lane masks one bit plane at a time, and
`reference_schedule` lists an evaluator schedule from one forward and
one backward pass over the gates.  `per_draw_decoys` draws a visit's
decoys with one generator call per draw, redraws included.  The word-level product `tmcm_multiply` (the selected
constant times x, in exact integers) is what the gate-level lowering
must equal, and `reference_convolution` (``np.convolve``) is what the
folded filter must equal.  `const_mask` holds one input bit constant
across all lanes of a `PackedEvaluator` run.
"""

import numpy as np

from firlock.attack import NoConsistentBit
from firlock.decoys import DecoyMethod, InsufficientCandidates
from firlock.design import magnitude_bitwidth
from firlock.hamming import hamming_to
from firlock.netlist import PackedEvaluator, pack_value_bits
from firlock.tmcm import ObfuscatedTMCM, tmcm_select


def tmcm_multiply(tmcm: ObfuscatedTMCM, i: int, key: int, x: int) -> int:
    """Constant that the key-bus int ``key`` selects, times x, in exact integer arithmetic."""
    half = 1 << (tmcm.ibw - 1)
    if not -half <= x < half:
        raise ValueError(f"input {x} does not fit in {tmcm.ibw} signed bits")
    return tmcm_select(tmcm, i, key) * int(x)


def reference_convolution(coeffs, inputs) -> np.ndarray:
    """Direct convolution ``y(j) = sum_i coeffs[i] * x(j - i)``; the oracle."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    xs = np.asarray(inputs, dtype=np.int64)
    if len(xs) == 0:
        return np.empty(0, dtype=np.int64)
    return np.convolve(xs, coeffs)[: len(xs)]


def const_mask(bit: int, width: int) -> int:
    """All-lanes mask for a constant input bit."""
    return ((1 << width) - 1) if bit else 0


def simplex_solve(c, A, b, lo, hi, tol=1e-9, max_iter=200000):
    """Minimize c @ x subject to A @ x <= b and lo <= x <= hi.

    Dense two-phase primal simplex with Bland's rule on a full tableau
    (objective row included, so pivots update everything uniformly).
    Returns (status, x, objective), status "optimal" or "infeasible".
    """
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    n = len(c)

    # Shift to y = x - lo >= 0; upper box bounds become ordinary rows.
    A2 = np.vstack([A, np.eye(n)])
    b2 = np.concatenate([b - A @ lo, hi - lo])
    m = len(b2)

    flip = b2 < 0
    A2[flip] *= -1.0
    b2 = np.abs(b2)
    slack_sign = np.where(flip, -1.0, 1.0)
    art_rows = np.where(flip)[0]
    n_art = len(art_rows)
    n_cols = n + m + n_art

    T = np.zeros((m + 1, n_cols + 1))
    T[:m, :n] = A2
    T[:m, n : n + m] = np.diag(slack_sign)
    for j, r in enumerate(art_rows):
        T[r, n + m + j] = 1.0
    T[:m, -1] = b2

    basis = np.empty(m, dtype=int)
    basis[~flip] = n + np.where(~flip)[0]
    basis[flip] = n + m + np.arange(n_art)

    def pivot(row, col):
        T[row] /= T[row, col]
        for r in range(m + 1):
            if r != row and T[r, col] != 0.0:
                T[r] -= T[r, col] * T[row]
        basis[row] = col

    def set_objective(cost):
        T[m, :] = 0.0
        T[m, : len(cost)] = cost
        for r in range(m):
            cb = T[m, basis[r]]
            if cb != 0.0:
                T[m] -= cb * T[r]

    def optimize(allowed_cols):
        for _ in range(max_iter):
            entering = -1
            for j in range(allowed_cols):
                if T[m, j] < -tol:
                    entering = j
                    break
            if entering < 0:
                return
            rows = [r for r in range(m) if T[r, entering] > tol]
            if not rows:
                raise RuntimeError("unbounded LP in oracle")
            ratios = {r: T[r, -1] / T[r, entering] for r in rows}
            best = min(ratios.values())
            leaving = min(
                (r for r in rows if ratios[r] <= best + tol), key=lambda r: basis[r]
            )
            pivot(leaving, entering)
        raise RuntimeError("oracle simplex iteration limit reached")

    if n_art:
        phase1 = np.zeros(n_cols)
        phase1[n + m :] = 1.0
        set_objective(phase1)
        optimize(n_cols)
        if -T[m, -1] > 1e-7:
            return "infeasible", None, None
        # Drive leftover artificials out of the basis (or drop dead rows).
        for r in range(m):
            if basis[r] >= n + m:
                for j in range(n + m):
                    if abs(T[r, j]) > tol:
                        pivot(r, j)
                        break

    set_objective(c)
    optimize(n + m)
    y = np.zeros(n_cols)
    for r in range(m):
        if basis[r] < n_cols:
            y[basis[r]] = T[r, -1]
    x = y[:n] + lo
    return "optimal", x, float(c @ x)


def lattice_infeasibility(spec, grid, steps=41):
    """Smallest max-band-violation over a coarse lattice of half vectors.

    Exhaustive enumeration over a [-1, 1]^(M+1) lattice; a positive
    return value on a length-3 filter means no lattice point meets the
    spec, supporting an infeasibility verdict.
    """
    from firlock.design import response_matrix

    M = spec.M
    axes = [np.linspace(-1.0, 1.0, steps)] * (M + 1)
    Ap = response_matrix(grid.passband, M)
    As = response_matrix(grid.stopband, M)
    best = np.inf
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, M + 1)
    gp = mesh @ Ap.T
    gs = mesh @ As.T
    viol = np.maximum(
        np.max(np.abs(gp - 1.0), axis=1) - spec.dp,
        np.max(np.abs(gs), axis=1) - spec.ds,
    )
    return float(viol.min())


def direct_dft_audit(taps, spec, grid, curve_w):
    """Per tap row: passband and stopband deviation, band excess, ZPFR curve.

    The audit written out directly: each band's complex DFT matrix in
    one expression, ``np.exp(-1j * np.outer(w, n))``, and one
    matrix-vector product per row of ``taps`` (integers in units of
    2**-Q).  Floats in the order of one key at a time.
    """
    from firlock.design import response_matrix

    n = np.arange(spec.N)
    phase_pass = np.exp(-1j * np.outer(grid.passband, n))
    phase_stop = np.exp(-1j * np.outer(grid.stopband, n))
    curve_rows = response_matrix(curve_w, spec.M)
    scale = 1 << spec.Q
    audits = []
    for row in taps:
        pass_dev = float(np.max(np.abs(np.abs(phase_pass @ (row / scale)) - 1.0)))
        stop_dev = float(np.max(np.abs(phase_stop @ (row / scale))))
        excess = float(max(pass_dev - spec.dp, stop_dev - spec.ds))
        sym = (row + row[::-1]) / 2.0
        audits.append((pass_dev, stop_dev, excess, curve_rows @ (sym[: spec.M + 1] / scale)))
    return audits


def invert_truth_table(nl, i, k_bits):
    """All constants whose full truth table matches f_r(i, k, .).

    Exhaustive over every constant candidate and every input word;
    only tractable at reduced widths.
    """
    meta = nl.meta
    cbw, ibw = meta["cbw"], meta["ibw"]
    width = 1 << ibw
    ev = PackedEvaluator(nl)
    xs = np.arange(width, dtype=np.uint64)
    x_masks = pack_value_bits(xs, ibw)
    i_masks = [const_mask((i >> t) & 1, width) for t in range(len(nl.inputs["i"]))]
    k_masks = [const_mask((k_bits >> t) & 1, width) for t in range(len(nl.inputs["k"]))]
    observed = ev.run({"i": i_masks, "k": k_masks, "x": x_masks}, width)
    total = np.uint64((1 << (cbw + ibw)) - 1)
    xs_signed = xs.astype(np.int64) - ((xs >> np.uint64(ibw - 1)).astype(np.int64) << ibw)
    matches = []
    for cand in range(1 << cbw):
        signed = cand - (1 << cbw) if cand & (1 << (cbw - 1)) else cand
        prods = (np.int64(signed) * xs_signed).astype(np.uint64) & total
        if pack_value_bits(prods, cbw + ibw) == observed:
            matches.append(signed)
    return matches


def numpy_scan(observed, xs_signed, cbw: int) -> int:
    """Bits 0..cbw-1 of the constant whose products with ``xs_signed``
    (lane n's x, read signed) give the product bit masks ``observed``.

    Bit j is checked on the first 2**(j+1) lanes against bit j of
    partial * x, partial being bits 0..j-1, in int64: as is (bit 0) or
    flipped on the odd lanes (bit 1).  Raises `NoConsistentBit` when
    neither matches.
    """
    partial = 0
    for j in range(cbw):
        xs = np.asarray(xs_signed, dtype=np.int64)[: 1 << (j + 1)]
        lanes = (1 << len(xs)) - 1
        bits = ((np.int64(partial) * xs) >> np.int64(j)) & np.int64(1)
        bit_j = int.from_bytes(np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little")
        observed_j = observed[j] & lanes
        if bit_j == observed_j:
            continue
        if bit_j ^ (lanes // 3 << 1) != observed_j:
            raise NoConsistentBit(f"no constant bit {j} reproduces f_r")
        partial |= 1 << j
    return partial


def pack_value_bits_per_bit(values, width: int) -> list:
    """Lane masks of ``width``-bit values, one bit plane at a time: mask t
    holds bit t of value n, read as a 64-bit two's-complement word, at
    bit n; masks from bit 64 on are 0."""
    words = np.asarray(values).astype(np.uint64)
    masks = []
    for t in range(width):
        bits = (words >> np.uint64(t)) & np.uint64(1) if t < 64 else np.zeros(0)
        masks.append(int.from_bytes(np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little"))
    return masks


def reference_schedule(nl, varying: int, out_bits) -> tuple:
    """``(held, steps, outputs)`` as `PackedEvaluator` schedules a run whose
    varying input bits are ``varying`` (bit t for net t + 2), reading
    ``out_bits``: steps are the nets of the gates that read a varying bit
    and feed a requested output, held the other gates the steps' operands
    and the outputs name, both in net-id order."""
    first = nl.first_gate_id
    operands = [()] * first + [gate[1:] for gate in nl.gates]
    varies = [2 <= nid < first and bool((varying >> (nid - 2)) & 1) for nid in range(first)]
    for ops in operands[first:]:
        varies.append(any(varies[o] for o in ops))
    outputs = [nl.outputs[t] for t in out_bits]
    feeds = [False] * len(operands)
    for nid in outputs:
        feeds[nid] = True
    for nid in range(len(operands) - 1, first - 1, -1):
        if feeds[nid]:
            for o in operands[nid]:
                feeds[o] = True
    steps = [nid for nid in range(first, len(operands)) if varies[nid] and feeds[nid]]
    read = {o for nid in steps for o in operands[nid]} | set(outputs)
    held = sorted(nid for nid in read if nid >= first and not varies[nid])
    return held, steps, outputs


def per_draw_decoys(nod, cands, free, h_i, dsm, rng) -> list:
    """`firlock.decoys.assign_decoy_single` with one ``rng.integers`` call per draw.

    An ``hd`` pick is uniform over the free candidates at the smallest
    distance that has any; an ``rd`` pick is uniform over the magnitude
    slice, redrawn while it hits a taken entry, and over the whole array
    once the slice is used up.  The picks are cleared in ``free`` one
    at a time.
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
    if dsm is DecoyMethod.HD:
        dist = hamming_to(cands, h_i)
        d, pool = 0, []
    else:
        b = magnitude_bitwidth(h_i)
        mags = (1 << max(b - 2, 0), 1 << (b + 1))
        lo, hi = np.searchsorted(cands, mags if h_i >= 0 else (1 - mags[1], 1 - mags[0])).tolist()
        left = int(np.count_nonzero(free[lo:hi]))
    picked = []
    for _ in range(nod):
        if dsm is DecoyMethod.HD:
            while not pool:
                pool = np.flatnonzero(free & (dist == d)).tolist()
                d += 1
            j = pool.pop(rng.integers(0, len(pool)))
        else:
            if not left:
                lo, hi = 0, cands.size
            j = lo + rng.integers(0, hi - lo)
            while not free[j]:
                j = lo + rng.integers(0, hi - lo)
            left -= 1
        free[j] = False
        picked.append(int(cands[j]))
    return picked
