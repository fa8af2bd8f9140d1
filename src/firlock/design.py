"""Linear-programming design of symmetric fixed-point FIR filters.

A filter is specified by its length N (odd), band edges, ripples, and a
quantization exponent Q.  The zero-phase frequency response (ZPFR) of a
symmetric odd-length filter is linear in the half coefficient vector
``h_0 .. h_M`` (M = (N-1)/2), so the band constraints

    1 - dp <= G(w) <= 1 + dp   on the passband
      - ds <= G(w) <=     ds   on the stopband

discretized onto a frequency grid form a linear program.  The design LP
maximizes the uniform slack inside both ripple budgets; two further LPs
per coefficient minimize / maximize that coefficient over the same
constraint set, yielding the feasible interval every tap must stay in.
All real values are finally quantized to integers by ceiling after
scaling with 2**Q.

Every LP runs on a `_model` of scipy's private HiGHS extension, loaded
without ``scipy.optimize`` (`_highs`).  The bound LPs have the bits of
scipy's `linprog`, and so does the design LP on filters 1-3 (see `linprog`).
A bound LP's optimal basis, which sets those bits, is taken from a small
model of a few grid rows only when it is provably the LP's only optimal
basis; a degenerate LP is solved cold on the whole grid (`_bound_solver`).
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import PathFinder

import numpy as np

from firlock.forkmap import fork_map

__all__ = [
    "BAND_TYPES",
    "BoundSet",
    "FilterSpec",
    "FrequencyGrid",
    "InfeasibleSpec",
    "LPSolverError",
    "QuantizedFilter",
    "RealCoefficients",
    "ViolationReport",
    "build_frequency_grid",
    "coefficient_bounds",
    "design_coefficients",
    "magnitude_bitwidth",
    "quantize",
    "response_matrix",
    "strict_int",
    "verify_response",
    "verify_spec",
]

BAND_TYPES = ("low-pass", "high-pass")

# Uniform feasibility target for every discretized band constraint.
LP_RESIDUAL_TOL = 1e-8

# Default grid points per tap and band: the design LPs' grid, and the
# ten times finer grid that audits a response against its spec.
GRID_DENSITY = 16.0
VERIFY_DENSITY = 160.0

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

# `_unique_basis`: the margins a basis must clear, primal (ten times the
# tolerances above) and dual; the grid rows per tap and band its first
# model holds (every 16th row at the default grid density); and the runs
# it makes before it leaves the LP to the cold solve.  On drawn specs with
# narrow bands at both ends of [0, pi], a cold solve stopped on another
# basis where the accepted one had a dual of 4-5e-8; a dual margin of
# 1e-6 keeps every basis of filters 1-3 that passes the primal one.
_UNIQUE_MARGIN = 1e-8
_UNIQUE_DUAL_MARGIN = 1e-6
_SEED_ROWS_PER_TAP = 1
_MAX_ROUNDS = 20


class InfeasibleSpec(Exception):
    """No filter of the requested length meets the band constraints."""


class LPSolverError(RuntimeError):
    """The LP solver stopped without an optimum, or returned a point outside the constraints."""


def strict_int(value, field: str) -> int:
    """``value`` if it is an int and not a bool, else a ValueError naming ``field``.

    JSON readers use it instead of ``int(...)``, which would silently
    truncate ``1.5`` and read ``true`` as 1.
    """
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def magnitude_bitwidth(value: int) -> int:
    """Bit count of ``|value|``; zero is defined to need one bit."""
    return max(int(abs(value)).bit_length(), 1)


@dataclass(frozen=True)
class FilterSpec:
    """Band specification of a symmetric odd-length FIR filter.

    ``wp`` and ``ws`` are normalized band edges in units of pi
    rad/sample, ``dp`` and ``ds`` are linear ripple bounds, and ``Q``
    is the number of fractional bits used for integer quantization.
    ``Q`` is at most 62: every coefficient and bound lies in [-1, 1],
    so ``ceil(v * 2**Q)`` then fits in int64.
    """

    index: int
    band_type: str
    N: int
    wp: float
    ws: float
    dp: float
    ds: float
    Q: int

    def __post_init__(self):
        for name in ("index", "N", "Q"):
            strict_int(getattr(self, name), f"spec field {name}")
        if self.band_type not in BAND_TYPES:
            raise ValueError(f"band_type must be one of {BAND_TYPES}")
        if self.N < 1 or self.N % 2 == 0:
            raise ValueError("filter length N must be a positive odd integer")
        if not (0.0 < self.wp < 1.0 and 0.0 < self.ws < 1.0):
            raise ValueError("band edges must lie strictly inside (0, 1)")
        if self.band_type == "low-pass" and not self.wp < self.ws:
            raise ValueError("low-pass requires wp < ws")
        if self.band_type == "high-pass" and not self.ws < self.wp:
            raise ValueError("high-pass requires ws < wp")
        if not (0.0 < self.dp < 1.0 and 0.0 < self.ds < 1.0):
            raise ValueError("ripples must lie strictly inside (0, 1)")
        if not 1 <= self.Q <= 62:
            raise ValueError(f"quantization exponent Q must lie in [1, 62], got {self.Q}")

    @property
    def M(self) -> int:
        return (self.N - 1) // 2

    @classmethod
    def from_json_dict(cls, d: dict) -> "FilterSpec":
        return cls(
            index=d["index"],
            band_type=d["type"],
            N=d["N"],
            wp=d["wp"],
            ws=d["ws"],
            dp=d["dp"],
            ds=d["ds"],
            Q=d["Q"],
        )

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "type": self.band_type,
            "N": self.N,
            "wp": self.wp,
            "ws": self.ws,
            "dp": self.dp,
            "ds": self.ds,
            "Q": self.Q,
        }


@dataclass(frozen=True)
class FrequencyGrid:
    """Discrete angular frequencies (radians in [0, pi]) per band."""

    passband: np.ndarray
    stopband: np.ndarray


def build_frequency_grid(spec: FilterSpec, density: float = GRID_DENSITY) -> FrequencyGrid:
    """Uniform grid of ``ceil(density * N)`` points per band, edges included.

    For a low-pass spec the passband is [0, wp*pi] and the stopband
    [ws*pi, pi]; a high-pass spec swaps the band roles (stopband
    [0, ws*pi], passband [wp*pi, pi]).
    """
    if not math.isfinite(density) or density < 1:
        raise ValueError(f"grid density must be a finite number of at least 1, got {density}")
    n = math.ceil(density * spec.N)
    if spec.band_type == "low-pass":
        passband = np.linspace(0.0, spec.wp * np.pi, n)
        stopband = np.linspace(spec.ws * np.pi, np.pi, n)
    else:
        stopband = np.linspace(0.0, spec.ws * np.pi, n)
        passband = np.linspace(spec.wp * np.pi, np.pi, n)
    return FrequencyGrid(passband=passband, stopband=stopband)


def response_matrix(w, M: int) -> np.ndarray:
    """Rows of ZPFR weights: row r, column i is ``e_i * cos(w_r * (M - i))``.

    ``e_i`` doubles every term except the center tap, accounting for the
    mirrored half of the symmetric impulse response.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    i = np.arange(M + 1)
    e = np.where(i < M, 2.0, 1.0)
    return e[None, :] * np.cos(np.outer(w, M - i))


@dataclass(frozen=True)
class RealCoefficients:
    """Half of a symmetric impulse response: ``h_0 .. h_M`` in [-1, 1]."""

    h: np.ndarray


def _ranged_rows(spec: FilterSpec, grid: FrequencyGrid):
    """The band constraints as ranged rows ``lo <= R h <= hi``, one per grid point.

    Returns ``R, lo, hi, upper, lower``.  `_band_rows` splits ranged row
    k into two one-sided rows: ``R_k h <= hi_k`` at index ``upper[k]``
    and ``-R_k h <= -lo_k`` at index ``lower[k]``; per band, the upper
    halves come first, then the lower halves, passband before stopband.
    """
    M = spec.M
    n_p, n_s = len(grid.passband), len(grid.stopband)
    R = np.vstack([response_matrix(grid.passband, M), response_matrix(grid.stopband, M)])
    lo = np.concatenate([np.full(n_p, 1.0 - spec.dp), np.full(n_s, -spec.ds)])
    hi = np.concatenate([np.full(n_p, 1.0 + spec.dp), np.full(n_s, spec.ds)])
    upper = np.concatenate([np.arange(n_p), 2 * n_p + np.arange(n_s)])
    lower = upper + np.repeat([n_p, n_s], [n_p, n_s])
    return R, lo, hi, upper, lower


def _band_rows(spec: FilterSpec, grid: FrequencyGrid):
    """Stacked one-sided constraint rows A h <= b for both bands.

    Each ranged row of `_ranged_rows` gives two rows here; negation is
    exact, so ``A`` and ``b`` hold the ranged rows' bits.
    """
    R, lo, hi, upper, lower = _ranged_rows(spec, grid)
    A = np.empty((2 * len(R), R.shape[1]))
    A[upper], A[lower] = R, -R
    b = np.empty(2 * len(R))
    b[upper], b[lower] = hi, -lo
    return A, b


def _highs():
    """scipy's private HiGHS extension, loaded without ``scipy.optimize`` (46 MB, 0.4 s).

    It is entered in ``sys.modules`` under its full name, so later calls
    and a later ``import scipy.optimize`` reuse this module object
    instead of loading the extension again.
    """
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        import scipy

        found = PathFinder.find_spec("_core", [f"{scipy.__path__[0]}/optimize/_highspy"])
        if found is None:
            raise LPSolverError(f"scipy has no HiGHS extension {name}; firlock needs scipy>=1.17")
        spec = importlib.util.spec_from_file_location(name, found.origin)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _csc(A):
    """``indptr, indices, data`` of ``A``, as ``scipy.sparse.csc_array(A)`` makes them."""
    cols, rows = np.nonzero(A.T)
    indptr = np.searchsorted(cols, np.arange(A.shape[1] + 1)).astype(np.int32)
    return indptr, rows.astype(np.int32), A[rows, cols]


def _model(A, row_lower, row_upper, box):
    """A HiGHS model of ``row_lower <= A x <= row_upper``, ``box[0] <= x <= box[1]``, cost 0.

    Built as `scipy.optimize.linprog` builds its model: the same CSC
    arrays, and its options for method ``"highs"`` with ``_LP_OPTIONS``,
    except that presolve is off.  A run from a basis skips presolve
    anyway, and the design LP runs without it (see `linprog`).
    """
    highs = _highs()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = A.shape[1]
    lp.num_row_ = lp.a_matrix_.num_row_ = len(A)
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = _csc(A)
    lp.col_cost_ = np.zeros(A.shape[1])
    lp.col_lower_, lp.col_upper_ = box
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    model = highs._Highs()
    options = {
        "presolve": "off",
        "highs_debug_level": int(highs.HighsDebugLevel.kHighsDebugLevelNone),
        "log_to_console": False,
        "output_flag": False,
        "simplex_strategy": int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        **_LP_OPTIONS,
    }
    for name, value in options.items():
        if model.setOptionValue(name, value) == highs.HighsStatus.kError:
            raise LPSolverError(f"HiGHS refused option {name}={value!r}")
    if model.passModel(lp) == highs.HighsStatus.kError:
        raise LPSolverError("HiGHS refused the LP model")
    return model


def _run(model, cost, basis=None):
    """``model`` after a cold run (no basis or solution kept) at ``cost``, from ``basis`` if given."""
    model.changeColsCost(len(cost), np.arange(len(cost), dtype=np.int32), cost)
    model.clearSolver()
    if basis is not None and model.setBasis(basis) == _highs().HighsStatus.kError:
        raise LPSolverError("HiGHS refused the bound LP basis")
    model.run()
    return model


def _solution(model, infeasible: str):
    """The optimum of ``model``'s last run; else `InfeasibleSpec` (``infeasible``) or `LPSolverError`."""
    status, statuses = model.getModelStatus(), _highs().HighsModelStatus
    if status == statuses.kInfeasible:
        raise InfeasibleSpec(infeasible)
    if status != statuses.kOptimal:
        name = model.modelStatusToString(status)
        raise LPSolverError(f"LP solver failed with HiGHS model status {int(status)}: {name}")
    return model.getSolution()


def linprog(c, A, b, box):
    """The `_model` of ``A x <= b`` and ``box`` after a run that minimizes ``c @ x`` (see `_solution`).

    It is `scipy.optimize.linprog`'s model for method ``"highs"``, solved
    without the presolve that scipy runs.  On the design LPs of filters
    1-3 presolve removes nothing and the optimum has the bits of scipy's
    solve; on another LP the two runs can stop at different optima.
    """
    return _run(_model(A, np.full(len(b), -np.inf), b, box), c)


def design_coefficients(spec: FilterSpec, grid: FrequencyGrid) -> RealCoefficients:
    """Solve the margin-maximizing design LP for the half coefficients.

    A slack variable t >= 0 tightens both ripple budgets; maximizing t
    produces a strictly interior solution when one exists, which keeps
    the subsequent quantization step from breaking the constraints.

    Raises `InfeasibleSpec` if not even t = 0 is attainable.
    """
    A, b = _band_rows(spec, grid)
    n_rows, n_h = A.shape
    A_lp = np.hstack([A, np.ones((n_rows, 1))])
    c = np.zeros(n_h + 1)
    c[-1] = -1.0
    box = np.full(n_h + 1, -1.0), np.full(n_h + 1, 1.0)
    box[0][-1], box[1][-1] = 0.0, min(spec.dp, spec.ds)
    solution = _solution(
        linprog(c, A_lp, b, box),
        f"no length-{spec.N} {spec.band_type} filter satisfies the spec on this grid",
    )
    h = np.array(solution.col_value[:n_h])
    residual = float(np.max(A @ h - b))
    if residual > LP_RESIDUAL_TOL:
        raise LPSolverError(f"LP solution violates constraints by {residual:.3e}")
    return RealCoefficients(h=h)


@dataclass(frozen=True)
class BoundSet:
    """Per-coefficient feasible interval ``lower[i] <= h_i <= upper[i]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper length mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")


def _basis_statuses(codes) -> list:
    """The HiGHS basis statuses of the int ``codes``."""
    by_code = sorted(_highs().HighsBasisStatus.__members__.values(), key=int)
    return np.array(by_code, dtype=object)[codes].tolist()


def _unique_basis(R, lo, hi, box, cost, n_pass: int):
    """The unique optimal basis of ``min cost @ h`` s.t. ``lo <= R h <= hi``, ``box``; else None.

    The basis is found on a small ranged model of each band's last row
    and every k-th row, k such that each band gives about
    `_SEED_ROWS_PER_TAP` rows per tap (``n_pass`` passband rows come
    first).  After each run, every run of consecutive rows of one band
    whose slack ``R h`` to ``lo`` or ``hi`` is below `_UNIQUE_MARGIN`
    sends its row of least slack to the model if it is not there yet, and
    the live model runs again from its basis.  Once no row is missing,
    the rows left out count as basic, and the basis is returned, as a
    basis of all of ``R``'s rows, only if it is nondegenerate by the
    margins: every basic row and column lies more than `_UNIQUE_MARGIN`
    inside its bounds, and every nonbasic one has a dual of more than
    `_UNIQUE_DUAL_MARGIN`.  Such a basis is optimal for the full LP and
    no other basis is, so a cold solve of the full LP ends on it too.
    None stands for any other end: a status other than optimal, a
    solution of the wrong shape, a margin not met, or `_MAX_ROUNDS` runs
    without the rows complete.
    """
    highs = _highs()
    basic = int(highs.HighsBasisStatus.kBasic)
    n_rows, n = R.shape
    stride = max(n_pass // (_SEED_ROWS_PER_TAP * (2 * n - 1)), 1)
    in_model = np.zeros(n_rows, dtype=bool)
    for start, stop in ((0, n_pass), (n_pass, n_rows)):
        in_model[start:stop:stride] = in_model[stop - 1] = True
    rows = np.flatnonzero(in_model)
    model = _model(R[rows], lo[rows], hi[rows], box)
    model.changeColsCost(n, np.arange(n, dtype=np.int32), cost)
    for _ in range(_MAX_ROUNDS):
        model.run()
        if model.getModelStatus() != highs.HighsModelStatus.kOptimal:
            return None
        solution = model.getSolution()
        h = np.asarray(solution.col_value)
        if h.shape != (n,):
            return None
        g = R @ h
        slack = np.minimum(g - lo, hi - g)
        low = np.flatnonzero(slack < _UNIQUE_MARGIN)
        runs = np.split(low, np.flatnonzero((np.diff(low) != 1) | (low[1:] == n_pass)) + 1)
        least = np.array([run[np.argmin(slack[run])] for run in runs if len(run)], dtype=np.intp)
        new = least[~in_model[least]]
        if len(new):
            in_model[new] = True
            rows = np.append(rows, new)
            starts, index, values = _csc(R[new].T)
            model.addRows(len(new), lo[new], hi[new], len(values), starts, index, values)
            continue
        basis = model.getBasis()
        found = np.full(n_rows, basic, dtype=np.int8)
        found[rows] = np.fromiter(map(int, basis.row_status), np.int8, len(rows))
        cols = np.fromiter(map(int, basis.col_status), np.int8, n)
        slack = np.concatenate([slack, np.minimum(h - box[0], box[1] - h)])
        primal = slack[np.concatenate([found, cols]) == basic]
        dual = np.abs(np.concatenate([solution.row_dual, solution.col_dual]))
        dual = dual[np.concatenate([found[rows], cols]) != basic]
        if not (np.all(primal > _UNIQUE_MARGIN) and np.all(dual > _UNIQUE_DUAL_MARGIN)):
            return None
        basis.row_status = _basis_statuses(found)
        return basis
    return None


def _bound_solver(spec: FilterSpec, grid: FrequencyGrid):
    """``solve((i, sign))``: the minimum of ``sign * h_i`` s.t. ``A h <= b``, ``-1 <= h <= 1``.

    ``A h <= b`` are the rows of `_band_rows`.  Every call sets the cost
    to ``sign * e_i`` and finds an optimal basis of the ranged LP, one
    row ``lo <= R h <= hi`` per grid point:

    * `_unique_basis` finds it on a small model of a few grid rows,
      built for the call, when the basis is provably the only optimal
      one, so that every way of solving the LP ends on it;
    * otherwise the ranged model built here solves the whole LP cold (no
      basis or solution kept from the last call).  A degenerate LP needs
      this: which of its optimal bases it ends on, and so the bits of its
      optimum, depend on how it is solved.

    The original model built here, the LP that `linprog` builds, then
    starts cold from that basis mapped onto the row pairs.  From an
    optimal basis HiGHS does what a fresh `scipy.optimize.linprog` run,
    presolve on, does after postsolve, so every optimum has the bits of
    such a solve.

    A ranged row at its upper (lower) bound makes its upper (lower)
    half nonbasic at that half's upper bound, the other half basic; a
    basic ranged row makes both halves basic.  Columns keep their status.
    Like scipy's `linprog`, a solve fails unless HiGHS reports an
    optimum whose point meets the rows and the box to the feasibility
    tolerance.
    """
    R, lo, hi, upper, lower = _ranged_rows(spec, grid)
    A, b = _band_rows(spec, grid)
    box = np.full(spec.M + 1, -1.0), np.full(spec.M + 1, 1.0)
    ranged = _model(R, lo, hi, box)
    original = _model(A, np.full(len(A), -np.inf), b, box)
    S = _highs().HighsBasisStatus
    infeasible = "bound LP infeasible; design the filter first"

    def solve(task) -> float:
        i, sign = task
        cost = np.zeros(spec.M + 1)
        cost[i] = sign
        basis = _unique_basis(R, lo, hi, box, cost, len(grid.passband))
        if basis is None:
            _solution(_run(ranged, cost), infeasible)
            basis = ranged.getBasis()
        found = np.fromiter(map(int, basis.row_status), np.int8, len(R))
        rows = np.full(len(A), int(S.kBasic))
        rows[upper[found == int(S.kUpper)]] = int(S.kUpper)
        rows[lower[found == int(S.kLower)]] = int(S.kUpper)
        basis.row_status = _basis_statuses(rows)
        solution = _solution(_run(original, cost, basis), infeasible)
        violation = max(
            np.max(np.asarray(solution.row_value) - b), np.max(np.abs(solution.col_value)) - 1.0
        )
        if not violation <= _LP_OPTIONS["primal_feasibility_tolerance"]:
            raise LPSolverError(f"LP solution violates constraints by {violation:.3e}")
        return original.getInfo().objective_function_value

    return solve


def coefficient_bounds(spec: FilterSpec, grid: FrequencyGrid) -> BoundSet:
    """Extremal value of each coefficient over the feasible polytope.

    For every i, two LPs over the plain band constraints (no margin
    slack, box [-1, 1]) minimize h_i and -h_i; the optima are the
    tightest interval any feasible symmetric filter confines h_i to.

    The 2(M+1) LPs are independent and each runs on one core, so they
    are solved by `fork_map`'s workers.  The two HiGHS models of
    `_bound_solver` are built here once, before the fork, so each worker
    inherits its own copies and solves all of its tasks on them.  Each
    LP finds its optimal basis on a small model of a few grid rows when
    no other basis is optimal (`_unique_basis`; 27 / 55 / 92 of filter
    1 / 2 / 3's 30 / 60 / 106 LPs), else cold on the ranged model (one
    row per grid point, half the rows).  It finishes on the original LP
    from that basis, with the bits of scipy's `linprog`.  No model keeps
    a basis from one LP to the next, so no optimum depends on which
    worker solves it or after what.  Only the index of the task
    ``(i, sign)`` and the optimum cross between the processes.
    """
    n = spec.M + 1
    tasks = [(i, sign) for i in range(n) for sign in (1, -1)]
    optima = np.array(fork_map(_bound_solver(spec, grid), tasks))
    return BoundSet(lower=optima[0::2], upper=-optima[1::2])


@dataclass(frozen=True)
class QuantizedFilter:
    """Integer filter in units of 2**-Q, with per-tap integer bounds.

    All three arrays cover the full length N and are symmetric; N and
    ``mbw``, the widest coefficient's magnitude bit-width, are derived
    from the coefficients.
    """

    coeffs: np.ndarray
    bounds_l: np.ndarray
    bounds_u: np.ndarray
    Q: int

    def __post_init__(self):
        n, n_l, n_u = len(self.coeffs), len(self.bounds_l), len(self.bounds_u)
        if not n == n_l == n_u:
            raise ValueError(f"quantized filter: {n} coefficients but {n_l}/{n_u} lower/upper bounds")

    @property
    def N(self) -> int:
        return len(self.coeffs)

    @cached_property
    def mbw(self) -> int:
        return max(map(magnitude_bitwidth, self.coeffs.tolist()), default=0)

    @property
    def M(self) -> int:
        return (self.N - 1) // 2

    def half(self) -> np.ndarray:
        return self.coeffs[: self.M + 1]

    def to_json_dict(self) -> dict:
        return {
            "N": int(self.N),
            "Q": int(self.Q),
            "coeffs": [int(v) for v in self.coeffs],
            "bounds_l": [int(v) for v in self.bounds_l],
            "bounds_u": [int(v) for v in self.bounds_u],
            "mbw": int(self.mbw),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QuantizedFilter":
        for name in ("coeffs", "bounds_l", "bounds_u"):
            for v in d[name]:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"quantized filter {name} must hold integers, got {v!r}")
                if not -(1 << 63) <= v < 1 << 63:
                    raise ValueError(
                        f"quantized filter {name} entry {v} does not fit in 64 signed bits"
                    )
        qf = cls(
            coeffs=np.asarray(d["coeffs"], dtype=np.int64),
            bounds_l=np.asarray(d["bounds_l"], dtype=np.int64),
            bounds_u=np.asarray(d["bounds_u"], dtype=np.int64),
            Q=strict_int(d["Q"], "quantized filter Q"),
        )
        if strict_int(d["mbw"], "quantized filter mbw") != qf.mbw:
            raise ValueError(
                f"quantized filter: mbw={d['mbw']} but the widest coefficient has {qf.mbw} bits"
            )
        if qf.N != strict_int(d["N"], "quantized filter N"):
            raise ValueError("coefficient count does not match N")
        return qf


def _mirror(half: np.ndarray) -> np.ndarray:
    return np.concatenate([half, half[-2::-1]])


def quantize(coeffs: RealCoefficients, bounds: BoundSet, Q: int) -> QuantizedFilter:
    """Map every real value v to ``ceil(v * 2**Q)`` and mirror to length N.

    The ceiling rule is applied uniformly to the coefficients and to
    both bounds, so a decoy-free integer interval per tap is simply
    ``[bounds_l[i], bounds_u[i]]``.
    """
    scale = 1 << Q
    qh = np.ceil(coeffs.h * scale).astype(np.int64)
    ql = np.ceil(bounds.lower * scale).astype(np.int64)
    qu = np.ceil(bounds.upper * scale).astype(np.int64)
    return QuantizedFilter(
        coeffs=_mirror(qh),
        bounds_l=_mirror(ql),
        bounds_u=_mirror(qu),
        Q=Q,
    )


@dataclass(frozen=True)
class ViolationReport:
    """Band-constraint audit of a response against its spec."""

    max_passband_deviation: float
    max_stopband_deviation: float
    passband_violations: int
    stopband_violations: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.passband_violations == 0 and self.stopband_violations == 0

    def to_json_dict(self) -> dict:
        return {
            "max_passband_deviation": self.max_passband_deviation,
            "max_stopband_deviation": self.max_stopband_deviation,
            "passband_violations": self.passband_violations,
            "stopband_violations": self.stopband_violations,
            "tol": self.tol,
            "ok": self.ok,
        }


def verify_response(
    half, spec: FilterSpec, grid: FrequencyGrid, tol: float = LP_RESIDUAL_TOL
) -> ViolationReport:
    """Check the ZPFR of a real half coefficient vector on a grid."""
    half = np.asarray(half, dtype=float)
    gp = response_matrix(grid.passband, spec.M) @ half
    gs = response_matrix(grid.stopband, spec.M) @ half
    pass_dev = np.abs(gp - 1.0)
    stop_dev = np.abs(gs)
    return ViolationReport(
        max_passband_deviation=float(pass_dev.max()),
        max_stopband_deviation=float(stop_dev.max()),
        passband_violations=int(np.sum(pass_dev > spec.dp + tol)),
        stopband_violations=int(np.sum(stop_dev > spec.ds + tol)),
        tol=tol,
    )


def verify_spec(qf: QuantizedFilter, spec: FilterSpec, grid: FrequencyGrid) -> ViolationReport:
    """Check the scaled quantized response G(w)/2**Q against the spec."""
    return verify_response(qf.half() / (1 << qf.Q), spec, grid)
