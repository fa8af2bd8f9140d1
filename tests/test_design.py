"""Filter design: grids, ZPFR, LP design, bounds, quantization, verification."""

import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import lattice_infeasibility, simplex_solve

import firlock.design
from firlock.design import (
    BAND_TYPES,
    FilterSpec,
    InfeasibleSpec,
    LPSolverError,
    RealCoefficients,
    _band_rows,
    _bound_solver,
    _LP_OPTIONS,
    _csc,
    _least_slack_rows,
    _lp,
    _model,
    _ranged_rows,
    build_frequency_grid,
    coefficient_bounds,
    design_coefficients,
    magnitude_bitwidth,
    quantize,
    response_matrix,
    verify_response,
    verify_spec,
)

from conftest import quantization_deviation_bound, reference_spec


def scipy_linprog(c, A, b, bounds):
    """The optimum of scipy's own `linprog`, the bit oracle of firlock's HiGHS models."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs", options=_LP_OPTIONS)
    assert res.status == 0, res.message
    return res


def lowpass(N=3, wp=0.5, ws=0.6, dp=0.1, ds=0.1, Q=8, index=0):
    return FilterSpec(index=index, band_type="low-pass", N=N, wp=wp, ws=ws, dp=dp, ds=ds, Q=Q)


# --- spec validation and serialization ---------------------------------

def test_spec_json_round_trip_field_names():
    spec = reference_spec(1)
    d = spec.to_json_dict()
    assert d == {
        "index": 1, "type": "low-pass", "N": 29,
        "wp": 0.3, "ws": 0.5, "dp": 0.00316, "ds": 0.00316, "Q": 14,
    }
    assert FilterSpec.from_json_dict(d) == spec


@pytest.mark.parametrize(
    "kwargs",
    [
        {"N": 28},
        {"N": -3},
        {"wp": 0.6, "ws": 0.5},          # low-pass needs wp < ws
        {"dp": 0.0},
        {"ds": 1.5},
        {"wp": 0.0},
    ],
)
def test_spec_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        lowpass(**kwargs)


def test_highpass_requires_ws_below_wp():
    FilterSpec(index=0, band_type="high-pass", N=5, wp=0.8, ws=0.7, dp=0.1, ds=0.1, Q=8)
    with pytest.raises(ValueError):
        FilterSpec(index=0, band_type="high-pass", N=5, wp=0.7, ws=0.8, dp=0.1, ds=0.1, Q=8)


# --- frequency grid -----------------------------------------------------

def test_grid_lowpass_example_points():
    grid = build_frequency_grid(lowpass(N=3, wp=0.5, ws=0.6), density=1)
    np.testing.assert_allclose(grid.passband, [0.0, 0.25 * np.pi, 0.5 * np.pi])
    np.testing.assert_allclose(grid.stopband, [0.6 * np.pi, 0.8 * np.pi, np.pi])


def test_grid_reference_density_point_count():
    grid = build_frequency_grid(reference_spec(1), density=16)
    assert len(grid.passband) == 464 and len(grid.stopband) == 464


def test_grid_highpass_band_roles():
    grid = build_frequency_grid(reference_spec(3))
    assert grid.stopband[0] == 0.0
    assert np.isclose(grid.stopband[-1], 0.7 * np.pi)
    assert np.isclose(grid.passband[0], 0.8 * np.pi)
    assert np.isclose(grid.passband[-1], np.pi)


def test_grid_strictly_increasing():
    grid = build_frequency_grid(reference_spec(2), density=16)
    assert np.all(np.diff(grid.passband) > 0)
    assert np.all(np.diff(grid.stopband) > 0)


# --- ZPFR ---------------------------------------------------------------

def zpfr(h, w):
    """The ZPFR as the pipeline computes it: response rows times the half taps."""
    h = np.asarray(h, dtype=float)
    return response_matrix(w, len(h) - 1) @ h


def test_zpfr_zero_coefficients():
    assert np.array_equal(zpfr([0.0, 0.0], 1.3), [0.0])


def test_zpfr_center_tap_only():
    assert np.allclose(zpfr([0.0, 1.0], [0.0, 0.7, np.pi]), 1.0)


def test_zpfr_endpoint_values():
    # h = [0.5, 1] gives G(w) = 1 + cos(w).
    assert np.allclose(zpfr([0.5, 1.0], [0.0, np.pi]), [2.0, 0.0])


def test_zpfr_linearity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = int(rng.integers(1, 9))
        h = rng.normal(size=M + 1)
        g = rng.normal(size=M + 1)
        a, b = rng.normal(size=2)
        w = float(rng.uniform(0, np.pi))
        lhs = float(zpfr(a * h + b * g, w)[0])
        rhs = float(a * zpfr(h, w)[0] + b * zpfr(g, w)[0])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# --- design LP ----------------------------------------------------------

def test_design_reference_filter_satisfies_grid(designed):
    d = designed(1)
    A, b = _band_rows(d.spec, d.grid)
    assert float(np.max(A @ d.coeffs.h - b)) <= 1e-8


def test_design_slack_spec_feasible():
    spec = lowpass(N=5, dp=0.99, ds=0.99)
    grid = build_frequency_grid(spec)
    h = design_coefficients(spec, grid)
    assert np.all(np.abs(h.h) <= 1 + 1e-12)


@pytest.mark.parametrize(
    "index, density", [(1, 16.0), (2, 16.0), (3, 4.0)], ids=["filter1", "filter2", "filter3-coarse"]
)
def test_design_lp_has_the_bits_of_scipy_linprog(index, density):
    spec = reference_spec(index)
    grid = build_frequency_grid(spec, density)
    A, b = _band_rows(spec, grid)
    n_rows, n_h = A.shape
    c = np.zeros(n_h + 1)
    c[-1] = -1.0
    bounds = [(-1.0, 1.0)] * n_h + [(0.0, min(spec.dp, spec.ds))]
    expected = scipy_linprog(c, np.hstack([A, np.ones((n_rows, 1))]), b, bounds).x[:n_h]
    assert design_coefficients(spec, grid).h.tobytes() == expected.tobytes()


def test_csc_arrays_are_those_of_scipy_csc_array():
    """The models' matrices: column-major, rows ascending, exact zeros left out."""
    from scipy.sparse import csc_array

    spec = reference_spec(2)
    A, _ = _band_rows(spec, build_frequency_grid(spec, 4.0))
    zeros = np.array([[0.0, 1.5, 0.0], [2.0, 0.0, 0.0], [0.0, -0.0, -3.0], [0.0, 0.0, 0.0]])
    for matrix in (A, np.hstack([A, np.ones((len(A), 1))]), zeros):
        expected = csc_array(matrix)
        got = _csc(matrix)
        for ours, theirs in zip(got, (expected.indptr, expected.indices, expected.data)):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
    assert len(got[2]) == 3


def test_design_infeasible_spec_raises_and_lattice_agrees():
    spec = lowpass(N=3, wp=0.3, ws=0.5, dp=0.003, ds=0.003)
    grid = build_frequency_grid(spec)
    with pytest.raises(InfeasibleSpec):
        design_coefficients(spec, grid)
    # Independent evidence: every point of a coarse coefficient lattice
    # violates some band constraint by a wide margin.
    assert lattice_infeasibility(spec, grid) > spec.dp


# --- coefficient bounds -------------------------------------------------

def test_bounds_contain_design(designed):
    d = designed(1)
    assert np.all(d.bounds.lower <= d.coeffs.h + 1e-9)
    assert np.all(d.coeffs.h <= d.bounds.upper + 1e-9)


def test_bounds_widen_toward_box_as_ripples_relax():
    # Conjunction of passband floor and stopband cap keeps the bounds
    # strictly inside the box even at extreme ripples, but the interval
    # widens monotonically as constraints go slack.
    widths = []
    for d in (0.1, 0.3, 0.9):
        spec = lowpass(N=7, wp=0.3, ws=0.7, dp=d, ds=d)
        bounds = coefficient_bounds(spec, build_frequency_grid(spec))
        assert np.all(bounds.lower >= -1.0) and np.all(bounds.upper <= 1.0)
        widths.append(np.sum(bounds.upper - bounds.lower))
    assert widths[0] < widths[1] < widths[2]
    assert multiprocessing.active_children() == []


def test_bounds_match_independent_simplex_oracle():
    """Re-solve all bound LPs with the textbook simplex; agree to 1e-6."""
    spec = reference_spec(1)
    grid = build_frequency_grid(spec, density=2.0)  # coarse: oracle-sized
    bounds = coefficient_bounds(spec, grid)
    A, b = _band_rows(spec, grid)
    M = spec.M
    lo_box = np.full(M + 1, -1.0)
    hi_box = np.full(M + 1, 1.0)
    for i in range(M + 1):
        c = np.zeros(M + 1)
        c[i] = 1.0
        status, _, obj = simplex_solve(c, A, b, lo_box, hi_box)
        assert status == "optimal"
        assert abs(obj - bounds.lower[i]) < 1e-6
        status, _, obj = simplex_solve(-c, A, b, lo_box, hi_box)
        assert status == "optimal"
        assert abs(-obj - bounds.upper[i]) < 1e-6
    # Values frozen from the oracle run (density 2.0).
    assert bounds.lower[0] == pytest.approx(-0.00400409, abs=1e-6)
    assert bounds.lower[1] == pytest.approx(-0.00419477, abs=1e-6)
    assert bounds.upper[0] == pytest.approx(-0.00061070, abs=1e-6)
    assert bounds.upper[1] == pytest.approx(-0.00044358, abs=1e-6)


def test_bounds_equal_one_by_one_solves_bit_for_bit(designed):
    """The pool returns exactly the optima of the LPs solved one at a time here."""
    d = designed(1)
    A, b = _band_rows(d.spec, d.grid)
    n = d.spec.M + 1
    lower, upper = np.empty(n), np.empty(n)
    for i in range(n):
        c = np.zeros(n)
        c[i] = 1.0
        lower[i] = scipy_linprog(c, A, b, [(-1.0, 1.0)] * n).fun
        c[i] = -1.0
        upper[i] = -scipy_linprog(c, A, b, [(-1.0, 1.0)] * n).fun
    assert d.bounds.lower.tobytes() == lower.tobytes()
    assert d.bounds.upper.tobytes() == upper.tobytes()


def test_bounds_infeasible_spec_raises_in_parent_and_leaves_no_process():
    spec = lowpass(N=3, wp=0.3, ws=0.5, dp=0.003, ds=0.003)
    with pytest.raises(InfeasibleSpec) as info:
        coefficient_bounds(spec, build_frequency_grid(spec))
    assert str(info.value) == "bound LP infeasible; design the filter first"
    assert multiprocessing.active_children() == []


def test_bounds_solver_failure_raises_in_parent_and_leaves_no_process(monkeypatch):
    # The workers are forked after the patch, so they inherit it; the
    # parent's own calls are left alone, so the failure comes from a worker.
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    parent, status = os.getpid(), _Highs.getModelStatus
    monkeypatch.setattr(
        _Highs, "getModelStatus",
        lambda self: status(self) if os.getpid() == parent else HighsModelStatus.kSolveError,
    )
    spec = lowpass(N=7, wp=0.3, ws=0.7, dp=0.1, ds=0.1)
    with pytest.raises(RuntimeError, match="model status 4: Solve error") as info:
        coefficient_bounds(spec, build_frequency_grid(spec))
    assert info.type is LPSolverError
    assert multiprocessing.active_children() == []


def test_bounds_optimum_outside_constraints_raises_in_parent(monkeypatch):
    # An optimum whose point breaks a row by far more than the tolerance.
    from scipy.optimize._highspy._core import _Highs

    parent, solution = os.getpid(), _Highs.getSolution
    monkeypatch.setattr(
        _Highs, "getSolution",
        lambda self: solution(self) if os.getpid() == parent
        else SimpleNamespace(row_value=[2.0], col_value=[0.0]),
    )
    spec = lowpass(N=7, wp=0.3, ws=0.7, dp=0.1, ds=0.1)
    with pytest.raises(LPSolverError, match="LP solution violates constraints by"):
        coefficient_bounds(spec, build_frequency_grid(spec))
    assert multiprocessing.active_children() == []


def test_bounds_ranged_solve_failure_raises_in_parent_and_leaves_no_process(monkeypatch):
    # Only the ranged models fail, and only in the workers: the original
    # model never sees a basis.  Their rows have a finite lower bound,
    # where the original LP's one-sided rows and the design LP's have
    # -inf, but the design LP runs in the parent anyway.
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    parent, status = os.getpid(), _Highs.getModelStatus

    def ranged_fails(self):
        ranged = self.getRow(0)[1] != -np.inf
        return HighsModelStatus.kSolveError if ranged and os.getpid() != parent else status(self)

    monkeypatch.setattr(_Highs, "getModelStatus", ranged_fails)
    spec = lowpass(N=7, wp=0.3, ws=0.7, dp=0.1, ds=0.1)
    with pytest.raises(LPSolverError, match="model status 4: Solve error"):
        coefficient_bounds(spec, build_frequency_grid(spec))
    assert multiprocessing.active_children() == []


def test_ranged_rows_split_into_the_band_rows():
    """Each ranged row's two halves are its band rows, bit for bit."""
    spec = reference_spec(3)
    grid = build_frequency_grid(spec, 4.0)
    R, lo, hi, upper, lower = _ranged_rows(spec, grid)
    A, b = _band_rows(spec, grid)
    assert sorted(np.concatenate([upper, lower])) == list(range(len(A)))
    assert A[upper].tobytes() == R.tobytes() and A[lower].tobytes() == (-R).tobytes()
    assert b[upper].tobytes() == hi.tobytes() and b[lower].tobytes() == (-lo).tobytes()
    assert np.all(lo < hi)


@pytest.mark.parametrize(
    "index, density", [(1, 16.0), (2, 4.0), (2, 16.0)], ids=["filter1", "filter2-coarse", "filter2"]
)
def test_bound_optima_independent_of_history_and_worker_count(monkeypatch, index, density):
    """Shuffled solves on one model, one worker, and the default pool all
    give the bits of the LPs solved one at a time on fresh solvers."""
    spec = reference_spec(index)
    grid = build_frequency_grid(spec, density)
    A, b = _band_rows(spec, grid)
    n = spec.M + 1
    tasks = [(i, sign) for i in range(n) for sign in (1, -1)]
    expected = np.empty(len(tasks))
    for j, (i, sign) in enumerate(tasks):
        c = np.zeros(n)
        c[i] = sign
        expected[j] = scipy_linprog(c, A, b, [(-1.0, 1.0)] * n).fun

    solve = _bound_solver(spec, grid)
    shuffled = np.empty(len(tasks))
    for j in np.random.default_rng(index).permutation(len(tasks)):
        shuffled[j] = solve(tasks[j])
    assert shuffled.tobytes() == expected.tobytes()

    pooled = [coefficient_bounds(spec, grid)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pooled.append(coefficient_bounds(spec, grid))
    for bounds in pooled:
        assert bounds.lower.tobytes() == expected[0::2].tobytes()
        assert bounds.upper.tobytes() == (-expected[1::2]).tobytes()


@pytest.mark.parametrize(
    "index, density, certified, cold",
    [(1, 16.0, 27, 3), (2, 16.0, 55, 5), (3, 4.0, 104, 2)],
    ids=["filter1", "filter2", "filter3-coarse"],
)
def test_unique_bases_are_the_cold_ranged_bases(monkeypatch, index, density, certified, cold):
    """Every basis `_unique_basis` accepts is the one a cold solve of the
    whole ranged LP ends on, row for row and column for column; the
    solver takes the cold solve for exactly the LPs it does not accept."""
    spec = reference_spec(index)
    grid = build_frequency_grid(spec, density)
    R, lo, hi, _, _ = _ranged_rows(spec, grid)
    n = spec.M + 1
    ranged = _model(_lp(R, lo, hi, (np.full(n, -1.0), np.full(n, 1.0))))
    unique, run = firlock.design._unique_basis, firlock.design._run
    bases, cold_solves = [], []

    def statuses(basis):
        return [list(map(int, basis.row_status)), list(map(int, basis.col_status))]

    def recorded(*args):
        found = unique(*args)
        if found is None:
            bases.append(None)
        else:
            basis, rows = found
            bases.append([rows.tolist(), list(map(int, basis.col_status))])
        return found

    def counted(model, cost, basis=None):
        cold_solves.append(basis is None)
        return run(model, cost, basis)

    monkeypatch.setattr(firlock.design, "_unique_basis", recorded)
    monkeypatch.setattr(firlock.design, "_run", counted)
    solve = _bound_solver(spec, grid)
    paths = {"unique": 0, "cold": 0}
    for i in range(n):
        for sign in (1, -1):
            bases.clear()
            cold_solves.clear()
            solve((i, sign))
            if bases[0] is None:
                assert cold_solves == [True, False]
                paths["cold"] += 1
                continue
            assert cold_solves == [False]
            paths["unique"] += 1
            cost = np.zeros(n)
            cost[i] = sign
            assert bases[0] == statuses(run(ranged, cost).getBasis())
    assert paths == {"unique": certified, "cold": cold}


def test_each_bound_lp_starts_from_the_seed_rows_and_no_basis(monkeypatch):
    """Two LPs on one solver: the first adds rows to the small model, and
    the second's first run still sees only the seed rows, with no basis
    kept from the first.  Its small-model runs are those of a fresh
    solver, iteration for iteration, so HiGHS kept no basis of its own."""
    from scipy.optimize._highspy._core import _Highs

    spec = reference_spec(1)
    grid = build_frequency_grid(spec)
    n_rows = 2 * len(grid.passband)
    run, runs = _Highs.run, []

    def recorded(self):
        lp = self.getLp()
        matrix = lp.a_matrix_
        before = {
            "rows": lp.num_row_,
            "lp": [np.asarray(v).tobytes() for v in (
                lp.row_lower_, lp.row_upper_, matrix.start_, matrix.index_, matrix.value_
            )],
            "basis": self.getBasis().valid,
        }
        status = run(self)
        if lp.num_row_ < n_rows:
            runs.append({
                **before,
                "iterations": self.getInfo().simplex_iteration_count,
                "h": np.asarray(self.getSolution().col_value).tobytes(),
            })
        return status

    def small_runs(solve, task):
        runs.clear()
        solve(task)
        return list(runs)

    monkeypatch.setattr(_Highs, "run", recorded)
    solve = _bound_solver(spec, grid)
    first = small_runs(solve, (0, 1))
    second = small_runs(solve, (0, -1))
    assert len(first) > 1 and first[-1]["rows"] > first[0]["rows"]
    assert second[0]["lp"] == first[0]["lp"] and not second[0]["basis"]
    assert second == small_runs(_bound_solver(spec, grid), (0, -1))


@settings(max_examples=300, deadline=None)
@given(
    slack=st.lists(st.sampled_from([-1e-9, -0.0, 0.0, 2e-9, 5e-9, 1e-8, 1.0, np.nan]), max_size=40),
    data=st.data(),
)
@example(slack=[], data=None)
@example(slack=[1.0, 1.0], data=None)
@example(slack=[0.0, -0.0, 0.0, 1.0], data=None)
def test_least_slack_rows_equal_the_loop_over_runs(slack, data):
    """The one-sort pick equals a loop of `np.argmin` over the runs, ties and
    empty rounds included, with no run across the band boundary."""
    slack = np.array(slack, dtype=float)
    n_pass = data.draw(st.integers(0, len(slack))) if data else len(slack) // 2
    low = np.flatnonzero(slack < 1e-8)
    runs = np.split(low, np.flatnonzero((np.diff(low) != 1) | (low[1:] == n_pass)) + 1)
    expected = [run[np.argmin(slack[run])] for run in runs if len(run)]
    got = _least_slack_rows(slack, n_pass)
    assert got.dtype == np.intp and got.tolist() == expected


@st.composite
def small_specs(draw):
    """A spec of N <= 25, low- or high-pass, and a design grid of density 1-16."""
    band_type = draw(st.sampled_from(BAND_TYPES))
    low = draw(st.floats(0.05, 0.85))
    high = draw(st.floats(low + 0.05, 0.95))
    wp, ws = (low, high) if band_type == "low-pass" else (high, low)
    dp, ds = (10.0 ** draw(st.floats(-3.0, -0.5)) for _ in range(2))
    N = draw(st.integers(1, 12)) * 2 + 1
    spec = FilterSpec(index=0, band_type=band_type, N=N, wp=wp, ws=ws, dp=dp, ds=ds, Q=14)
    return spec, build_frequency_grid(spec, draw(st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0])))


def edge_bands(band_type, N, wp, ws, dp, ds, density):
    """Narrow bands at both ends of [0, pi]: ill-conditioned, nearly dual degenerate LPs."""
    spec = FilterSpec(index=0, band_type=band_type, N=N, wp=wp, ws=ws, dp=dp, ds=ds, Q=14)
    return spec, build_frequency_grid(spec, density)


@settings(max_examples=20, deadline=None)
@given(drawn=small_specs())
@example(drawn=edge_bands("low-pass", 17, 0.05, 0.9484674720311836, 0.01539926526059492,
                          0.014330125702369627, 2.0))
@example(drawn=edge_bands("high-pass", 15, 0.95, 0.05, 0.001703778816903655, 0.001, 8.0))
def test_drawn_bounds_equal_one_by_one_solves_bit_for_bit(drawn):
    """On feasible drawn specs the pool returns the optima of scipy's `linprog`,
    one LP at a time, whichever way each LP's basis is found.  The two
    examples each had one LP whose basis passed a dual margin of 1e-8
    (its least dual was 4.0e-8 and 4.9e-8) and was not the cold one."""
    from scipy.optimize import linprog

    spec, grid = drawn
    A, b = _band_rows(spec, grid)
    n = spec.M + 1
    box = [(-1.0, 1.0)] * n
    assume(linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=box, method="highs").status == 0)
    expected = np.empty(2 * n)
    for j, (i, sign) in enumerate((i, sign) for i in range(n) for sign in (1, -1)):
        c = np.zeros(n)
        c[i] = sign
        expected[j] = scipy_linprog(c, A, b, box).fun
    bounds = coefficient_bounds(spec, grid)
    assert bounds.lower.tobytes() == expected[0::2].tobytes()
    assert bounds.upper.tobytes() == (-expected[1::2]).tobytes()


def test_bound_optimality_via_added_constraint(designed):
    """Pinning a coefficient just below its lower bound kills feasibility."""
    from scipy.optimize import linprog

    d = designed(1)
    A, b = _band_rows(d.spec, d.grid)
    M = d.spec.M
    for i in (0, M // 2, M):
        row = np.zeros(M + 1)
        row[i] = 1.0
        A_aug = np.vstack([A, row])
        b_aug = np.append(b, d.bounds.lower[i] - 1e-6)
        res = linprog(
            np.zeros(M + 1), A_ub=A_aug, b_ub=b_aug,
            bounds=[(-1, 1)] * (M + 1), method="highs",
        )
        assert res.status == 2


# --- quantization -------------------------------------------------------

def test_quantize_examples():
    coeffs = RealCoefficients(h=np.array([0.5, -0.3, 0.0]))
    from firlock.design import BoundSet

    bounds = BoundSet(lower=coeffs.h - 0.01, upper=coeffs.h + 0.01)
    qf = quantize(coeffs, bounds, Q=14)
    assert qf.coeffs[0] == 8192          # 0.5 * 2**14 exactly
    assert qf.coeffs[1] == -4915         # ceil(-4915.2)
    assert qf.coeffs[2] == 0
    assert qf.N == 5


def test_quantize_monotone_and_error_range():
    rng = np.random.default_rng(3)
    Q = 10
    vals = np.sort(rng.uniform(-1, 1, size=200))
    q = np.ceil(vals * 2**Q)
    assert np.all(np.diff(q) >= 0)
    err = q / 2**Q - vals
    assert np.all(err >= 0) and np.all(err < 2.0**-Q)


def test_quantize_symmetry(designed):
    qf = designed(1).qf
    assert np.array_equal(qf.coeffs, qf.coeffs[::-1])
    assert np.array_equal(qf.bounds_l, qf.bounds_l[::-1])
    assert np.array_equal(qf.bounds_u, qf.bounds_u[::-1])


def test_magnitude_bitwidth():
    assert magnitude_bitwidth(0) == 1
    assert magnitude_bitwidth(1) == 1
    assert magnitude_bitwidth(-7) == 3
    assert magnitude_bitwidth(8) == 4


def test_quantized_filter_json_round_trip(designed):
    from firlock.design import QuantizedFilter

    qf = designed(1).qf
    again = QuantizedFilter.from_json_dict(qf.to_json_dict())
    assert np.array_equal(again.coeffs, qf.coeffs)
    assert np.array_equal(again.bounds_l, qf.bounds_l)
    assert again.Q == qf.Q and again.mbw == qf.mbw


# --- verification -------------------------------------------------------

def test_verify_quantized_within_ceiling_bound(designed):
    d = designed(1)
    gp_f = response_matrix(d.verify_grid.passband, d.spec.M) @ d.coeffs.h
    gp_q = response_matrix(d.verify_grid.passband, d.spec.M) @ (d.qf.half() / 2**d.spec.Q)
    bound = quantization_deviation_bound(d.spec.M, d.spec.Q)
    assert np.max(np.abs(gp_q - gp_f)) <= bound


def test_verify_all_zero_filter_fails_passband():
    spec = lowpass(N=5, dp=0.2, ds=0.2)
    grid = build_frequency_grid(spec)
    report = verify_response(np.zeros(spec.M + 1), spec, grid)
    assert report.passband_violations > 0
    assert report.stopband_violations == 0


def test_verify_float_design_clean_on_design_grid(designed):
    d = designed(1)
    report = verify_response(d.coeffs.h, d.spec, d.grid)
    assert report.ok


def test_verify_spec_reports_quantized_deviations(designed):
    d = designed(1)
    report = verify_spec(d.qf, d.spec, d.verify_grid)
    assert report.max_passband_deviation < d.spec.dp
    assert report.max_stopband_deviation < d.spec.ds
    assert report.ok
