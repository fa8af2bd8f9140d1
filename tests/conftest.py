"""Shared fixtures: the three reference filters, designed and obfuscated once.

The LP designs (and especially the per-coefficient bound LPs) dominate
suite runtime, so everything derived from them is session-scoped and
built lazily per (filter, method) pair.
"""

import json
import signal
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

from firlock.cli import BENCH_KEY_BITS, bundled_spec_text
from firlock.decoys import DecoyMethod, assign_decoys
from firlock.design import (
    FilterSpec,
    QuantizedFilter,
    build_frequency_grid,
    coefficient_bounds,
    design_coefficients,
    quantize,
)
from firlock.netlist import lower_to_gates
from firlock.tmcm import ObfuscatedTMCM, build_tmcm

# Reference seeds used across the suite and the acceptance gate.
DECOY_SEED = 11
PLACEMENT_SEED = 12
ATTACK_SEED = 2
EVAL_SEED = 3
REFERENCE_IBW = 32

DESIGN_DENSITY = 16.0
VERIFY_DENSITY = 160.0


def reference_spec(index: int) -> FilterSpec:
    return FilterSpec.from_json_dict(json.loads(bundled_spec_text(index)))


def make_quantized(coeffs, lo, hi, Q=8):
    """Hand-built quantized filter for unit tests (no LP involved)."""
    return QuantizedFilter(
        coeffs=np.asarray(coeffs, dtype=np.int64),
        bounds_l=np.asarray(lo, dtype=np.int64),
        bounds_u=np.asarray(hi, dtype=np.int64),
        Q=Q,
    )


@contextmanager
def deadline(seconds: int):
    """Fail the test once the block has run ``seconds``, instead of hanging.

    A SIGALRM timer: forked workers do not inherit it, and it interrupts
    the parent's wait on a lock or a pipe.  `pytest.fail` raises no
    Exception subclass, so no ``except`` clause of the code under test
    turns it into a result.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def small_tmcms(draw, cbw_minus_ibw: int):
    """Random small TMCM blocks with ``cbw = ibw + cbw_minus_ibw``.

    N is 1..3, each table has 2 or 4 distinct constants (2 when a 1-bit
    constant allows no more), and ibw is 2..5.
    """
    ibw = draw(st.integers(2, 5))
    cbw = ibw + cbw_minus_ibw
    half = 1 << (cbw - 1)
    widths = tuple(draw(st.lists(st.integers(1, min(2, cbw)), min_size=1, max_size=3)))
    constants = st.integers(-half, half - 1)
    tables = tuple(
        tuple(draw(st.lists(constants, min_size=1 << w, max_size=1 << w, unique=True)))
        for w in widths
    )
    return ObfuscatedTMCM(ibw=ibw, cbw=cbw, mux_tables=tables, seed=0)


@pytest.fixture(scope="session")
def designed():
    """designed(index) -> spec, grids, float design, bounds, quantized filter."""
    cache = {}

    def get(index: int):
        if index not in cache:
            spec = reference_spec(index)
            grid = build_frequency_grid(spec, DESIGN_DENSITY)
            coeffs = design_coefficients(spec, grid)
            bounds = coefficient_bounds(spec, grid)
            qf = quantize(coeffs, bounds, spec.Q)
            cache[index] = SimpleNamespace(
                spec=spec,
                grid=grid,
                verify_grid=build_frequency_grid(spec, VERIFY_DENSITY),
                coeffs=coeffs,
                bounds=bounds,
                qf=qf,
            )
        return cache[index]

    return get


@pytest.fixture(scope="session")
def built(designed):
    """built(index, dsm) -> the obfuscated design at the reference key budget."""
    cache = {}

    def get(index: int, dsm):
        dsm = DecoyMethod(dsm)
        key_tag = (index, dsm)
        if key_tag not in cache:
            d = designed(index)
            da = assign_decoys(d.qf, BENCH_KEY_BITS[index], dsm, seed=DECOY_SEED)
            tmcm, secret = build_tmcm(d.qf, da, ibw=REFERENCE_IBW, seed=PLACEMENT_SEED)
            cache[key_tag] = SimpleNamespace(
                design=d,
                da=da,
                tmcm=tmcm,
                secret=secret,
                filt=tmcm,  # test_acceptance reads b.filt; the TMCM models the filter
                netlist=lower_to_gates(tmcm),
            )
        return cache[key_tag]

    return get


@pytest.fixture(scope="session")
def extracted(built):
    """extracted(index, dsm) -> RecoveredConstantSets from the real netlist."""
    from firlock.attack import extract_constants

    cache = {}

    def get(index: int, dsm):
        key_tag = (index, DecoyMethod(dsm))
        if key_tag not in cache:
            cache[key_tag] = extract_constants(
                built(index, dsm).netlist, seed=ATTACK_SEED
            )
        return cache[key_tag]

    return get
