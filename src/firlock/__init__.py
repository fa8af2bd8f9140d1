"""firlock: an FIR filter design / obfuscation / attack / evaluation toolchain.

The pipeline stages:

1. ``design``   -- LP-based coefficient design, per-tap feasible bounds,
   integer quantization (`firlock.design`).
2. ``decoys``   -- assignment of decoy constants outside each tap's
   feasible interval (`firlock.decoys`).
3. ``tmcm``     -- the key-controlled multiplexed constant multiplier and
   the folded filter built around it (`firlock.tmcm`), lowered to a gate
   netlist (`firlock.netlist`) and structural Verilog (`firlock.verilog`).
4. ``attack``   -- netlist-level constant extraction, decoy-method
   classification, and hub-based coefficient recovery (`firlock.attack`).
5. ``evaluate`` -- behavioral probing of the obfuscated filter under
   wrong keys (`firlock.evaluate`).

The ``firlock`` command line tool orchestrates the stages with file-based
handoff; see `firlock.cli`.
"""

from firlock.design import (
    BoundSet,
    FilterSpec,
    FrequencyGrid,
    InfeasibleSpec,
    QuantizedFilter,
    RealCoefficients,
    ViolationReport,
    build_frequency_grid,
    coefficient_bounds,
    compute_zpfr,
    design_coefficients,
    quantize,
    verify_spec,
)
from firlock.decoys import (
    DecoyAssignment,
    DecoyMethod,
    EmptyCandidateSet,
    InsufficientCandidates,
    assign_decoy_single,
    assign_decoys,
    candidate_set,
)
from firlock.tmcm import (
    FoldedFilter,
    ObfuscatedTMCM,
    SecretKey,
    build_folded_filter,
    build_tmcm,
    reference_convolution,
    simulate_filter,
    tmcm_multiply,
    tmcm_select,
)
from firlock.netlist import GateNetlist, PackedEvaluator, lower_to_gates
from firlock.verilog import emit_verilog, parse_verilog
from firlock.attack import (
    DsmVerdict,
    RecoveredConstantSets,
    RecoveryReport,
    classify_dsm,
    compile_report,
    extract_constants,
    recover_coefficient,
)
from firlock.evaluate import (
    BehaviorReport,
    WrongKeySample,
    behavior_report,
    effective_coefficients,
    emit_curves,
    sample_wrong_keys,
    single_slice_corruptions,
    zpfr_under_key,
)

__version__ = "0.1.0"
