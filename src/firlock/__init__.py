"""firlock: an FIR filter design / obfuscation / attack / evaluation toolchain.

The pipeline stages:

1. ``design``   -- LP-based coefficient design, per-tap feasible bounds,
   integer quantization (`firlock.design`).
2. ``decoys``   -- assignment of decoy constants outside each tap's
   feasible interval (`firlock.decoys`).
3. ``tmcm``     -- the key-controlled multiplexed constant multiplier
   (`firlock.tmcm`), which with a key determines the folded filter built
   around it; lowered to a gate netlist (`firlock.netlist`) and emitted as
   structural Verilog (`firlock.verilog`).
4. ``attack``   -- netlist-level constant extraction, decoy-method
   classification, and hub-based coefficient recovery (`firlock.attack`).
5. ``evaluate`` -- behavioral probing of the obfuscated filter under
   wrong keys (`firlock.evaluate`).

The ``firlock`` command line tool orchestrates the stages with file-based
handoff; see `firlock.cli`.  The Python API is each submodule's
``__all__``; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
