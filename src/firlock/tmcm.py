"""Key-controlled multiplexed constant multiplication and the folded filter.

The TMCM block holds, for every coefficient index i, a power-of-two sized
table containing the coefficient and its decoys in random order.  A key
slice per index selects one table entry; the selected constant is
multiplied by the filter input.  Under the secret key every slice picks
the true coefficient, and the folded filter around the block (one TMCM,
one adder, N-1 registers; `simulate_filter`) computes the exact
convolution; any other key multiplies at least one decoy.  The TMCM and
a key fully determine the filter, so the TMCM is the filter's model.

The word-level reference semantics in this module are the ground truth
that the gate-level lowering (`firlock.netlist`) must match.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from firlock.decoys import DecoyAssignment
from firlock.design import QuantizedFilter, strict_int

__all__ = [
    "ObfuscatedTMCM",
    "SecretKey",
    "build_tmcm",
    "clog2",
    "key_offsets",
    "simulate_filter",
    "tmcm_select",
]


def clog2(n: int) -> int:
    """Bits needed to address n items (0 for a single item)."""
    return (n - 1).bit_length()


def key_offsets(widths) -> tuple:
    """Bit offset of each key slice; slices are packed in order from bit 0."""
    return tuple(accumulate(widths, initial=0))[:-1]


@dataclass(frozen=True)
class SecretKey:
    """A p-bit key split into per-coefficient slices.

    Slices are laid out in coefficient order starting at bit 0, each
    slice LSB-first; interpreting slice i as an unsigned integer yields
    the position of coefficient i in its multiplexer table.
    """

    bits: int
    widths: tuple

    @property
    def p(self) -> int:
        return sum(self.widths)

    @cached_property
    def offsets(self) -> tuple:
        return key_offsets(self.widths)

    def slice_value(self, i: int) -> int:
        return (self.bits >> self.offsets[i]) & ((1 << self.widths[i]) - 1)

    def with_slice(self, i: int, value: int) -> "SecretKey":
        if not 0 <= value < (1 << self.widths[i]):
            raise ValueError("slice value out of range")
        mask = ((1 << self.widths[i]) - 1) << self.offsets[i]
        bits = (self.bits & ~mask) | (value << self.offsets[i])
        return SecretKey(bits=bits, widths=self.widths)

    def to_hex(self) -> str:
        """Lowercase hex, ceil(p/4) digits, most significant nibble first."""
        digits = (self.p + 3) // 4
        return format(self.bits, f"0{digits}x")

    @classmethod
    def from_hex(cls, text: str, widths) -> "SecretKey":
        """The key `to_hex` wrote: hex digits only, surrounding whitespace ignored."""
        digits = text.strip()
        if not digits or not set(digits) <= set(string.hexdigits):
            raise ValueError(f"key_hex must be hex digits, got {text!r}")
        return cls(bits=int(digits, 16), widths=tuple(widths))

    def layout_json_dict(self) -> dict:
        return {
            "p": self.p,
            "slice_order": "coefficient index ascending, slices LSB-first from bit 0",
            "slices": [
                {"index": i, "offset": off, "width": w}
                for i, (off, w) in enumerate(zip(self.offsets, self.widths))
            ],
        }


@dataclass(frozen=True)
class ObfuscatedTMCM:
    """Multiplexer tables of constants plus the port geometry.

    ``mux_tables[i]`` is a permutation of {coefficient i} and its decoys,
    so the tables fix N and each key slice width (log2 of its table's
    power-of-two size); ``cbw`` is the two's-complement width every stored
    constant fits in (one sign bit on top of the magnitude width), and
    ``ibw`` the width, at least 2 for the step probe's x = +1, of the
    variable input.  The folded filter's output word, ``cbw + ibw + clog2(N)``
    bits, must fit the 63 bits that simulation and extraction compute in.
    """

    ibw: int
    cbw: int
    mux_tables: tuple
    seed: int

    def __post_init__(self):
        if self.cbw < 1:
            raise ValueError(f"constant bit-width cbw must be at least 1, got {self.cbw}")
        if self.ibw < 2:
            raise ValueError(f"input bit-width ibw must be at least 2, got {self.ibw}")
        width = self.cbw + self.ibw + clog2(self.N)
        if width > 63:
            most = self.ibw - (width - 63)
            fix = f"ibw may be at most {most} here"
            if most < 2:  # no ibw fits: cbw is too wide
                fix = f"cbw may be at most {61 - clog2(self.N)} here, at the least ibw, 2"
            raise ValueError(f"output width cbw + ibw + clog2(N) = {width} exceeds 63 bits; {fix}")
        for i, table in enumerate(self.mux_tables):
            n = len(table)
            if n < 1 or n & (n - 1):
                raise ValueError(f"table {i} size {n} is not a power of two")
            for c in table:
                if not -(1 << (self.cbw - 1)) <= c < (1 << (self.cbw - 1)):
                    raise ValueError(f"constant {c} does not fit in {self.cbw} signed bits")

    @property
    def N(self) -> int:
        return len(self.mux_tables)

    @cached_property
    def key_widths(self) -> tuple:
        return tuple(clog2(len(t)) for t in self.mux_tables)

    @property
    def p(self) -> int:
        return sum(self.key_widths)

    @property
    def select_width(self) -> int:
        return clog2(self.N)

    def to_json_dict(self) -> dict:
        return {
            "N": int(self.N),
            "ibw": int(self.ibw),
            "cbw": int(self.cbw),
            "mux_tables": [[int(c) for c in t] for t in self.mux_tables],
            "key_widths": [int(w) for w in self.key_widths],
            "seed": int(self.seed),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ObfuscatedTMCM":
        tmcm = cls(
            ibw=strict_int(d["ibw"], "TMCM ibw"),
            cbw=strict_int(d["cbw"], "TMCM cbw"),
            mux_tables=tuple(
                tuple(strict_int(c, f"TMCM mux_tables[{i}] entry") for c in t)
                for i, t in enumerate(d["mux_tables"])
            ),
            seed=strict_int(d["seed"], "TMCM seed"),
        )
        if strict_int(d["N"], "TMCM N") != tmcm.N:
            raise ValueError(f"TMCM: N={d['N']} but it has {tmcm.N} tables")
        widths = tuple(strict_int(w, "TMCM key_widths entry") for w in d["key_widths"])
        if widths != tmcm.key_widths:
            raise ValueError("TMCM: key_widths do not match the table sizes")
        return tmcm


def build_tmcm(
    qf: QuantizedFilter, da: DecoyAssignment, ibw: int, seed: int
) -> tuple:
    """Shuffle each coefficient among its decoys and derive the key.

    Placement within each table is a uniform random permutation from the
    seeded generator; the key slice for index i records where the true
    coefficient landed.
    """
    if da.N != qf.N:
        raise ValueError("decoy assignment does not match the filter length")
    rng = np.random.default_rng(seed)
    tables = []
    positions = []
    for i in range(qf.N):
        entries = [int(qf.coeffs[i])] + [int(v) for v in da.D[i]]
        order = rng.permutation(len(entries))
        tables.append(tuple(int(entries[j]) for j in order))
        positions.append(int(np.where(order == 0)[0][0]))
    tmcm = ObfuscatedTMCM(ibw=ibw, cbw=qf.mbw + 1, mux_tables=tuple(tables), seed=seed)
    key_bits = sum(pos << off for pos, off in zip(positions, key_offsets(tmcm.key_widths)))
    return tmcm, SecretKey(bits=key_bits, widths=tmcm.key_widths)


def tmcm_select(tmcm: ObfuscatedTMCM, i: int, key: int) -> int:
    """Constant chosen by slice i of the key-bus int ``key``; the word-level MUX semantics."""
    if not 0 <= i < tmcm.N:
        raise ValueError("primary select out of range")
    return tmcm.mux_tables[i][SecretKey(key, tmcm.key_widths).slice_value(i)]


def simulate_filter(tmcm: ObfuscatedTMCM, keys, inputs) -> np.ndarray:
    """Run the folded filter around ``tmcm``: one row per key, one output per input sample.

    The folded realization is one TMCM, one adder and N-1 delay
    registers.  Each input sample is held for N clock cycles while a
    counter sweeps the coefficient index: cycle c accumulates
    ``constant_c * x`` into delay slot c, and the TS pulse after cycle
    N-1 emits slot 0 and shifts the line.  Registers reset to zero, and
    the output word (see `ObfuscatedTMCM`) is wide enough that partial
    sums never wrap.  Under the secret key this reproduces the exact
    transposed-form convolution.

    ``keys`` is a sequence of key-bus ints (a `SecretKey`'s ``bits``).
    Every key runs in the same loop, one filter per row of the slot array.
    """
    offsets = key_offsets(tmcm.key_widths)
    consts = np.array(
        [
            [t[(bits >> off) & (len(t) - 1)] for t, off in zip(tmcm.mux_tables, offsets)]
            for bits in keys
        ],
        dtype=np.int64,
    ).reshape(len(keys), tmcm.N)  # an empty batch still has N columns
    half = 1 << (tmcm.ibw - 1)
    xs = np.asarray(inputs, dtype=np.int64)
    if len(xs) and (xs.max(initial=0) >= half or xs.min(initial=0) < -half):
        raise ValueError(f"inputs must fit in {tmcm.ibw} signed bits")
    slots = np.zeros_like(consts)
    out = np.empty((len(keys), len(xs)), dtype=np.int64)
    for t, x in enumerate(xs):
        slots += consts * x          # the N multiply/accumulate cycles
        out[:, t] = slots[:, 0]      # TS: emit, then shift the line
        slots[:, :-1] = slots[:, 1:]
        slots[:, -1] = 0
    return out
