"""Gate-level netlists: lowering of the TMCM block and fast evaluation.

Net ids: 0 and 1 are the constants, primary input bits follow, and gate
j drives net ``first_gate_id + j``.  Gates only reference earlier nets,
so the list is topologically ordered by construction.  A gate is the
tuple ``(op, *operands)``; its JSON record is ``{"op": name}`` plus its
operand nets, in tuple order, under the fields ``a`` (every op), ``b``
(every op but NOT) and ``s`` (MUX2, whose output is b when s else a).
Tuple order is also the fields' sorted order, which the text writer
(`GateNetlist.write_json`) relies on.

Lowering makes each bit of a key table one int truth table, entries in
bit-reversed key-slice order, so each MUX2 tree level splits an int in
halves; the gates are those of a tree walked over the entries.

The evaluator packs many test vectors into one arbitrary-width Python
integer per net (one bit per vector), so a single run evaluates
thousands of input combinations.  It reads each gate's op and operands
from a per-net list built once per evaluator.  A run evaluates the gates
that read a varying input bit in one pass in net-id order, and values
the held logic they read by walking back from it, skipping what held
inputs leave unread.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
import numpy as np

from firlock.design import strict_int
from firlock.tmcm import ObfuscatedTMCM, key_offsets

__all__ = [
    "GateNetlist",
    "NetlistBuilder",
    "PackedEvaluator",
    "lower_to_gates",
    "pack_value_bits",
]

OP_AND, OP_OR, OP_XOR, OP_NOT, OP_MUX2 = range(5)
OP_NAMES = ("AND", "OR", "XOR", "NOT", "MUX2")
_OP_CODES = {name: code for code, name in enumerate(OP_NAMES)}
# Operand fields of each op's JSON record, in gate-tuple order.
_OPERANDS = ("ab", "ab", "ab", "a", "abs")


def _record_template(code: int) -> str:
    """``json.dumps(record, indent=2, sort_keys=True)`` of one gate as a
    list element of a top-level field, operands left as ``%d``."""
    fields = {f: "%d" for f in _OPERANDS[code]}
    fields["op"] = json.dumps(OP_NAMES[code])
    body = ",\n".join(f'      "{f}": {fields[f]}' for f in sorted(fields))
    return f"    {{\n{body}\n    }}"


_RECORD_TEMPLATES = tuple(map(_record_template, range(len(OP_NAMES))))
# Gate records formatted per write of `GateNetlist.write_json`.
_GATES_PER_WRITE = 4096

CONST0, CONST1 = 0, 1


@dataclass
class GateNetlist:
    """Combinational netlist over {AND, OR, XOR, NOT, MUX2}.

    ``inputs`` maps port name to net ids LSB-first; ``outputs`` lists
    the product bits LSB-first.  ``meta`` records the port geometry
    (N, cbw, ibw, p).
    """

    inputs: dict
    outputs: list
    gates: list
    meta: dict = field(default_factory=dict)

    @property
    def n_input_bits(self) -> int:
        return sum(len(v) for v in self.inputs.values())

    @property
    def first_gate_id(self) -> int:
        return 2 + self.n_input_bits

    @property
    def n_nets(self) -> int:
        return self.first_gate_id + len(self.gates)

    def validate(self) -> None:
        """Check net ids are ints, port ids (2 .. first_gate_id - 1, each once), order and references."""
        first = self.first_gate_id
        ids = []
        for name, port in self.inputs.items():
            ids += (strict_int(i, f"input {name} net id") for i in port)
        if not all(2 <= i < first for i in ids):
            raise ValueError("input net ids out of range")
        repeated = sorted(i for i, n in Counter(ids).items() if n > 1)
        if repeated:
            raise ValueError(f"input ports repeat net ids {repeated}")
        for j, gate in enumerate(self.gates):
            for operand in gate[1:]:
                if type(operand) is not int:  # the field name is built only on failure
                    strict_int(operand, f"gate {j} operand")
                if not 0 <= operand < first + j:
                    raise ValueError(f"gate {j} references net {operand} not yet defined")
        for out in self.outputs:
            if not 0 <= strict_int(out, "output net id") < self.n_nets:
                raise ValueError(f"output references unknown net {out}")

    def _json_fields(self) -> dict:
        """Every top-level field of the JSON record but ``gates``."""
        return {
            "n_nets": self.n_nets,
            "inputs": {k: list(v) for k, v in self.inputs.items()},
            "outputs": list(self.outputs),
            "meta": dict(self.meta),
        }

    def to_json_dict(self) -> dict:
        gates = [{"op": OP_NAMES[g[0]], **dict(zip(_OPERANDS[g[0]], g[1:]))} for g in self.gates]
        return {**self._json_fields(), "gates": gates}

    def write_json(self, fh, extra: dict) -> None:
        """Write to ``fh`` what ``json.dumps({**self.to_json_dict(), **extra},
        indent=2, sort_keys=True)`` returns.

        Gate records are filled into one template per op instead of
        passing through a dict each and the pure-Python indenting
        encoder, `_GATES_PER_WRITE` records per write, so the whole text
        is never held.  ``extra`` adds top-level fields other than ``gates``.
        """
        fields = {**self._json_fields(), **extra, "gates": None}
        for n, name in enumerate(sorted(fields)):
            fh.write(f"{',' if n else '{'}\n  {json.dumps(name)}: ")
            if name != "gates":
                fh.write(json.dumps(fields[name], indent=2, sort_keys=True).replace("\n", "\n  "))
            elif not self.gates:
                fh.write("[]")
            else:
                fh.write("[\n")
                for start in range(0, len(self.gates), _GATES_PER_WRITE):
                    block = self.gates[start : start + _GATES_PER_WRITE]
                    records = ",\n".join([_RECORD_TEMPLATES[g[0]] % g[1:] for g in block])
                    fh.write(f",\n{records}" if start else records)
                fh.write("\n  ]")
        fh.write("\n}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "GateNetlist":
        gates = []
        for g in d["gates"]:
            code = _OP_CODES.get(g["op"])
            if code is None:
                raise ValueError(f"unknown gate op {g['op']!r}")
            gates.append((code, *[g[f] for f in _OPERANDS[code]]))
        nl = cls(
            inputs={k: list(v) for k, v in d["inputs"].items()},
            outputs=list(d["outputs"]),
            gates=gates,
            meta=dict(d.get("meta", {})),
        )
        nl.validate()
        if nl.n_nets != strict_int(d["n_nets"], "n_nets"):
            raise ValueError("net count mismatch")
        return nl


class NetlistBuilder:
    """Construct netlists with structural hashing and constant folding.

    Constant operands dissolve into the surrounding logic (a MUX2 leaf
    fed by two hard-wired bits reduces to a wire, an inverter, or
    nothing), which is what embeds the TMCM constants into the netlist
    instead of leaving them readable on leaf wires.
    """

    def __init__(self):
        self.inputs = {}
        self.gates = []
        self._cache = {}
        self._not_of = {CONST0: CONST1, CONST1: CONST0}
        self._n_inputs = 0

    def add_input(self, name: str, width: int) -> list:
        if self.gates:
            raise RuntimeError("declare all inputs before building gates")
        ids = [2 + self._n_inputs + b for b in range(width)]
        self._n_inputs += width
        self.inputs[name] = ids
        return ids

    def _emit(self, op: int, *operands) -> int:
        key = (op, *operands)
        nid = self._cache.get(key)
        if nid is None:
            nid = 2 + self._n_inputs + len(self.gates)
            self.gates.append(key)
            self._cache[key] = nid
        return nid

    def not_(self, a: int) -> int:
        known = self._not_of.get(a)
        if known is not None:
            return known
        nid = self._emit(OP_NOT, a)
        self._not_of[a] = nid
        self._not_of[nid] = a
        return nid

    def and_(self, a: int, b: int) -> int:
        if a == CONST0 or b == CONST0 or self._not_of.get(a) == b:
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1 or a == b:
            return a
        return self._emit(OP_AND, *sorted((a, b)))

    def or_(self, a: int, b: int) -> int:
        if a == CONST1 or b == CONST1 or self._not_of.get(a) == b:
            return CONST1
        if a == CONST0:
            return b
        if b == CONST0 or a == b:
            return a
        return self._emit(OP_OR, *sorted((a, b)))

    def xor_(self, a: int, b: int) -> int:
        if a == b:
            return CONST0
        if self._not_of.get(a) == b:
            return CONST1
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == CONST1:
            return self.not_(b)
        if b == CONST1:
            return self.not_(a)
        return self._emit(OP_XOR, *sorted((a, b)))

    def mux(self, a: int, b: int, s: int) -> int:
        """b when s else a."""
        if s == CONST0 or a == b:
            return a
        if s == CONST1:
            return b
        if a == CONST0:
            return self.and_(b, s)
        if a == CONST1:
            return self.or_(b, self.not_(s))
        if b == CONST0:
            return self.and_(a, self.not_(s))
        if b == CONST1:
            return self.or_(a, s)
        if self._not_of.get(a) == b:
            return self.xor_(a, s)
        return self._emit(OP_MUX2, a, b, s)

    def full_adder(self, a: int, b: int, c: int):
        axb = self.xor_(a, b)
        total = self.xor_(axb, c)
        carry = self.or_(self.and_(a, b), self.and_(c, axb))
        return total, carry

    def build(self, outputs, meta=None) -> GateNetlist:
        """The netlist so far, not validated: every gate reads nets defined before it."""
        return GateNetlist(
            inputs=self.inputs,
            outputs=list(outputs),
            gates=self.gates,
            meta=dict(meta or {}),
        )


def _mux_tree(b: NetlistBuilder, entries: tuple, sel: tuple) -> int:
    """Binary select tree over nets, LSB select bit switching adjacent entries.

    Equal entries return their net at once: every MUX2 of their tree
    would have equal inputs and emit nothing.
    """
    if entries.count(entries[0]) == len(entries):
        return entries[0]
    lo = _mux_tree(b, entries[0::2], sel[1:])
    hi = _mux_tree(b, entries[1::2], sel[1:])
    return b.mux(lo, hi, sel[0])


def _table_tree(b: NetlistBuilder, plane: int, n: int, sel: tuple, memo: dict) -> int:
    """`_mux_tree`'s gates over ``plane``, an ``n``-leaf truth table neither
    all 0 nor all 1 whose bit j is the entry with j's log2(n) bits reversed,
    so the LSB select's cofactors are its halves.  ``memo`` maps
    ``plane | 1 << n`` (which fixes the depth) to the net: one ``sel`` only.
    """
    key = plane | 1 << n
    nid = memo.get(key)
    if nid is None:
        half = n >> 1
        ones = (1 << half) - 1
        lo, hi = plane & ones, plane >> half
        lo = CONST1 if lo == ones else _table_tree(b, lo, half, sel[1:], memo) if lo else CONST0
        hi = CONST1 if hi == ones else _table_tree(b, hi, half, sel[1:], memo) if hi else CONST0
        nid = memo[key] = b.mux(lo, hi, sel[0])
    return nid


def _signed_multiplier(b: NetlistBuilder, a_bits: list, x_bits: list, width: int) -> list:
    """Signed array multiplier, truncated to ``width`` output bits.

    Both operands are sign-extended to the output width; the unsigned
    product mod 2**width then equals the two's-complement encoding of
    the true signed product, which always fits because
    width = len(a_bits) + len(x_bits).
    """
    a_ext = a_bits + [a_bits[-1]] * (width - len(a_bits))
    x_ext = x_bits + [x_bits[-1]] * (width - len(x_bits))
    columns = [[] for _ in range(width)]
    for r in range(width):
        xr = x_ext[r]
        for c in range(width - r):
            pp = b.and_(a_ext[c], xr)
            if pp != CONST0:
                columns[r + c].append(pp)
    out = []
    for j in range(width):
        col = columns[j]
        while len(col) > 1:
            if len(col) >= 3:
                s, cy = b.full_adder(col.pop(0), col.pop(0), col.pop(0))
            else:
                a0, b0 = col.pop(0), col.pop(0)
                s, cy = b.xor_(a0, b0), b.and_(a0, b0)
            col.append(s)
            if cy != CONST0 and j + 1 < width:
                columns[j + 1].append(cy)
        out.append(col[0] if col else CONST0)
    return out


def lower_to_gates(tmcm: ObfuscatedTMCM) -> GateNetlist:
    """Lower the TMCM block to a gate netlist.

    Structure: per-coefficient MUX2 trees over the key slice bits pick
    the constant word (constant leaf bits fold into the tree logic), a
    second tree over the primary select i picks among coefficients
    (out-of-range selects read as zero), and a signed array multiplier
    forms the product with x.  For every (i, k, x) the gate-level output
    equals the constant that key k selects for index i (`tmcm_select`)
    times x, mod 2**(cbw+ibw).
    """
    b = NetlistBuilder()
    i_bits = b.add_input("i", tmcm.select_width)
    k_bits = b.add_input("k", tmcm.p)
    x_bits = b.add_input("x", tmcm.ibw)

    # The tables' entries in `_table_tree`'s leaf order (reversing the axes
    # of a table shaped (2,) * w reverses each index's bits), one table
    # after another: a table's bit plane t is a slice of column t.
    leaves = [np.reshape(t, (2,) * w).T.ravel() for t, w in zip(tmcm.mux_tables, tmcm.key_widths)]
    columns = pack_value_bits(np.concatenate(leaves) & ((1 << tmcm.cbw) - 1), tmcm.cbw)
    words, start = [], 0
    for off, w in zip(key_offsets(tmcm.key_widths), tmcm.key_widths):
        # A memo per table: key slices are disjoint, so tables share no subtree.
        sel, n, memo = tuple(k_bits[off : off + w]), 1 << w, {}
        ones = (1 << n) - 1
        planes = [(column >> start) & ones for column in columns]
        words.append(
            [CONST1 if t == ones else _table_tree(b, t, n, sel, memo) if t else CONST0 for t in planes]
        )
        start += n

    zero_word = [CONST0] * tmcm.cbw
    padded = words + [zero_word] * ((1 << tmcm.select_width) - tmcm.N)
    selected = [_mux_tree(b, tuple(wd[t] for wd in padded), tuple(i_bits)) for t in range(tmcm.cbw)]

    product = _signed_multiplier(b, selected, x_bits, tmcm.cbw + tmcm.ibw)
    return b.build(
        product,
        meta={"N": tmcm.N, "cbw": tmcm.cbw, "ibw": tmcm.ibw, "p": tmcm.p},
    )


def pack_value_bits(values: np.ndarray, width: int) -> list:
    """Per-bit lane masks for a vector of ``width``-bit values: mask t
    holds bit t of value n at bit n.

    Values are read as 64-bit two's-complement words, so masks from bit
    64 on are 0.  One transpose puts each byte of the words in a row of
    its own, and each mask is packed from its byte's row.
    """
    words = np.asarray(values).astype("<u8")
    rows = words.view(np.uint8).reshape(-1, 8)[:, : -(-width // 8)].T.copy()
    masks = []
    for t in range(min(width, 64)):
        plane = np.packbits((rows[t >> 3] >> (t & 7)) & 1, bitorder="little")
        masks.append(int.from_bytes(plane.tobytes(), "little"))
    return masks + [0] * (width - len(masks))


def _bit_rows(sets: list, n_bits: int) -> np.ndarray:
    """One row of 64-bit words per int of ``sets``, bit t of the int at bit t."""
    row_bytes = 8 * (n_bits // 64 + 1)
    packed = b"".join([v.to_bytes(row_bytes, "little") for v in sets])
    return np.frombuffer(packed, dtype="<u8").reshape(len(sets), -1)


def _sharing(rows: np.ndarray, bits: int) -> np.ndarray:
    """Which rows of `_bit_rows` share a bit with the int ``bits``."""
    return (rows & _bit_rows([bits], 64 * rows.shape[1] - 1)).any(axis=1)


class PackedEvaluator:
    """Bit-parallel netlist evaluation, scheduled by the inputs it is given.

    ``run`` takes per-input-bit lane masks, or an int for a port held
    at one value on every lane, and returns lane masks for the
    requested output bits.  An input bit whose mask is neither 0 nor
    all ones varies.  The gates that read a varying bit, directly or
    through other gates, and feed the requested outputs (the varying
    bits' cone) are evaluated in one pass in net-id order.  Every other
    gate they or the outputs read is held logic, one value on every
    lane, and is valued by a walk back from it that evaluates a gate
    only when the result needs it: a MUX2 whose select is all-0 or
    all-1 evaluates only the branch it picks, and an AND with an all-0
    operand (an OR with an all-1 one) evaluates nothing more.  Inputs
    held at one value on every lane, as the key and the select are
    during constant extraction, so leave most of the netlist
    unevaluated.

    That schedule depends only on the varying input bits and the
    requested outputs.  The last one per tuple of requested outputs is
    kept, so runs that vary the same bits and read the same outputs
    build it once, even with runs reading other outputs between them.
    The input bits each net reads and the output bits it feeds are
    listed once per evaluator, so a schedule is picked with numpy, and
    Python visits only the gates it lists.
    """

    def __init__(self, nl: GateNetlist):
        self.nl = nl
        first = self._first = nl.first_gate_id
        # The gate driving each net, as (net, op, a, b, s) by net id; a
        # missing operand reads CONST0.
        gates = nl.gates
        n = first + len(gates)
        pad = [CONST0] * first
        A = pad + [g[1] for g in gates]
        B = pad + [g[2] if len(g) > 2 else CONST0 for g in gates]
        S = pad + [g[3] if len(g) > 3 else CONST0 for g in gates]
        ops = [g[0] for g in gates]
        self._gates = [None] * first + list(zip(range(first, n), ops, A[first:], B[first:], S[first:]))
        # Net values before a run sets its inputs: None marks a gate not
        # evaluated yet, and inputs no port names read 0.
        self._unset = [0] * first + [None] * len(gates)
        # What a schedule is picked from: each gate's operands, the input
        # bits each net reads (bit t for input net t + 2) and the output
        # bits each net feeds (bit t for nl.outputs[t]).
        self._operands = np.array([A, B, S], dtype=np.int64)
        reads = [0] * 2 + [1 << t for t in range(first - 2)]
        for nid in range(first, n):
            reads.append(reads[A[nid]] | reads[B[nid]] | reads[S[nid]])
        feeds = [0] * n
        for t, nid in enumerate(nl.outputs):
            feeds[nid] |= 1 << t
        for nid in range(n - 1, first - 1, -1):
            bits = feeds[nid]
            if bits:
                feeds[A[nid]] |= bits
                feeds[B[nid]] |= bits
                feeds[S[nid]] |= bits
        self._reads = _bit_rows(reads, first - 2)
        self._feeds = _bit_rows(feeds, len(nl.outputs))
        # The last schedule per tuple of output bits, with its varying bits.
        self._schedules = {}

    def run(self, input_masks: dict, width: int, out_bits=None):
        """Evaluate ``width`` lanes; ``input_masks`` maps port name to
        its per-bit masks (LSB first) or to an int, that value held on
        every lane.

        Returns the lane masks of ``out_bits`` (default: all output
        bits) in the requested order.
        """
        if out_bits is None:
            out_bits = range(len(self.nl.outputs))
        mask = (1 << width) - 1
        values, varying = self._inputs(input_masks, mask)
        out_bits = tuple(out_bits)
        kept = self._schedules.get(out_bits)
        if kept is None or kept[0] != varying:
            kept = self._schedules[out_bits] = varying, self._build_schedule(varying, out_bits)
        held, steps, outputs = kept[1]
        self._walk(values, held, mask)
        for nid, op, a, b, s in steps:
            if op == OP_AND:
                values[nid] = values[a] & values[b]
            elif op == OP_XOR:
                values[nid] = values[a] ^ values[b]
            elif op == OP_OR:
                values[nid] = values[a] | values[b]
            elif op == OP_NOT:
                values[nid] = values[a] ^ mask
            else:
                va = values[a]
                values[nid] = va ^ ((va ^ values[b]) & values[s])
        return [values[nid] for nid in outputs]

    def _build_schedule(self, varying: int, out_bits: tuple):
        """``(held, steps, outputs)`` for runs whose varying input bits
        are ``varying`` (bit t for net t + 2), reading ``out_bits``.

        ``steps`` lists, as ``(net, op, a, b, s)`` in net-id order, every
        gate that reads a varying bit and feeds a requested output bit;
        ``held`` lists, in net-id order, the other gates those steps or
        the ``outputs`` (the requested output nets) read.
        """
        first, all_outputs = self._first, self.nl.outputs
        outputs = [all_outputs[t] for t in out_bits]
        varies = _sharing(self._reads, varying)
        feeds = _sharing(self._feeds, sum(1 << (t % len(all_outputs)) for t in set(out_bits)))
        nets = np.flatnonzero(varies[first:] & feeds[first:]) + first
        read = np.concatenate([self._operands[:, nets].ravel(), outputs]).astype(np.int64)
        held = np.unique(read[(read >= first) & ~varies[read]])
        return held.tolist(), [self._gates[nid] for nid in nets.tolist()], outputs

    def _inputs(self, input_masks: dict, mask: int):
        """Net values with the constants and ports set and no gate
        evaluated, and the varying input bits (bit t for net t + 2)."""
        values = self._unset.copy()
        values[CONST1] = mask
        varying = 0
        for name, ids in self.nl.inputs.items():
            masks = input_masks[name]
            if isinstance(masks, int):  # input nets start at 0: set the one-bits
                held = masks & ((1 << len(ids)) - 1)
                while held:
                    low = held & -held
                    values[ids[low.bit_length() - 1]] = mask
                    held ^= low
                continue
            if len(masks) != len(ids):
                raise ValueError(f"port {name} expects {len(ids)} bit masks")
            for nid, m in zip(ids, masks):
                values[nid] = m
                if m and m != mask:
                    varying |= 1 << (nid - 2)
        return values, varying

    def _walk(self, values: list, targets, mask: int) -> None:
        """Value ``targets`` and what they need, depth-first: a gate stays
        on the stack until the operands it needs are known, and each gate
        is valued once."""
        gates = self._gates
        stack = list(reversed(targets))
        push = stack.append
        while stack:
            nid = stack[-1]
            if values[nid] is not None:
                stack.pop()
                continue
            _, op, ga, gb, gs = gates[nid]
            a = values[ga]
            if op == OP_AND or op == OP_OR:
                absorbing = 0 if op == OP_AND else mask
                b = values[gb]
                if a == absorbing or b == absorbing:
                    v = absorbing
                elif a is None:
                    push(ga)
                    continue
                elif b is None:
                    push(gb)
                    continue
                else:
                    v = a & b if op == OP_AND else a | b
            elif op == OP_XOR:
                b = values[gb]
                if a is None or b is None:
                    stack += [n for n in (ga, gb) if values[n] is None]
                    continue
                v = a ^ b
            elif op == OP_NOT:
                if a is None:
                    push(ga)
                    continue
                v = a ^ mask
            else:
                s = values[gs]
                if s is None:
                    push(gs)
                    continue
                if s == 0 or s == mask:
                    branch = ga if s == 0 else gb
                    v = values[branch]
                    if v is None:
                        push(branch)
                        continue
                else:
                    b = values[gb]
                    if a is None or b is None:
                        stack += [n for n in (ga, gb) if values[n] is None]
                        continue
                    v = a ^ ((a ^ b) & s)
            values[nid] = v
            stack.pop()
