"""Structural Verilog-2001 emission of gate netlists.

The emission uses only ``and``/``or``/``xor``/``not`` primitives and
ternary ``assign`` statements for MUX2, with ports in the fixed order
(i, k, x, y), in one module named ``tmcm_block``.
"""

from __future__ import annotations

import io
from itertools import chain, islice

from firlock.netlist import CONST0, CONST1, OP_MUX2, OP_NAMES, GateNetlist

__all__ = ["emit_verilog", "write_verilog"]

_MODULE_NAME = "tmcm_block"
_PORT_ORDER = ("i", "k", "x")
# Lines formatted per write of `write_verilog`.
_LINES_PER_WRITE = 4096


def _lines(nl: GateNetlist, header: str):
    yield f"// {_MODULE_NAME}: multiplexed constant multiplier, structural netlist"
    for extra in header.splitlines():
        yield f"// {extra}"
    yield f"module {_MODULE_NAME} (i, k, x, y);"
    for port in _PORT_ORDER:
        width = len(nl.inputs[port])
        note = "  // unused" if width == 0 else ""
        yield f"  input [{max(width, 1) - 1}:0] {port};{note}"
    yield f"  output [{len(nl.outputs) - 1}:0] y;"

    consts = [c for c in (CONST0, CONST1) if c in nl.outputs or any(c in g[1:] for g in nl.gates)]
    first = nl.first_gate_id
    wires = chain(
        (f"n{c}" for c in consts),
        (f"n{nid}" for ids in nl.inputs.values() for nid in ids),
        (f"n{first + j}" for j in range(len(nl.gates))),
    )
    while chunk := list(islice(wires, 12)):
        yield f"  wire {', '.join(chunk)};"

    for c in consts:
        yield f"  assign n{c} = 1'b{c};"
    for port in _PORT_ORDER:
        for b, nid in enumerate(nl.inputs[port]):
            yield f"  assign n{nid} = {port}[{b}];"
    for j, gate in enumerate(nl.gates):
        if gate[0] == OP_MUX2:
            _, a, b, s = gate
            yield f"  assign n{first + j} = n{s} ? n{b} : n{a};"
        else:
            operands = ", n".join(map(str, gate[1:]))
            yield f"  {OP_NAMES[gate[0]].lower()} g{j} (n{first + j}, n{operands});"
    for b, nid in enumerate(nl.outputs):
        yield f"  assign y[{b}] = n{nid};"
    yield "endmodule"


def write_verilog(nl: GateNetlist, fh, header: str = "") -> None:
    """Write the netlist to ``fh`` as a structural Verilog module.

    Each ``header`` line becomes a comment line.  Zero-width ports (an
    i port for N = 1) are emitted one bit wide and left unconnected so
    the module stays syntactically valid.  The lines are formatted
    `_LINES_PER_WRITE` at a time, so the whole text is never held.
    """
    lines = _lines(nl, header)
    while block := list(islice(lines, _LINES_PER_WRITE)):
        fh.write("\n".join(block))
        fh.write("\n")


def emit_verilog(nl: GateNetlist, header: str = "") -> str:
    """`write_verilog`'s text as one string."""
    buf = io.StringIO()
    write_verilog(nl, buf, header)
    return buf.getvalue()
