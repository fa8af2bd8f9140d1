"""Structural Verilog-2001 emission of gate netlists.

The emission uses only ``and``/``or``/``xor``/``not`` primitives and
ternary ``assign`` statements for MUX2, with ports in the fixed order
(i, k, x, y), in one module named ``tmcm_block``.
"""

from __future__ import annotations

from firlock.netlist import CONST0, CONST1, OP_MUX2, OP_NAMES, GateNetlist

__all__ = ["emit_verilog"]

_MODULE_NAME = "tmcm_block"
_PORT_ORDER = ("i", "k", "x")


def _wrap(names, indent="  wire ", per_line=12):
    lines = []
    for start in range(0, len(names), per_line):
        chunk = ", ".join(names[start : start + per_line])
        lines.append(f"{indent}{chunk};")
    return lines


def emit_verilog(nl: GateNetlist, header: str = "") -> str:
    """Render the netlist as a structural Verilog module.

    Zero-width ports (an i port for N = 1) are emitted one bit wide and
    left unconnected so the module stays syntactically valid.
    """
    lines = [f"// {_MODULE_NAME}: multiplexed constant multiplier, structural netlist"]
    for extra in header.splitlines():
        lines.append(f"// {extra}")
    lines.append(f"module {_MODULE_NAME} (i, k, x, y);")
    for port in _PORT_ORDER:
        width = len(nl.inputs[port])
        note = "  // unused" if width == 0 else ""
        lines.append(f"  input [{max(width, 1) - 1}:0] {port};{note}")
    lines.append(f"  output [{len(nl.outputs) - 1}:0] y;")

    used = set(nl.outputs)
    for gate in nl.gates:
        used.update(gate[1:])
    wires = []
    if CONST0 in used:
        wires.append("n0")
    if CONST1 in used:
        wires.append("n1")
    wires += [f"n{nid}" for ids in nl.inputs.values() for nid in ids]
    first = nl.first_gate_id
    wires += [f"n{first + j}" for j in range(len(nl.gates))]
    lines += _wrap(wires)

    if CONST0 in used:
        lines.append("  assign n0 = 1'b0;")
    if CONST1 in used:
        lines.append("  assign n1 = 1'b1;")
    for port in _PORT_ORDER:
        for b, nid in enumerate(nl.inputs[port]):
            lines.append(f"  assign n{nid} = {port}[{b}];")
    for j, gate in enumerate(nl.gates):
        if gate[0] == OP_MUX2:
            _, a, b, s = gate
            lines.append(f"  assign n{first + j} = n{s} ? n{b} : n{a};")
        else:
            operands = ", n".join(map(str, gate[1:]))
            lines.append(f"  {OP_NAMES[gate[0]].lower()} g{j} (n{first + j}, n{operands});")
    for b, nid in enumerate(nl.outputs):
        lines.append(f"  assign y[{b}] = n{nid};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
