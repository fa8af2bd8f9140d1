"""Re-parser for `firlock.verilog.emit_verilog` output; the emitter's oracle.

It understands exactly the emitted dialect: ``and``/``or``/``xor``/``not``
primitives, ternary ``assign`` statements for MUX2, and ports in the
fixed order (i, k, x, y).  The round trip (emit, parse, simulate) checks
the emitter against the netlist it was given.
"""

import re

from firlock.netlist import (
    CONST0,
    CONST1,
    GateNetlist,
    OP_AND,
    OP_MUX2,
    OP_NOT,
    OP_OR,
    OP_XOR,
)

_PORT_ORDER = ("i", "k", "x")

_RE_INPUT = re.compile(r"input \[(\d+):0\] (\w+);")
_RE_OUTPUT = re.compile(r"output \[(\d+):0\] y;")
_RE_CONST = re.compile(r"assign (n\d+) = 1'b([01]);")
_RE_ALIAS = re.compile(r"assign (n\d+) = (\w+)\[(\d+)\];")
_RE_GATE = re.compile(r"(and|or|xor|not) g\d+ \((n\d+), (n\d+)(?:, (n\d+))?\);")
_RE_MUX = re.compile(r"assign (n\d+) = (n\d+) \? (n\d+) : (n\d+);")
_RE_OUT = re.compile(r"assign y\[(\d+)\] = (n\d+);")

_KEYWORD_OPS = {"and": OP_AND, "or": OP_OR, "xor": OP_XOR, "not": OP_NOT}


def parse_verilog(text: str) -> GateNetlist:
    """Rebuild a `GateNetlist` from `emit_verilog` output.

    Net numbering is reassigned from scratch; only the structure and
    the (i, k, x, y) port contract are taken from the file, so the
    parse is an independent reading of the emission.
    """
    port_widths = {}
    for m in _RE_INPUT.finditer(text):
        port_widths[m.group(2)] = int(m.group(1)) + 1
    out_match = _RE_OUTPUT.search(text)
    if not out_match or set(port_widths) != set(_PORT_ORDER):
        raise ValueError("not a recognized emission: ports i, k, x, y expected")
    n_out = int(out_match.group(1)) + 1

    alias = {}
    for m in _RE_ALIAS.finditer(text):
        alias.setdefault(m.group(2), {})[int(m.group(3))] = m.group(1)
    inputs = {}
    next_id = 2
    name_to_id = {}
    for port in _PORT_ORDER:
        bits = alias.get(port, {})
        width = max(bits) + 1 if bits else 0
        ids = []
        for b in range(width):
            name_to_id[bits[b]] = next_id
            ids.append(next_id)
            next_id += 1
        inputs[port] = ids
    for m in _RE_CONST.finditer(text):
        name_to_id[m.group(1)] = CONST1 if m.group(2) == "1" else CONST0

    gates = []
    for line in text.splitlines():
        line = line.strip()
        m = _RE_GATE.match(line)
        if m:
            kw, out, a, b = m.group(1), m.group(2), m.group(3), m.group(4)
            op = _KEYWORD_OPS[kw]
            operands = (name_to_id[a],) if op == OP_NOT else (name_to_id[a], name_to_id[b])
            gates.append((op, *operands))
            name_to_id[out] = next_id
            next_id += 1
            continue
        m = _RE_MUX.match(line)
        if m:
            out, s, b, a = m.groups()
            gates.append((OP_MUX2, name_to_id[a], name_to_id[b], name_to_id[s]))
            name_to_id[out] = next_id
            next_id += 1

    outputs = [None] * n_out
    for m in _RE_OUT.finditer(text):
        outputs[int(m.group(1))] = name_to_id[m.group(2)]
    if any(o is None for o in outputs):
        raise ValueError("emission does not drive every output bit")
    nl = GateNetlist(inputs=inputs, outputs=outputs, gates=gates)
    nl.validate()
    return nl
