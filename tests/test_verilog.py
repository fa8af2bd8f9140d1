"""Verilog emission: syntax shape and the emit/parse/simulate round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firlock.decoys import DecoyMethod, assign_decoys
from firlock.netlist import OP_AND, OP_MUX2, OP_NOT, GateNetlist, PackedEvaluator, pack_value_bits
from firlock.tmcm import build_tmcm
from firlock import verilog
from firlock.verilog import emit_verilog, write_verilog

from conftest import WriteLog, lowered, make_quantized, small_tmcms
from verilog_parser import parse_verilog


def test_round_trip_behavior(built):
    b = built(1, DecoyMethod.HDRD)
    nl = b.netlist
    text = emit_verilog(nl)
    again = parse_verilog(text)
    rng = np.random.default_rng(17)
    n = 1000
    masks = {
        "i": pack_value_bits(rng.integers(0, b.tmcm.N, size=n), len(nl.inputs["i"])),
        "k": pack_value_bits(
            rng.integers(0, 1 << b.tmcm.p, size=n, dtype=np.uint64), len(nl.inputs["k"])
        ),
        "x": pack_value_bits(
            rng.integers(0, 1 << b.tmcm.ibw, size=n, dtype=np.uint64), len(nl.inputs["x"])
        ),
    }
    assert PackedEvaluator(again).run(masks, n) == PackedEvaluator(nl).run(masks, n)


@pytest.mark.parametrize("cbw_minus_ibw", [-1, 0, 1])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_round_trip_random_tables(cbw_minus_ibw, data):
    # Every (i, k, x) the ports can carry, padded select values included.
    nl = lowered(data.draw(small_tmcms(cbw_minus_ibw)))
    again = parse_verilog(emit_verilog(nl))
    widths = [len(nl.inputs[name]) for name in "ikx"]
    grid = np.indices([1 << w for w in widths]).reshape(3, -1)
    masks = {name: pack_value_bits(v, w) for name, v, w in zip("ikx", grid, widths)}
    n = grid.shape[1]
    assert PackedEvaluator(again).run(masks, n) == PackedEvaluator(nl).run(masks, n)


def test_port_widths_in_emission(built):
    b = built(1, DecoyMethod.HDRD)
    text = emit_verilog(b.netlist)
    assert "input [4:0] i;" in text          # ceil(log2 29)
    assert "input [31:0] k;" in text         # p = 32
    assert "input [31:0] x;" in text
    assert f"output [{b.tmcm.cbw + 32 - 1}:0] y;" in text
    assert "module tmcm_block (i, k, x, y);" in text
    assert text.startswith("//")
    assert text.rstrip().endswith("endmodule")


def test_single_tap_module_is_valid_and_round_trips():
    qf = make_quantized([5], [4], [6], Q=4)
    da = assign_decoys(qf, 1, DecoyMethod.HD, seed=0)
    tmcm, key = build_tmcm(qf, da, ibw=4, seed=1)
    nl = lowered(tmcm)
    text = emit_verilog(nl)
    # Zero-width select port still emitted one bit wide.
    assert "input [0:0] i;" in text
    again = parse_verilog(text)
    masks = {
        "i": [],
        "k": [0b01],
        "x": pack_value_bits(np.array([3, 3]), 4),
    }
    assert PackedEvaluator(again).run(masks, 2) == PackedEvaluator(nl).run(masks, 2)


def test_header_comment_passthrough(built):
    text = emit_verilog(built(1, DecoyMethod.HDRD).netlist, header="alpha\nbeta")
    lines = text.splitlines()
    assert lines[1] == "// alpha" and lines[2] == "// beta"



@pytest.mark.parametrize("n_gates", range(4))
def test_write_verilog_bytes_do_not_depend_on_lines_per_write(monkeypatch, n_gates):
    # Against the text in one write, every write size from one line to
    # all of them; each gate count puts the gates at other line offsets.
    # CONST1 is both a wire and an output.
    gates = [(OP_AND, 2, 3), (OP_NOT, 5), (OP_MUX2, 4, 6, 2)]
    nl = GateNetlist(inputs={"i": [], "k": [2, 3], "x": [4]}, outputs=[4 + n_gates, 1],
                     gates=gates[:n_gates])
    nl.validate()
    text = emit_verilog(nl, header="alpha\nbeta")
    n_lines = text.count("\n")
    assert n_lines < verilog._LINES_PER_WRITE
    for block in range(1, n_lines + 2):
        monkeypatch.setattr(verilog, "_LINES_PER_WRITE", block)
        writes = WriteLog()
        write_verilog(nl, writes, header="alpha\nbeta")
        assert "".join(writes) == text
        assert max(w.count("\n") for w in writes) <= block
