"""Gate lowering: exhaustive and randomized equivalence to the word level."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import const_mask, tmcm_multiply

from firlock.decoys import DecoyMethod, assign_decoys
from firlock.netlist import (
    CONST0,
    CONST1,
    OP_AND,
    OP_MUX2,
    OP_NOT,
    OP_OR,
    OP_XOR,
    GateNetlist,
    NetlistBuilder,
    PackedEvaluator,
    _signed_multiplier,
    pack_value_bits,
)
from firlock.tmcm import ObfuscatedTMCM, build_tmcm, key_offsets

from conftest import WriteLog, lowered, make_quantized, small_tmcms


def tiny_tmcm(ibw=4, seed=5, n=3):
    coeffs = [3, -2, 5][:n]
    qf = make_quantized(coeffs, [c - 1 for c in coeffs], [c + 1 for c in coeffs], Q=4)
    da = assign_decoys(qf, n, DecoyMethod.RD, seed=seed)
    return qf, da, *build_tmcm(qf, da, ibw=ibw, seed=seed + 1)


def eval_all(nl, i_vals, k_vals, x_vals):
    """Gate outputs as integers, one per packed lane."""
    ev = PackedEvaluator(nl)
    width = len(i_vals)
    masks = {
        "i": pack_value_bits(np.asarray(i_vals), len(nl.inputs["i"])),
        "k": pack_value_bits(np.asarray(k_vals), len(nl.inputs["k"])),
        "x": pack_value_bits(np.asarray(x_vals), len(nl.inputs["x"])),
    }
    outs = ev.run(masks, width)
    words = np.zeros(width, dtype=object)
    for t, m in enumerate(outs):
        if m:
            bits = np.frombuffer(
                m.to_bytes((width + 7) // 8, "little"), dtype=np.uint8
            )
            words += (np.unpackbits(bits, bitorder="little")[:width].astype(object)) << t
    return words


def assert_gates_match_word_level(tmcm):
    """Every (i, k, x) of the lowered netlist against `tmcm_multiply`."""
    nl = lowered(tmcm)
    n_i, n_k, n_x = 1 << tmcm.select_width, 1 << tmcm.p, 1 << tmcm.ibw
    grid = np.indices((n_i, n_k, n_x)).reshape(3, -1)
    i_vals, k_vals, x_vals = grid[0], grid[1], grid[2]
    got = eval_all(nl, i_vals, k_vals, x_vals)
    mask = (1 << (tmcm.cbw + tmcm.ibw)) - 1
    for iv, kv, xv, word in zip(i_vals, k_vals, x_vals, got):
        x_signed = xv - (1 << tmcm.ibw) if xv & (1 << (tmcm.ibw - 1)) else xv
        if iv < tmcm.N:
            expect = tmcm_multiply(tmcm, int(iv), int(kv), int(x_signed)) & mask
        else:
            expect = 0  # padded select reads a zero word
        assert word == expect, (iv, kv, xv)


def test_exhaustive_equivalence_small_widths():
    qf, da, tmcm, key = tiny_tmcm()
    assert tmcm.cbw == 4 and tmcm.ibw == 4
    assert_gates_match_word_level(tmcm)


@pytest.mark.parametrize("cbw_minus_ibw", [-1, 0, 1])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exhaustive_equivalence_random_tables(cbw_minus_ibw, data):
    assert_gates_match_word_level(data.draw(small_tmcms(cbw_minus_ibw)))


def linear_run(nl, input_masks, width):
    """Every gate in list order, no pruning: the reference for `PackedEvaluator.run`."""
    mask = (1 << width) - 1
    values = [0] * nl.n_nets
    values[1] = mask
    for name, ids in nl.inputs.items():
        for nid, m in zip(ids, input_masks[name]):
            values[nid] = m
    for j, (op, *operands) in enumerate(nl.gates):
        v = [values[n] for n in operands]
        if op == OP_AND:
            out = v[0] & v[1]
        elif op == OP_OR:
            out = v[0] | v[1]
        elif op == OP_XOR:
            out = v[0] ^ v[1]
        elif op == OP_NOT:
            out = v[0] ^ mask
        else:
            out = (v[0] & ~v[2]) | (v[1] & v[2])  # MUX2: b where s, else a
        values[nl.first_gate_id + j] = out
    return [values[n] for n in nl.outputs]


@pytest.mark.parametrize("cbw_minus_ibw", [-1, 0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pruned_run_matches_linear_evaluation(cbw_minus_ibw, data):
    # i and k are each either held (every bit all-0 or all-1, as during
    # extraction, so MUX2/AND/OR pruning applies) or random per lane.
    nl = lowered(data.draw(small_tmcms(cbw_minus_ibw)))
    width = data.draw(st.integers(1, 80))
    mask = (1 << width) - 1
    masks, held = {}, {}
    for port, ids in nl.inputs.items():
        is_held = port != "x" and data.draw(st.booleans(), label=f"hold {port}")
        lane = st.sampled_from([0, mask]) if is_held else st.integers(0, mask)
        masks[port] = data.draw(st.lists(lane, min_size=len(ids), max_size=len(ids)), label=port)
        if is_held:  # also passed to `run` as the int it holds
            held[port] = sum(1 << t for t, m in enumerate(masks[port]) if m)
    expected = linear_run(nl, masks, width)
    order = data.draw(st.permutations(range(len(nl.outputs))), label="out_bits")
    subset = order[: data.draw(st.integers(1, len(order)))]
    for ports in (masks, {**masks, **held}):
        assert PackedEvaluator(nl).run(ports, width) == expected
        assert PackedEvaluator(nl).run(ports, width, out_bits=subset) == [expected[t] for t in subset]


@st.composite
def random_netlists(draw, ports="a"):
    """Netlists built gate by gate, each gate reading only earlier nets;
    each port (one per letter of ``ports``) has 1..4 input bits."""
    inputs, first = {}, 2
    for name in ports:
        n_in = draw(st.integers(1, 4))
        inputs[name] = list(range(first, first + n_in))
        first += n_in
    gates = []
    for j in range(draw(st.integers(1, 24))):
        op = draw(st.integers(OP_AND, OP_MUX2))
        arity = 1 if op == OP_NOT else 3 if op == OP_MUX2 else 2
        net = st.integers(0, first + j - 1)
        gates.append((op, *draw(st.lists(net, min_size=arity, max_size=arity))))
    outputs = draw(st.lists(st.integers(0, first + len(gates) - 1), min_size=1, max_size=6))
    return GateNetlist(inputs=inputs, outputs=outputs, gates=gates)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_matches_linear_evaluation_on_random_netlists(data):
    # Unlike lowered netlists, these feed NOTs and MUX2 selects from gates
    # as well as from inputs, as an untrusted netlist may.
    nl = data.draw(random_netlists())
    nl.validate()
    width = data.draw(st.integers(1, 64))
    mask = (1 << width) - 1
    lane = st.one_of(st.sampled_from([0, mask]), st.integers(0, mask))
    n_in = len(nl.inputs["a"])
    masks = {"a": data.draw(st.lists(lane, min_size=n_in, max_size=n_in))}
    assert PackedEvaluator(nl).run(masks, width) == linear_run(nl, masks, width)
    assert GateNetlist.from_json_dict(nl.to_json_dict()).gates == nl.gates
    assert _json_text(nl, {}) == json.dumps(nl.to_json_dict(), indent=2, sort_keys=True)


def assert_cone_runs_match_linear_evaluation(nl, data):
    """`run` on one evaluator with each port varying in turn and the
    others held at random values, then with one port mixing held and
    varying bits, on random output bits in random order, against
    `linear_run`: each run's schedule is the cone of its varying bits."""
    width = data.draw(st.integers(1, 64), label="width")
    mask = (1 << width) - 1
    ev = PackedEvaluator(nl)

    def check(port, lane):
        held = {
            name: data.draw(st.integers(0, (1 << len(bits)) - 1), label=f"held {name}")
            for name, bits in nl.inputs.items()
            if name != port
        }
        n_bits = len(nl.inputs[port])
        lanes = data.draw(st.lists(lane, min_size=n_bits, max_size=n_bits))
        masks = {
            name: [const_mask((v >> t) & 1, width) for t in range(len(nl.inputs[name]))]
            for name, v in held.items()
        }
        expected = linear_run(nl, {**masks, port: lanes}, width)
        order = data.draw(st.permutations(range(len(nl.outputs))), label="out_bits")
        subset = order[: data.draw(st.integers(1, len(order)))]
        assert ev.run({**held, port: lanes}, width, subset) == [expected[t] for t in subset]

    for port in nl.inputs:
        check(port, st.integers(0, mask))
    port = data.draw(st.sampled_from(sorted(nl.inputs)), label="mixed port")
    check(port, st.one_of(st.sampled_from([0, mask]), st.integers(0, mask)))


@pytest.mark.parametrize("cbw_minus_ibw", [-1, 0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cone_run_matches_linear_evaluation(cbw_minus_ibw, data):
    nl = lowered(data.draw(small_tmcms(cbw_minus_ibw)))
    assert_cone_runs_match_linear_evaluation(nl, data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cone_run_matches_linear_evaluation_on_random_netlists(data):
    assert_cone_runs_match_linear_evaluation(data.draw(random_netlists("abc")), data)


def test_cone_run_exact_where_x_feeds_a_mux_under_a_held_select():
    # Net ids: s = 2, h = 3, x = 4..5.  The schedule evaluates both MUX2
    # data inputs' x side eagerly, whichever one the held select picks,
    # and an AND/OR of x with a held absorbing value.
    s, h, x0, x1 = 2, 3, 4, 5
    gates = [
        (OP_NOT, h),  # 6: held
        (OP_MUX2, x0, 6, s),  # 7: x on data input a, held gate on b
        (OP_MUX2, 6, x1, s),  # 8: held gate on a, x on b
        (OP_AND, 7, h),  # 9: x behind a held AND input
        (OP_OR, 8, h),  # 10: x behind a held OR input
        (OP_XOR, 9, 10),  # 11
        (OP_MUX2, h, 6, x0),  # 12: x as the select
    ]
    nl = GateNetlist(
        inputs={"s": [s], "h": [h], "x": [x0, x1]}, outputs=[11, 7, 8, 6, 12, x1, 0], gates=gates
    )
    nl.validate()
    lanes = pack_value_bits(np.arange(4), 2)  # every x on 4 lanes
    ev = PackedEvaluator(nl)
    for held_s in (0, 1):
        for held_h in (0, 1):
            masks = {"s": [const_mask(held_s, 4)], "h": [const_mask(held_h, 4)], "x": lanes}
            got = ev.run({"s": held_s, "h": held_h, "x": lanes}, 4)
            assert got == linear_run(nl, masks, 4)
            held, steps, _ = ev._schedules[tuple(range(len(nl.outputs)))][1]
            assert [step[0] for step in steps] == [7, 8, 9, 10, 11, 12] and held == [6]


def test_schedule_reused_only_for_the_same_varying_bits_and_outputs():
    # Two runs vary the same bits of x under different held i and k, so
    # the second reuses the first's schedule; the third reads other
    # output bits.  A schedule kept across a change of held values or
    # output bits would give stale results.
    tmcm = tiny_tmcm()[2]
    nl = lowered(tmcm)
    width = 1 << tmcm.ibw
    x = pack_value_bits(np.arange(width), tmcm.ibw)
    ev = PackedEvaluator(nl)
    for i, k, out_bits in ((0, 0, None), (2, 3, None), (1, 1, [3, 0, 5])):
        held = {
            port: [const_mask((v >> t) & 1, width) for t in range(len(nl.inputs[port]))]
            for port, v in (("i", i), ("k", k))
        }
        expected = linear_run(nl, {**held, "x": x}, width)
        if out_bits is not None:
            expected = [expected[t] for t in out_bits]
        assert ev.run({"i": i, "k": k, "x": x}, width, out_bits) == expected


def test_schedule_kept_per_output_bits_until_the_varying_bits_change(monkeypatch):
    # Any schedule gives exact results, so the builds are counted: a
    # schedule is kept per tuple of output bits across runs that read
    # other bits, and rebuilt when the varying bits change.
    tmcm = tiny_tmcm()[2]
    nl = lowered(tmcm)
    width = 1 << tmcm.ibw
    x = pack_value_bits(np.arange(width), tmcm.ibw)
    k = pack_value_bits(np.arange(width) % (1 << tmcm.p), tmcm.p)
    built = []
    original = PackedEvaluator._build_schedule

    def counting_build(self, *args):
        built.append(args)
        return original(self, *args)

    monkeypatch.setattr(PackedEvaluator, "_build_schedule", counting_build)
    ev = PackedEvaluator(nl)
    # (i, k, out_bits) with x varying, and the schedules built after the run.
    runs = [(1, 2, None, 1), (1, 2, [0, 1, 2], 2), (0, 3, None, 2), (1, k, None, 3), (2, 1, [0, 1, 2], 3)]
    for i, k_port, out_bits, builds in runs:
        ports = {"i": i, "k": k_port, "x": x}
        masks = {name: v for name, v in ports.items() if isinstance(v, list)}
        for name, v in ports.items():
            if isinstance(v, int):
                masks[name] = [const_mask((v >> t) & 1, width) for t in range(len(nl.inputs[name]))]
        expected = linear_run(nl, masks, width)
        if out_bits is not None:
            expected = [expected[t] for t in out_bits]
        assert ev.run(ports, width, out_bits) == expected
        assert len(built) == builds


def _lower_walking_every_leaf(tmcm):
    """Oracle: the lowering with one builder call per constant leaf bit
    and a full tree walk for every table bit, equal entries or not."""
    b = NetlistBuilder()
    i_bits = b.add_input("i", tmcm.select_width)
    k_bits = b.add_input("k", tmcm.p)
    x_bits = b.add_input("x", tmcm.ibw)

    def const(bit):
        return CONST1 if bit else CONST0

    def mux_tree(entries, sel, memo):
        if not sel:
            return entries[0]
        key = (entries, sel)
        if key not in memo:
            lo = mux_tree(entries[0::2], sel[1:], memo)
            hi = mux_tree(entries[1::2], sel[1:], memo)
            memo[key] = b.mux(lo, hi, sel[0])
        return memo[key]

    memo = {}
    words = []
    mask = (1 << tmcm.cbw) - 1
    for table, off, w in zip(tmcm.mux_tables, key_offsets(tmcm.key_widths), tmcm.key_widths):
        sel = tuple(k_bits[off : off + w])
        leaf_words = [[const(((c & mask) >> t) & 1) for t in range(tmcm.cbw)] for c in table]
        words.append(
            [mux_tree(tuple(lw[t] for lw in leaf_words), sel, memo) for t in range(tmcm.cbw)]
        )
    padded = words + [[CONST0] * tmcm.cbw] * ((1 << tmcm.select_width) - tmcm.N)
    selected = [
        mux_tree(tuple(wd[t] for wd in padded), tuple(i_bits), memo) for t in range(tmcm.cbw)
    ]
    product = _signed_multiplier(b, selected, x_bits, tmcm.cbw + tmcm.ibw)
    return b.build(product, meta={"N": tmcm.N, "cbw": tmcm.cbw, "ibw": tmcm.ibw, "p": tmcm.p})


def _assert_same_netlist(got, expected):
    assert got.gates == expected.gates
    assert got.inputs == expected.inputs
    assert got.outputs == expected.outputs
    assert got.meta == expected.meta


@pytest.mark.parametrize("cbw_minus_ibw", [-1, 0, 1, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lowering_equals_per_leaf_walk_gate_for_gate(cbw_minus_ibw, data):
    # Gate order is the artifact: the same gates in the same order, not
    # just an equivalent circuit.
    tmcm = data.draw(small_tmcms(cbw_minus_ibw))
    _assert_same_netlist(lowered(tmcm), _lower_walking_every_leaf(tmcm))


@st.composite
def wide_tmcms(draw):
    """TMCM blocks with key tables of 1 to 512 entries and cbw 1..12.

    Each table's constants have a drawn number of magnitude bits, so the
    bit planes above them are all 0 or all 1, and may repeat.
    """
    cbw = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for w in draw(st.lists(st.integers(0, 9), min_size=1, max_size=3)):
        m = draw(st.integers(0, cbw - 1))
        tables.append(tuple(rng.integers(-(1 << m), 1 << m, size=1 << w).tolist()))
    return ObfuscatedTMCM(ibw=2, cbw=cbw, mux_tables=tuple(tables), seed=0)


@settings(max_examples=60, deadline=None)
@given(tmcm=wide_tmcms())
def test_wide_table_lowering_equals_per_leaf_walk_gate_for_gate(tmcm):
    # The truth-table leaf order reverses the key slice's bits, which
    # tables of 1 or 2 key bits cannot check for wider slices.
    _assert_same_netlist(lowered(tmcm), _lower_walking_every_leaf(tmcm))


@pytest.mark.parametrize("dsm", list(DecoyMethod))
def test_reference_lowering_equals_per_leaf_walk(built, dsm):
    b = built(1, dsm)
    _assert_same_netlist(b.netlist, _lower_walking_every_leaf(b.tmcm))


def test_zero_input_gives_zero_product():
    _, _, tmcm, key = tiny_tmcm()
    nl = lowered(tmcm)
    got = eval_all(nl, [1, 2], [key.bits] * 2, [0, 0])
    assert list(got) == [0, 0]


def test_netlist_topological_and_valid(built):
    nl = built(1, DecoyMethod.HDRD).netlist
    nl.validate()
    first = nl.first_gate_id
    for j, gate in enumerate(nl.gates):
        assert all(op < first + j for op in gate[1:])


def test_gate_word_agreement_full_size(built):
    b = built(1, DecoyMethod.HDRD)
    tmcm, nl = b.tmcm, b.netlist
    rng = np.random.default_rng(8)
    n = 100_000
    i_vals = rng.integers(0, tmcm.N, size=n)
    k_vals = rng.integers(0, 1 << tmcm.p, size=n, dtype=np.uint64)
    x_vals = rng.integers(0, 1 << tmcm.ibw, size=n, dtype=np.uint64)
    got = eval_all(nl, i_vals, k_vals, x_vals)
    mask = (1 << (tmcm.cbw + tmcm.ibw)) - 1
    stride = 509  # spot-check a deterministic subsample of the lanes
    for s in range(0, n, stride):
        xv = int(x_vals[s])
        x_signed = xv - (1 << tmcm.ibw) if xv & (1 << (tmcm.ibw - 1)) else xv
        expect = tmcm_multiply(tmcm, int(i_vals[s]), int(k_vals[s]), x_signed) & mask
        assert got[s] == expect


def test_key_slice_locality_at_gate_level():
    qf, da, tmcm, key = tiny_tmcm()
    nl = lowered(tmcm)
    base = eval_all(nl, range(tmcm.N), [key.bits] * tmcm.N, [1] * tmcm.N)
    flipped = key.bits ^ 1  # slice 0
    out = eval_all(nl, range(tmcm.N), [flipped] * tmcm.N, [1] * tmcm.N)
    assert out[0] != base[0]
    assert list(out[1:]) == list(base[1:])


def test_builder_folds_constants():
    b = NetlistBuilder()
    (x,) = b.add_input("x", 1)
    assert b.and_(x, 0) == 0
    assert b.and_(x, 1) == x
    assert b.or_(x, 1) == 1
    assert b.xor_(x, 0) == x
    assert b.mux(0, 1, x) == x
    assert b.mux(1, 0, x) == b.not_(x)
    assert b.not_(b.not_(x)) == x
    assert b.xor_(x, x) == 0


def test_builder_structural_hashing():
    b = NetlistBuilder()
    x = b.add_input("x", 2)
    g1 = b.and_(x[0], x[1])
    g2 = b.and_(x[1], x[0])
    assert g1 == g2
    assert len(b.gates) == 1


def test_netlist_json_round_trip(built):
    nl = built(1, DecoyMethod.HDRD).netlist
    again = GateNetlist.from_json_dict(nl.to_json_dict())
    assert again.gates == nl.gates
    assert again.inputs == nl.inputs
    assert again.outputs == nl.outputs
    assert again.meta == nl.meta


def test_single_tap_netlist():
    qf = make_quantized([5], [4], [6], Q=4)
    da = assign_decoys(qf, 1, DecoyMethod.HD, seed=0)
    tmcm, key = build_tmcm(qf, da, ibw=4, seed=1)
    nl = lowered(tmcm)
    assert nl.inputs["i"] == []
    got = eval_all(nl, [0, 0], [key.bits, key.bits ^ 1], [1, 1])
    assert got[0] == 5
    assert got[1] != 5


# Top-level fields sorting before, between and after the netlist's own.
JSON_EXTRA = {
    "run_config": {"dsm": "rd", "p": 247, "quant": "d/filter1.quant.json", "seed": None},
    "a_note": [1.5e-08, [], {}, {"nested": [True, "x"]}],
    "h": 6.04e-05,
    "zz": "last",
}


def _json_text_oracle(nl, extra):
    return json.dumps({**nl.to_json_dict(), **extra}, indent=2, sort_keys=True)


def _json_text(nl, extra):
    buf = io.StringIO()
    nl.write_json(buf, extra)
    return buf.getvalue()


@pytest.mark.parametrize("extra", [{}, JSON_EXTRA], ids=["no-extra", "extra"])
def test_json_text_equals_indented_dump_all_ops(extra):
    gates = [(OP_AND, 2, 3), (OP_OR, 3, 4), (OP_XOR, 5, 6), (OP_NOT, 7), (OP_MUX2, 6, 8, 2)]
    nl = GateNetlist(inputs={"x": [2, 3], "a": [4]}, outputs=[9, 8, 0], gates=gates,
                     meta={"N": 1, "p": 2})
    nl.validate()
    text = _json_text(nl, extra)
    assert text == _json_text_oracle(nl, extra)
    again = GateNetlist.from_json_dict(json.loads(text))
    assert (again.gates, again.inputs, again.outputs, again.meta) == (
        nl.gates, nl.inputs, nl.outputs, nl.meta
    )


def test_json_text_equals_indented_dump_without_gates():
    nl = GateNetlist(inputs={"i": [], "x": [2]}, outputs=[2, 1], gates=[])
    text = _json_text(nl, JSON_EXTRA)
    assert text == _json_text_oracle(nl, JSON_EXTRA)
    assert GateNetlist.from_json_dict(json.loads(text)).gates == []


def test_json_text_equals_indented_dump_lowered(built):
    nl = built(1, DecoyMethod.HDRD).netlist
    assert {g[0] for g in nl.gates} == {OP_AND, OP_OR, OP_XOR, OP_NOT, OP_MUX2}
    text = _json_text(nl, JSON_EXTRA)
    assert text == _json_text_oracle(nl, JSON_EXTRA)
    assert GateNetlist.from_json_dict(json.loads(text)).gates == nl.gates


@pytest.mark.parametrize("n_gates", range(5))
def test_json_text_equals_indented_dump_across_write_blocks(monkeypatch, n_gates):
    # With 3 records per write: no gates, 1 gate, a block less one, a
    # block, a block and one.
    monkeypatch.setattr("firlock.netlist._GATES_PER_WRITE", 3)
    gates = [(OP_AND, 2, 3), (OP_OR, 3, 4), (OP_XOR, 5, 6), (OP_NOT, 7), (OP_MUX2, 6, 8, 2)]
    nl = GateNetlist(inputs={"x": [2, 3], "a": [4]}, outputs=[4 + n_gates, 0],
                     gates=gates[:n_gates], meta={"N": 1})
    nl.validate()
    writes = WriteLog()
    nl.write_json(writes, JSON_EXTRA)
    assert "".join(writes) == _json_text_oracle(nl, JSON_EXTRA)
    assert max(w.count('"op"') for w in writes) == min(n_gates, 3)
