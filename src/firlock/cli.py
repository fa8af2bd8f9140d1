"""Command line front end: design / obfuscate / attack / evaluate / bench.

Stages hand data over through files; every JSON artifact echoes the
run configuration (seeds included) so any output can be regenerated
byte-identically.  Exit codes: 0 success, 1 infeasible spec or attack
failure, 2 usage or I/O problems, which include a missing, malformed or
self-contradicting input artifact, an out-of-range parameter (``--keys``
below 0, ``--p`` below N, ``--ibw`` below 1 or too wide for 63-bit
outputs, a magnitude width beyond the decoy candidate limit) and a key
budget the decoy candidates cannot cover.  Every error is reported in
one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from firlock import design as fd
from firlock import decoys as dc
from firlock import tmcm as tm
from firlock import netlist as gn
from firlock import verilog as vg
from firlock import attack as atk
from firlock import evaluate as ev

__all__ = ["main", "bundled_spec_text"]

BENCH_FILTERS = (1, 2, 3)
BENCH_KEY_BITS = {1: 32, 2: 64, 3: 128}


def bundled_spec_text(index: int) -> str:
    """JSON text of one of the packaged reference filter specs."""
    return resources.files("firlock").joinpath(f"specs/filter{index}.json").read_text("utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load(path, what: str, parse):
    """Read a JSON artifact and build it with ``parse``.

    The single entry point for every input file: a missing file,
    invalid JSON, or a document lacking a field or holding one of the
    wrong type all surface as one-line ValueErrors (exit 2).
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"{what} file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return parse(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: {what} lacks field {exc}") from exc
    except (TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"{path}: malformed {what} ({exc})") from exc


def _parse_quant(doc):
    return fd.QuantizedFilter.from_json_dict(doc), doc.get("spec")


def _parse_netlist(doc):
    """A netlist carrying the ports and geometry the attack reads."""
    nl = gn.GateNetlist.from_json_dict(doc)
    missing = {"i", "k", "x"} - nl.inputs.keys() | {"N", "cbw", "ibw"} - nl.meta.keys()
    if missing:
        raise KeyError(", ".join(sorted(missing)))
    return nl


def _parse_secret(doc):
    """Spec, folded filter and key of a secret assignment that agree with each other."""
    spec = fd.FilterSpec.from_json_dict(doc["spec"])
    tmcm = tm.ObfuscatedTMCM.from_json_dict(doc["tmcm"])
    if spec.N != tmcm.N:
        raise ValueError(f"secret assignment: spec has N={spec.N} but its TMCM has {tmcm.N} taps")
    key = tm.SecretKey.from_hex(doc["key_hex"], tmcm.key_widths)
    if not 0 <= key.bits < 1 << key.p:
        raise ValueError(f"secret assignment: key_hex does not fit the TMCM's {key.p} key bits")
    return spec, tm.build_folded_filter(tmcm), key


def _config_dict(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def _run_design(spec: fd.FilterSpec, grid_density: float):
    grid = fd.build_frequency_grid(spec, grid_density)
    coeffs = fd.design_coefficients(spec, grid)
    bounds = fd.coefficient_bounds(spec, grid)
    return coeffs, bounds, fd.quantize(coeffs, bounds, spec.Q)


def cmd_design(args) -> int:
    spec = _load(args.spec, "spec", fd.FilterSpec.from_json_dict)
    config = _config_dict(args, ["spec", "grid_density", "verify_density", "out"])
    coeffs, bounds, qf = _run_design(spec, args.grid_density)
    vgrid = fd.build_frequency_grid(spec, args.verify_density)
    report = fd.verify_spec(qf, spec, vgrid)
    float_report = fd.verify_response(coeffs.h, spec, vgrid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.spec).stem
    _write_json(
        out / f"{stem}.float.json",
        {
            "spec": spec.to_json_dict(),
            "h": list(coeffs.h),
            "lower": list(bounds.lower),
            "upper": list(bounds.upper),
            "run_config": config,
        },
    )
    _write_json(
        out / f"{stem}.quant.json",
        {"spec": spec.to_json_dict(), **qf.to_json_dict(), "run_config": config},
    )
    _write_json(
        out / f"{stem}.verify.json",
        {
            "spec": spec.to_json_dict(),
            "quantized": report.to_json_dict(),
            "float": float_report.to_json_dict(),
            "run_config": config,
        },
    )
    print(f"designed {stem}: N={spec.N}, mbw={qf.mbw}, quantized response "
          f"{'meets spec' if report.ok else 'violates spec (quantization)'}")
    return 0


def _obfuscate(qf, dsm, p, ibw, seed):
    da = dc.assign_decoys(qf, p, dsm, seed)
    tmcm, key = tm.build_tmcm(qf, da, ibw, seed + 1)
    nl = gn.lower_to_gates(tmcm)
    return da, tmcm, key, nl


def cmd_obfuscate(args) -> int:
    qf, spec_dict = _load(args.quant, "quantized filter", _parse_quant)
    config = _config_dict(args, ["quant", "dsm", "p", "ibw", "seed_obfuscate", "out"])
    dsm = dc.DecoyMethod.parse(args.dsm)
    da, tmcm, key, nl = _obfuscate(qf, dsm, args.p, args.ibw, args.seed_obfuscate)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "netlist.json", {**nl.to_json_dict(), "run_config": config})
    header = json.dumps(config, sort_keys=True)
    (out / "design.v").write_text(vg.emit_verilog(nl, header=f"config: {header}"), "utf-8")
    (out / "key.hex").write_text(key.to_hex() + "\n", "utf-8")
    _write_json(out / "layout.json", {**key.layout_json_dict(), "run_config": config})
    _write_json(
        out / "secret-assignment.json",
        {
            "secret": True,
            "spec": spec_dict,
            "quantized": qf.to_json_dict(),
            "decoys": da.to_json_dict(),
            "tmcm": tmcm.to_json_dict(),
            "key_hex": key.to_hex(),
            "run_config": config,
        },
    )
    print(f"obfuscated: N={tmcm.N}, p={tmcm.p}, cbw={tmcm.cbw}, "
          f"{len(nl.gates)} gates, key {key.to_hex()}")
    return 0


def _attack(nl, seed, truth):
    """Extraction, decoy-method verdict (None if inconclusive), report."""
    recovered = atk.extract_constants(nl, seed=seed)
    try:
        verdict = atk.classify_dsm(recovered)
    except atk.InconclusiveClassification:
        verdict = None
    report = atk.compile_report(recovered, ground_truth=truth, dsm_verdict=verdict)
    return recovered, verdict, report


def cmd_attack(args) -> int:
    config = _config_dict(args, ["netlist", "seed_attack", "ground_truth", "out"])
    nl = _load(args.netlist, "netlist", _parse_netlist)
    truth = None
    if args.ground_truth:
        truth = _load(
            args.ground_truth, "secret assignment", lambda d: d["quantized"]["coeffs"]
        )
    recovered, verdict, report = _attack(nl, args.seed_attack, truth)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "recovered.json", {**recovered.to_json_dict(), "run_config": config})
    _write_json(out / "report.json", {**report.to_json_dict(), "run_config": config})
    label = verdict.label if verdict else "inconclusive"
    cdc = "n/a" if report.cdc is None else report.cdc
    print(f"attack: vc={report.vc}, cdc={cdc}, apc=2^{report.apc_log2}, dsm={label}")
    return 0


def cmd_evaluate(args) -> int:
    config = _config_dict(
        args, ["secret", "keys", "max_hd", "seed_eval", "curve_points", "verify_density", "out"]
    )
    spec, filt, key = _load(args.secret, "secret assignment", _parse_secret)
    wrong = list(ev.sample_wrong_keys(key, args.keys, args.max_hd, args.seed_eval).keys)
    report = ev.behavior_report(
        filt, key, spec, wrong,
        grid_density=args.verify_density, curve_points=args.curve_points,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "behavior.json", {**report.to_json_dict(), "run_config": config})
    (out / "curves.csv").write_text(ev.emit_curves(report), "utf-8")
    print(f"evaluate: {len(wrong)} wrong keys, violation fraction "
          f"{report.violation_fraction:.3f}")
    return 0


def cmd_bench(args) -> int:
    """End-to-end run of the three reference filters, one row per method."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    methods = ("hd", "rd", "hdrd") if args.dsm == "all" else (args.dsm,)
    rows = []
    for index in BENCH_FILTERS:
        spec = fd.FilterSpec.from_json_dict(json.loads(bundled_spec_text(index)))
        _, _, qf = _run_design(spec, args.grid_density)
        p = BENCH_KEY_BITS[index]
        for method in methods:
            da, tmcm, key, nl = _obfuscate(
                qf, dc.DecoyMethod.parse(method), p, args.ibw, args.seed_obfuscate
            )
            _, verdict, report = _attack(nl, args.seed_attack, qf.coeffs)
            filt = tm.build_folded_filter(tmcm)
            wrong = list(ev.sample_wrong_keys(key, args.keys, args.max_hd, args.seed_eval).keys)
            wrong += ev.single_slice_corruptions(key)
            behavior = ev.behavior_report(filt, key, spec, wrong)
            rows.append(
                {
                    "filter": index,
                    "p": p,
                    "dsm": method,
                    "acc": None if verdict is None else verdict.score,
                    "vc": report.vc,
                    "cdc": report.cdc,
                    "apc_log2": report.apc_log2,
                    "violation_fraction": behavior.violation_fraction,
                }
            )
    _write_json(out / "bench.json", {"rows": rows})
    print(f"{'filter':>6} {'p':>4} {'dsm':>5} {'acc':>6} {'vc':>4} {'cdc':>4} "
          f"{'apc':>6} {'wrong-key viol.':>15}")
    for r in rows:
        acc = "-" if r["acc"] is None else f"{r['acc']:.2f}"
        print(f"{r['filter']:>6} {r['p']:>4} {r['dsm']:>5} {acc:>6} {r['vc']:>4} "
              f"{r['cdc']:>4} {'2^' + str(r['apc_log2']):>6} {r['violation_fraction']:>15.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firlock",
        description="FIR filter design, key-based obfuscation, attack, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="LP design, bounds, quantization")
    p_design.add_argument("--spec", required=True, help="filter spec JSON file")
    p_design.add_argument("--grid-density", type=float, default=16.0, dest="grid_density")
    p_design.add_argument("--verify-density", type=float, default=160.0, dest="verify_density")
    p_design.add_argument("--out", default=".")
    p_design.set_defaults(func=cmd_design)

    p_obf = sub.add_parser("obfuscate", help="decoys, TMCM, key, netlist, Verilog")
    p_obf.add_argument("--quant", required=True, help="quantized filter JSON (design output)")
    p_obf.add_argument("--dsm", choices=["hd", "rd", "hdrd"], default="hdrd")
    p_obf.add_argument("--p", type=int, required=True, help="number of key bits")
    p_obf.add_argument("--ibw", type=int, default=32, help="filter input bit-width")
    p_obf.add_argument("--seed-obfuscate", type=int, default=1, dest="seed_obfuscate")
    p_obf.add_argument("--out", default=".")
    p_obf.set_defaults(func=cmd_obfuscate)

    p_atk = sub.add_parser("attack", help="extract constants and recover coefficients")
    p_atk.add_argument("--netlist", required=True, help="netlist JSON (obfuscate output)")
    p_atk.add_argument("--seed-attack", type=int, default=2, dest="seed_attack")
    p_atk.add_argument("--ground-truth", default=None, dest="ground_truth",
                       help="secret-assignment.json, enables cdc scoring")
    p_atk.add_argument("--out", default=".")
    p_atk.set_defaults(func=cmd_attack)

    p_eval = sub.add_parser("evaluate", help="wrong-key behavior report and curves")
    p_eval.add_argument("--secret", required=True, help="secret-assignment.json")
    p_eval.add_argument("--keys", type=int, default=50, help="wrong keys to sample")
    p_eval.add_argument("--max-hd", type=int, default=4, dest="max_hd")
    p_eval.add_argument("--seed-eval", type=int, default=3, dest="seed_eval")
    p_eval.add_argument("--curve-points", type=int, default=257, dest="curve_points")
    p_eval.add_argument("--verify-density", type=float, default=160.0, dest="verify_density")
    p_eval.add_argument("--out", default=".")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("bench", help="all three reference filters end to end")
    p_bench.add_argument("--dsm", choices=["hd", "rd", "hdrd", "all"], default="all")
    p_bench.add_argument("--ibw", type=int, default=32)
    p_bench.add_argument("--grid-density", type=float, default=16.0, dest="grid_density")
    p_bench.add_argument("--keys", type=int, default=50)
    p_bench.add_argument("--max-hd", type=int, default=4, dest="max_hd")
    p_bench.add_argument("--seed-obfuscate", type=int, default=1, dest="seed_obfuscate")
    p_bench.add_argument("--seed-attack", type=int, default=2, dest="seed_attack")
    p_bench.add_argument("--seed-eval", type=int, default=3, dest="seed_eval")
    p_bench.add_argument("--out", default=".")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fd.InfeasibleSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (atk.NoConsistentBit, atk.VerificationMismatch, atk.ExtractionAnomaly) as exc:
        print(f"error: extraction failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, dc.InsufficientCandidates, dc.EmptyCandidateSet) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
