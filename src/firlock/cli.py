"""Command line front end: design / obfuscate / attack / evaluate / bench.

Stages hand data over through files; every JSON artifact echoes the
run configuration (seeds included) so any output can be regenerated
byte-identically.  The exit codes are listed in the README ("Exit
codes"); every error is reported in one line on stderr.

Only `firlock.design`, which every subcommand reads its input with, is
imported with this module; each command imports the other stages it
runs, so a process compiles and runs no module it does not use.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from firlock import design as fd
from firlock import forkmap as fm

__all__ = ["main", "bundled_spec_text"]

BENCH_KEY_BITS = {1: 32, 2: 64, 3: 128}


def bundled_spec_text(index: int) -> str:
    """JSON text of one of the packaged reference filter specs."""
    return resources.files("firlock").joinpath(f"specs/filter{index}.json").read_text("utf-8")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    """A quantized filter, symmetric as designed, and the spec dict whose N and Q it matches."""
    qf = fd.QuantizedFilter.from_json_dict(doc)
    spec = fd.FilterSpec.from_json_dict(doc["spec"])
    if spec.N != qf.N:
        raise ValueError(f"quantized filter: spec has N={spec.N} but there are {qf.N} coefficients")
    if spec.Q != qf.Q:
        raise ValueError(f"quantized filter: spec has Q={spec.Q} but the filter has Q={qf.Q}")
    for name in ("coeffs", "bounds_l", "bounds_u"):
        values = getattr(qf, name).tolist()
        if values != values[::-1]:
            raise ValueError(f"quantized filter: {name} is not symmetric")
    return qf, doc["spec"]


def _parse_netlist(doc):
    """A netlist whose ports match the geometry in its ``meta``, which the attack reads."""
    from firlock import netlist as gn, tmcm as tm

    nl = gn.GateNetlist.from_json_dict(doc)
    missing = {"i", "k", "x"} - nl.inputs.keys() | {"N", "cbw", "ibw"} - nl.meta.keys()
    if missing:
        raise KeyError(", ".join(sorted(missing)))
    extra = ", ".join(sorted(nl.inputs.keys() - {"i", "k", "x"}))
    if extra:
        raise ValueError(f"netlist input ports must be exactly i, k and x; extra ports: {extra}")
    meta = nl.meta
    for name in ("N", "cbw", "ibw"):
        if type(meta[name]) is not int or meta[name] < 1:
            raise ValueError(f"netlist meta {name} must be an integer >= 1, got {meta[name]!r}")
    k_bits = len(nl.inputs["k"])
    widths = {
        "ibw": (meta["ibw"], len(nl.inputs["x"]), "x input bits"),
        "cbw + ibw": (meta["cbw"] + meta["ibw"], len(nl.outputs), "output bits"),
        "clog2(N)": (tm.clog2(meta["N"]), len(nl.inputs["i"]), "i input bits"),
        "p": (fd.strict_int(meta.get("p", k_bits), "netlist meta p"), k_bits, "k input bits"),
    }
    for field, (want, got, what) in widths.items():
        if want != got:
            raise ValueError(f"netlist meta gives {field} = {want!r}, but it has {got} {what}")
    return nl


def _parse_secret(doc):
    """Spec, TMCM and key of a secret assignment that agree with each other."""
    from firlock import tmcm as tm

    spec = fd.FilterSpec.from_json_dict(doc["spec"])
    tmcm = tm.ObfuscatedTMCM.from_json_dict(doc["tmcm"])
    if spec.N != tmcm.N:
        raise ValueError(f"secret assignment: spec has N={spec.N} but its TMCM has {tmcm.N} taps")
    key = tm.SecretKey.from_hex(doc["key_hex"], tmcm.key_widths)
    if not 0 <= key.bits < 1 << key.p:
        raise ValueError(f"secret assignment: key_hex does not fit the TMCM's {key.p} key bits")
    return spec, tmcm, key


# Counts and seeds that numpy would reject only deep inside a stage, with
# a message that names no option.
_NON_NEGATIVE_OPTIONS = ("keys", "curve_points", "seed_obfuscate", "seed_attack", "seed_eval")


def _check_non_negative(args) -> None:
    for name in _NON_NEGATIVE_OPTIONS:
        value = getattr(args, name, 0)
        if value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be non-negative, got {value}")


def _config_dict(args) -> dict:
    """The parsed options of the subcommand, the ``run_config`` of its artifacts."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func")}


def _run_design(spec: fd.FilterSpec, grid_density: float):
    grid = fd.build_frequency_grid(spec, grid_density)
    coeffs = fd.design_coefficients(spec, grid)
    bounds = fd.coefficient_bounds(spec, grid)
    return coeffs, bounds, fd.quantize(coeffs, bounds, spec.Q)


def cmd_design(args) -> int:
    spec = _load(args.spec, "spec", fd.FilterSpec.from_json_dict)
    config = _config_dict(args)
    vgrid = fd.build_frequency_grid(spec, args.verify_density)
    coeffs, bounds, qf = _run_design(spec, args.grid_density)
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
    from firlock import decoys as dc, netlist as gn, tmcm as tm

    da = dc.assign_decoys(qf, p, dsm, seed)
    tmcm, key = tm.build_tmcm(qf, da, ibw, seed + 1)
    nl = gn.lower_to_gates(tmcm)
    return da, tmcm, key, nl


def cmd_obfuscate(args) -> int:
    from firlock import verilog as vg

    qf, spec_dict = _load(args.quant, "quantized filter", _parse_quant)
    config = _config_dict(args)
    da, tmcm, key, nl = _obfuscate(qf, args.dsm, args.p, args.ibw, args.seed_obfuscate)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "netlist.json", "w", encoding="utf-8") as fh:
        nl.write_json(fh, {"run_config": config})
        fh.write("\n")
    header = json.dumps(config, sort_keys=True)
    with open(out / "design.v", "w", encoding="utf-8") as fh:
        vg.write_verilog(nl, fh, header=f"config: {header}")
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
    from firlock import attack as atk

    recovered = atk.extract_constants(nl, seed=seed)
    try:
        verdict = atk.classify_dsm(recovered)
    except atk.InconclusiveClassification:
        verdict = None
    report = atk.compile_report(recovered, ground_truth=truth, dsm_verdict=verdict)
    return recovered, verdict, report


def cmd_attack(args) -> int:
    from firlock import tmcm as tm

    config = _config_dict(args)
    nl = _load(args.netlist, "netlist", _parse_netlist)
    truth = None
    if args.ground_truth:
        _, tmcm, key = _load(args.ground_truth, "secret assignment", _parse_secret)
        n = nl.meta["N"]
        if tmcm.N != n:
            raise ValueError(f"ground truth has {tmcm.N} coefficients but the netlist has N={n}")
        truth = [tm.tmcm_select(tmcm, i, key.bits) for i in range(n)]
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
    from firlock import evaluate as ev

    config = _config_dict(args)
    spec, tmcm, key = _load(args.secret, "secret assignment", _parse_secret)
    wrong = ev.sample_wrong_keys(key, args.keys, args.max_hd, args.seed_eval)
    report = ev.behavior_report(
        tmcm, key, spec, wrong,
        grid_density=args.verify_density, curve_points=args.curve_points,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "behavior.json", {**report.to_json_dict(), "run_config": config})
    with open(out / "curves.csv", "w", encoding="utf-8") as fh:
        ev.write_curves(report, fh)
    print(f"evaluate: {len(wrong)} wrong keys, violation fraction "
          f"{report.violation_fraction:.3f}")
    return 0


def cmd_bench(args) -> int:
    """End-to-end run of the three reference filters, one row per method."""
    from firlock import evaluate as ev

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    methods = ("hd", "rd", "hdrd") if args.dsm == "all" else (args.dsm,)
    rows, secret_violates = [], []
    for index, p in BENCH_KEY_BITS.items():
        spec = fd.FilterSpec.from_json_dict(json.loads(bundled_spec_text(index)))
        _, _, qf = _run_design(spec, args.grid_density)
        for method in methods:
            da, tmcm, key, nl = _obfuscate(qf, method, p, args.ibw, args.seed_obfuscate)
            _, verdict, report = _attack(nl, args.seed_attack, qf.coeffs)
            wrong = [
                *ev.sample_wrong_keys(key, args.keys, args.max_hd, args.seed_eval),
                *ev.single_slice_corruptions(key),
            ]
            behavior = ev.behavior_report(tmcm, key, spec, wrong)
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
        if behavior.entries[0].violates:
            secret_violates.append(index)
    _write_json(out / "bench.json", {"rows": rows})
    print(f"{'filter':>6} {'p':>4} {'dsm':>5} {'acc':>6} {'vc':>4} {'cdc':>4} "
          f"{'apc':>6} {'wrong-key viol.':>15}")
    for r in rows:
        acc = "-" if r["acc"] is None else f"{r['acc']:.2f}"
        print(f"{r['filter']:>6} {r['p']:>4} {r['dsm']:>5} {acc:>6} {r['vc']:>4} "
              f"{r['cdc']:>4} {'2^' + str(r['apc_log2']):>6} {r['violation_fraction']:>15.3f}")
    for index in secret_violates:
        print(f"filter {index}: the secret key itself violates the spec, so its "
              f"wrong-key violation fraction does not measure the decoys")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firlock",
        description="FIR filter design, key-based obfuscation, attack, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="LP design, bounds, quantization")
    p_design.add_argument("--spec", required=True, help="filter spec JSON file")
    p_design.add_argument("--grid-density", type=float, default=fd.GRID_DENSITY)
    p_design.add_argument("--verify-density", type=float, default=fd.VERIFY_DENSITY)
    p_design.add_argument("--out", default=".")
    p_design.set_defaults(func=cmd_design)

    p_obf = sub.add_parser("obfuscate", help="decoys, TMCM, key, netlist, Verilog")
    p_obf.add_argument("--quant", required=True, help="quantized filter JSON (design output)")
    p_obf.add_argument("--dsm", choices=["hd", "rd", "hdrd"], default="hdrd")
    p_obf.add_argument("--p", type=int, required=True, help="number of key bits")
    p_obf.add_argument("--ibw", type=int, default=32, help="filter input bit-width")
    p_obf.add_argument("--seed-obfuscate", type=int, default=1)
    p_obf.add_argument("--out", default=".")
    p_obf.set_defaults(func=cmd_obfuscate)

    p_atk = sub.add_parser("attack", help="extract constants and recover coefficients")
    p_atk.add_argument("--netlist", required=True, help="netlist JSON (obfuscate output)")
    p_atk.add_argument("--seed-attack", type=int, default=2)
    p_atk.add_argument("--ground-truth", help="secret-assignment.json, enables cdc scoring")
    p_atk.add_argument("--out", default=".")
    p_atk.set_defaults(func=cmd_attack)

    p_eval = sub.add_parser("evaluate", help="wrong-key behavior report and curves")
    p_eval.add_argument("--secret", required=True, help="secret-assignment.json")
    p_eval.add_argument("--keys", type=int, default=50, help="wrong keys to sample")
    p_eval.add_argument("--max-hd", type=int, default=4)
    p_eval.add_argument("--seed-eval", type=int, default=3)
    p_eval.add_argument("--curve-points", type=int, default=fd.CURVE_POINTS)
    p_eval.add_argument("--verify-density", type=float, default=fd.VERIFY_DENSITY)
    p_eval.add_argument("--out", default=".")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("bench", help="all three reference filters end to end")
    p_bench.add_argument("--dsm", choices=["hd", "rd", "hdrd", "all"], default="all")
    p_bench.add_argument("--ibw", type=int, default=32)
    p_bench.add_argument("--grid-density", type=float, default=fd.GRID_DENSITY)
    p_bench.add_argument("--keys", type=int, default=50)
    p_bench.add_argument("--max-hd", type=int, default=4)
    p_bench.add_argument("--seed-obfuscate", type=int, default=1)
    p_bench.add_argument("--seed-attack", type=int, default=2)
    p_bench.add_argument("--seed-eval", type=int, default=3)
    p_bench.add_argument("--out", default=".")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _raised_by(module: str, *names: str) -> tuple:
    """The exception classes ``names`` of ``firlock.<module>``, or none if
    that module was never imported, so nothing of it can have raised."""
    loaded = sys.modules.get(f"firlock.{module}")
    return () if loaded is None else tuple(getattr(loaded, name) for name in names)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_non_negative(args)
        return args.func(args)
    except (fd.InfeasibleSpec, fd.LPSolverError, fm.WorkerLost) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _raised_by("attack", "NoConsistentBit", "VerificationMismatch") as exc:
        print(f"error: extraction failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, MemoryError, ValueError,
            *_raised_by("decoys", "InsufficientCandidates", "EmptyCandidateSet")) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
