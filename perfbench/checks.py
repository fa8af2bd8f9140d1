"""Output checks on the artifacts each subcommand leaves on disk.

The checks use numpy and the artifact files only, never firlock code, so
a defect in a layer cannot also hide itself from its check.  Each
``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Spec tolerance of the float design, as in firlock's LP residual gate.
SPEC_TOL = 1e-8
# The checking grid is 10x denser than the design grid.
CHECK_DENSITY_FACTOR = 10


def _load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _zero_phase(half, w):
    """G(w) = h_M + 2 sum_{n=1..M} h_{M-n} cos(n w), summed term by term."""
    M = len(half) - 1
    g = np.full(len(w), half[M], dtype=float)
    for n in range(1, M + 1):
        g += 2.0 * half[M - n] * np.cos(n * w)
    return g


def check_design(out_dir, spec_path, grid_density):
    problems = []
    stem = Path(spec_path).stem
    quant = _load(Path(out_dir) / f"{stem}.quant.json")
    coeffs = np.asarray(quant["coeffs"], dtype=np.int64)
    lo = np.asarray(quant["bounds_l"], dtype=np.int64)
    hi = np.asarray(quant["bounds_u"], dtype=np.int64)
    if len(coeffs) != quant["N"] or np.any(coeffs < lo) or np.any(coeffs > hi):
        problems.append("quantized coefficient outside [bounds_l, bounds_u]")

    spec = _load(spec_path)
    n = math.ceil(CHECK_DENSITY_FACTOR * grid_density * spec["N"])
    edge_p, edge_s = spec["wp"] * np.pi, spec["ws"] * np.pi
    if spec["type"] == "low-pass":
        wpass, wstop = np.linspace(0.0, edge_p, n), np.linspace(edge_s, np.pi, n)
    else:
        wstop, wpass = np.linspace(0.0, edge_s, n), np.linspace(edge_p, np.pi, n)
    half = np.asarray(_load(Path(out_dir) / f"{stem}.float.json")["h"], dtype=float)
    pass_dev = float(np.max(np.abs(_zero_phase(half, wpass) - 1.0)))
    stop_dev = float(np.max(np.abs(_zero_phase(half, wstop))))
    if pass_dev > spec["dp"] + SPEC_TOL or stop_dev > spec["ds"] + SPEC_TOL:
        problems.append(f"float design misses the spec: passband {pass_dev:.3e}, "
                        f"stopband {stop_dev:.3e}")
    return problems


def _key_slices(obf_dir):
    key = int((Path(obf_dir) / "key.hex").read_text(encoding="utf-8").strip(), 16)
    layout = _load(Path(obf_dir) / "layout.json")
    return [(key >> s["offset"]) & ((1 << s["width"]) - 1) for s in layout["slices"]], layout


def check_obfuscate(obf_dir, quant_path):
    problems = []
    quant = _load(quant_path)
    secret = _load(Path(obf_dir) / "secret-assignment.json")
    tables = secret["tmcm"]["mux_tables"]
    coeffs, lo, hi = quant["coeffs"], quant["bounds_l"], quant["bounds_u"]
    slices, _ = _key_slices(obf_dir)
    if len(slices) != len(coeffs) or len(tables) != len(coeffs):
        return ["key layout or tables do not cover every coefficient"]
    for i, (table, v) in enumerate(zip(tables, slices)):
        if table[v] != coeffs[i]:
            problems.append(f"key.hex does not select coefficient {i}")
    for i, decoys in enumerate(secret["decoys"]["D"]):
        for d in decoys:
            if (d > 0) != (coeffs[i] >= 0) or lo[i] <= d <= hi[i]:
                problems.append(f"decoy {d} of coefficient {i} breaks the sign or bound rule")
    return problems


def check_attack(attack_dir, obf_dir):
    problems = []
    secret = _load(Path(obf_dir) / "secret-assignment.json")
    recovered = _load(Path(attack_dir) / "recovered.json")
    report = _load(Path(attack_dir) / "report.json")
    _, layout = _key_slices(obf_dir)
    expected_slices = [list(range(s["offset"], s["offset"] + s["width"])) for s in layout["slices"]]
    if recovered["key_slices"] != expected_slices:
        problems.append("recovered key slices differ from the key layout")
    if recovered["R"] != secret["tmcm"]["mux_tables"]:
        problems.append("recovered constants differ from the secret tables")
    vc = sum(1 for nd in secret["decoys"]["nd"] if nd > 1)
    if report["vc"] != vc:
        problems.append(f"vc {report['vc']} != {vc} coefficients with more than one decoy")
    return problems


def check_evaluate(eval_dir, quant_path, keys):
    problems = []
    behavior = _load(Path(eval_dir) / "behavior.json")
    correct = behavior["keys"][0]
    if not correct["is_secret"] or correct["taps"] != _load(quant_path)["coeffs"]:
        problems.append("correct key's taps differ from the quantized coefficients")
    if behavior["wrong_keys"] != keys:
        problems.append(f"{behavior['wrong_keys']} wrong keys audited, {keys} requested")
    if behavior["violation_fraction"] != 1.0:
        problems.append(f"violation_fraction {behavior['violation_fraction']} != 1.0")
    return problems


def digests(out_dir):
    """sha256 of every file under ``out_dir``, by path relative to it."""
    root = Path(out_dir)
    return {
        str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*")) if f.is_file()
    }
