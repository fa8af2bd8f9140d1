"""The firlock benchmark: the real ``firlock`` command, end to end.

Runs one workload (see ``workloads.py``) as a closed loop in this
process through ``firlock.cli.main(argv)``: design, obfuscate, attack
and evaluate, handing files over in a work directory, exactly as a user
runs them.  The whole subcommand list is run in passes for about
``--seconds``.  After each pass the artifacts are checked (``checks.py``)
and hashed: every pass must produce the same digests.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Other tenants of a shared machine slow all of its work alike, by up to
~40% for seconds to minutes.  ``norm_wall_s`` sums each subcommand's
median time over the passes, each run's time first divided by the
machine's speed at that moment, as a fixed probe loop timed just before
and after it measures it.  ``wall_s`` in the record sums each
subcommand's fastest run as measured.  ``setup_s`` is the fastest of
several fresh interpreters, one started before the first pass and one
after each pass: contention only adds time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
subcommand twice in a row, untraced and traced (which goes first
alternates), and reports the per-layer metrics of the traced runs
(``tracing.py``); the spans go to ``.bench_out/`` as JSONL.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record (machine,
case list, samples, digests) is written to ``.bench_out/``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import GRID_DENSITY, WORKLOADS, cli_seeds, spec_path, steps as make_steps  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"

STAGES = ("design", "obfuscate", "attack", "evaluate")
# Fewest fresh interpreters timed for setup_s.  The minimum also discards
# the first one's bytecode compilation in a fresh checkout.
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys, shutil, tempfile\n"
    "import numpy, scipy\n"
    "import firlock.cli\n"
    "shutil.rmtree(tempfile.mkdtemp(dir=sys.argv[1]))\n"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A fixed pure-Python loop, timed before and after every subcommand.
# Other tenants of a shared machine slow all of its work alike, by up to
# ~40% for seconds to minutes; dividing a time by its neighbouring probes
# cancels most of that.
PROBE_N = 200_000
# The probe's time on an idle 2-vCPU Xeon, the baseline machine: scaled
# by it, a normalized time reads as seconds on that machine when idle.
PROBE_REF_S = 0.013


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def probe() -> float:
    """Wall time of the fixed probe loop."""
    t = time.perf_counter()
    acc = 0
    for i in range(PROBE_N):
        acc += i * i % 7
    return time.perf_counter() - t


def normalized(seconds, before, after):
    """``seconds`` scaled by the probes timed just before and after it."""
    return seconds * 2.0 * PROBE_REF_S / (before + after)


def time_setup(work: Path) -> float:
    """Wall time of a fresh interpreter that imports firlock and makes a temp dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(work)], env=env, check=True,
                   timeout=120, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - t


def invoke(cli, step, tracer):
    """Run one subcommand; returns (exit code, captured stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    argv = list(step.argv)
    if tracer is not None:
        tracer.case = step.case
        tracer.install()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli." + argv[0], cli.main, argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    finally:
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.uninstall()
    return rc, err.getvalue(), dt


def check_step(step):
    try:
        if step.stage == "design":
            return checks.check_design(step.out, step.paths["spec"], GRID_DENSITY)
        if step.stage == "obfuscate":
            return checks.check_obfuscate(step.out, step.paths["quant"])
        if step.stage == "attack":
            return checks.check_attack(step.out, step.paths["obf"])
        return checks.check_evaluate(step.out, step.paths["quant"], step.paths["keys"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"artifact unreadable: {exc!r}"]


def out_digests(step):
    return checks.digests(step.out) if Path(step.out).is_dir() else {}


def run_pass(cli, steps, tracer, parity):
    """The workload's subcommand list once, then its checks and digests.

    With a tracer every subcommand runs twice in a row, untraced and
    traced, so each pair sees the same machine state; the traced run goes
    first for every other subcommand, starting with the first if
    ``parity`` is odd.  Both runs must leave the same artifacts.
    """
    shutil.rmtree("run", ignore_errors=True)
    step_s, traced_s, problems = [], [], {}
    probes = [probe()]
    for k, step in enumerate(steps):
        if tracer is None:
            modes = (None,)
        else:
            modes = (tracer, None) if (parity + k) % 2 else (None, tracer)
        left = []
        for mode in modes:
            rc, err, dt = invoke(cli, step, mode)
            (step_s if mode is None else traced_s).append(dt)
            if rc != 0:
                problems.setdefault(k, []).append(f"exit {rc}: {err.strip()[-2000:]}")
            if tracer is not None:
                left.append(out_digests(step))
        probes.append(probe())
        if len(left) == 2 and left[0] != left[1] and k not in problems:
            problems[k] = ["traced and untraced runs left different artifacts"]
    for k, step in enumerate(steps):
        if k not in problems:
            found = check_step(step)
            if found:
                problems[k] = found
    written = sum(f.stat().st_size for f in Path("run").rglob("*") if f.is_file())
    norm_s = [normalized(t, a, b) for t, a, b in zip(step_s, probes, probes[1:])]
    return {"step_s": step_s, "norm_step_s": norm_s, "traced_step_s": traced_s,
            "probes_s": probes, "problems": problems,
            "digests": [out_digests(s) for s in steps], "bytes_written": written}


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_note": "unset means the BLAS default: at most nproc threads",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "firlock" / "cli.py").is_file():
        print(f"error: firlock sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    steps = make_steps(workload, args.seed)
    RUN_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    setup_samples = []
    try:
        try:
            setup_samples.append(time_setup(work))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: firlock does not import: {exc}", file=sys.stderr)
            return 2
        from firlock import cli

        os.chdir(work)
        for f in workload.filters:
            Path(spec_path(f)).parent.mkdir(parents=True, exist_ok=True)
            Path(spec_path(f)).write_text(cli.bundled_spec_text(f), encoding="utf-8")
        ready_s = time.perf_counter() - _T_START
        passes, spans = run_loop(args, cli, steps, lambda: setup_samples.append(time_setup(work)))
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(time_setup(work))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()

    # Every pass must reproduce the first one's artifacts exactly.
    reference = passes[0]["digests"]
    for it in passes[1:]:
        for k, (want, got) in enumerate(zip(reference, it["digests"])):
            if want != got and k not in it["problems"]:
                it["problems"][k] = ["artifact digests differ from the first pass"]
    runs_per_pass = 2 if args.trace else 1
    attempted = len(steps) * len(passes) * runs_per_pass
    failed = sum(len(it["problems"]) for it in passes)

    # Each subcommand's fastest untraced run as measured, and its median
    # normalized run: normalizing leaves symmetric probe jitter, which a
    # minimum would pick out.
    n = len(passes)
    fastest = [min(it["step_s"][k] for it in passes) for k in range(len(steps))]
    typical = [median(it["norm_step_s"][k] for it in passes) for k in range(len(steps))]
    # name -> (value, unit, samples).  Every workload reports every
    # end-to-end metric, so a stage time (under a second on some workload,
    # zero for attack on lock-sweep) is not one; norm_wall_s covers each
    # workload's dominant stage.
    e2e = {
        "setup_s": (min(setup_samples), "s", len(setup_samples)),
        "norm_wall_s": (sum(typical), "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    stages = {f"{s}_s": (sum(t for t, step in zip(fastest, steps) if step.stage == s), "s", n)
              for s in STAGES}
    wall_s = sum(fastest)
    layers, layer_self_s = {}, {}
    if args.trace:
        units = tracing.metric_units()
        for name, unit in units.items():
            layers[name] = (median([it["layers"][name] for it in passes]), unit, n)
        # Measured by this file, not by the tracer: the stage times of the
        # untraced runs, and each pass's traced minus untraced time.
        for name, (value, unit, _) in stages.items():
            layers["stage." + name] = (value, unit, n)
        overhead = median([sum(it["traced_step_s"]) - sum(it["step_s"]) for it in passes])
        layers["trace.overhead_s"] = (overhead, "s", n)
        layer_self_s = {k: median([it["self_totals"].get(k, 0.0) for it in passes])
                        for k in sorted({k for it in passes for k in it["self_totals"]})}
    record = {
        "workload": {"name": workload.name, "why": workload.why,
                     "cases": [c.__dict__ | {"id": c.id} for c in workload.cases]},
        "seed": args.seed,
        "cli_seeds": cli_seeds(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "in_process_ready_s": ready_s,
        "wall_s": wall_s,
        "setup_samples_s": setup_samples,
        "steps": [f"{s.case} {s.stage}" for s in steps],
        "passes": [
            {k: v for k, v in it.items() if k not in ("layers", "digests", "self_totals")}
            | {"wall_s": sum(it["step_s"]),
               "problems": {steps[k].case + " " + steps[k].stage: p
                            for k, p in it["problems"].items()}}
            for it in passes
        ],
        **{part: {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in values.items()}
           for part, values in (("end_to_end", e2e), ("stages", stages), ("per_layer", layers))},
        "layer_self_s": layer_self_s,
        "digests": {f"{s.case} {s.stage}": d for s, d in zip(steps, reference)},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        with open(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl", "w",
                  encoding="utf-8") as f:
            for row in spans:
                f.write(json.dumps(row) + "\n")

    for it in passes:
        for k, found in it["problems"].items():
            for p in found:
                print(f"FAILED {steps[k].case} {steps[k].stage}: {p}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, {n} passes"
          f"{' (each subcommand untraced and traced)' if args.trace else ''}, "
          f"failed_frac {failed}/{attempted}")
    for name, (value, unit, c) in e2e.items():
        how = {"setup_s": "min", "norm_wall_s": "normalized, median"}.get(name, "peak")
        print(f"  {name:<14} {value:12.6f} {unit:<5} ({how} of {c})")
    print(f"  {'wall_s':<14} {wall_s:12.6f} s     (as measured, min of {n})")
    for name, (value, unit, c) in stages.items():
        print(f"  {name:<14} {value:12.6f} {unit:<5} (as measured, min of {c})")
    if args.trace:
        print(f"  trace overhead {layers['trace.overhead_s'][0]:+.3f} s per pass")
        for layer, s in sorted(layer_self_s.items(), key=lambda kv: -kv[1]):
            print(f"  self {layer:<16} {s:10.4f} s")
    shown = layers if args.trace else e2e
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in shown.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_loop(args, cli, steps, between_passes):
    """Run passes of the subcommand list for about ``args.seconds``.

    Untraced, at least three passes run, so that each subcommand's median
    drops the first pass's one-off costs.  Another pass starts while it
    would end nearer the target than stopping now, judged by the last
    pass's length.  ``between_passes`` runs after each pass, untimed.
    """
    tracer = tracing.Tracer() if args.trace else None
    passes, spans = [], []
    spent = 0.0
    while True:
        t = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        it = run_pass(cli, steps, tracer, parity=len(passes))
        last = time.perf_counter() - t
        spent += last
        if tracer is not None:
            it["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters,
                                                 it["bytes_written"])
            it["self_totals"] = tracing.layer_self_totals(tracer.spans)
            t0 = tracer.spans[0][1] if tracer.spans else 0.0
            spans.extend({"pass": len(passes), "name": n, "start": s - t0,
                          "end": e - t0, "parent": p, "case": c}
                         for n, s, e, p, c in tracer.spans)
        passes.append(it)
        between_passes()
        needed = 1 if args.trace else 3
        if len(passes) >= needed and args.seconds - spent < last / 2:
            return passes, spans


if __name__ == "__main__":
    sys.exit(main())
