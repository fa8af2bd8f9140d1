"""Command line pipeline: files in, files out, exit codes, determinism."""

import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import firlock
from firlock.cli import bundled_spec_text, main

from conftest import deadline


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "filter1.json"
    path.write_text(bundled_spec_text(1), "utf-8")
    return path


@pytest.fixture(scope="module")
def design_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("design")
    assert main(["design", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def obfuscate_dir(tmp_path_factory, design_dir):
    out = tmp_path_factory.mktemp("obf")
    rc = main([
        "obfuscate", "--quant", str(design_dir / "filter1.quant.json"),
        "--dsm", "hd", "--p", "32", "--out", str(out),
    ])
    assert rc == 0
    return out


def test_design_outputs(design_dir):
    quant = json.loads((design_dir / "filter1.quant.json").read_text())
    assert quant["N"] == 29 and quant["Q"] == 14
    assert len(quant["coeffs"]) == 29
    assert all(isinstance(v, int) for v in quant["coeffs"])
    verify = json.loads((design_dir / "filter1.verify.json").read_text())
    assert verify["float"]["ok"] is True
    assert "run_config" in quant


def test_design_missing_spec_exit_2(tmp_path, capsys):
    rc = main(["design", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_design_grid_density_flag(tmp_path, spec_file):
    rc = main([
        "design", "--spec", str(spec_file), "--grid-density", "32",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    cfg = json.loads((tmp_path / "filter1.quant.json").read_text())["run_config"]
    assert cfg["grid_density"] == 32.0


def test_design_infeasible_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "index": 9, "type": "low-pass", "N": 3, "wp": 0.3, "ws": 0.5,
        "dp": 0.003, "ds": 0.003, "Q": 8,
    }), "utf-8")
    assert main(["design", "--spec", str(bad), "--out", str(tmp_path)]) == 1
    assert "no length-3 low-pass filter" in _one_line_error(capsys)
    assert multiprocessing.active_children() == []


def test_design_bound_lp_solver_failure_exit_1(tmp_path, spec_file, capsys, monkeypatch):
    # Patched before the pool forks, so the workers inherit it; the
    # parent's design LP is left alone, so the failure comes from a worker.
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    parent, status = os.getpid(), _Highs.getModelStatus
    monkeypatch.setattr(
        _Highs, "getModelStatus",
        lambda self: status(self) if os.getpid() == parent else HighsModelStatus.kSolveError,
    )
    assert main(["design", "--spec", str(spec_file), "--out", str(tmp_path)]) == 1
    assert "LP solver failed with HiGHS model status 4: Solve error" in _one_line_error(capsys)
    assert multiprocessing.active_children() == []
    assert not list(tmp_path.glob("filter1.*.json"))


def test_design_ranged_bound_lp_failure_exit_1(tmp_path, spec_file, capsys, monkeypatch):
    # Only the workers' ranged models fail: their rows have a finite lower
    # bound, where the original LP's one-sided rows and the design LP's
    # have -inf, but the design LP runs in the parent anyway.
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    parent, status = os.getpid(), _Highs.getModelStatus

    def ranged_fails(self):
        ranged = self.getRow(0)[1] != -float("inf")
        return HighsModelStatus.kSolveError if ranged and os.getpid() != parent else status(self)

    monkeypatch.setattr(_Highs, "getModelStatus", ranged_fails)
    assert main(["design", "--spec", str(spec_file), "--out", str(tmp_path)]) == 1
    assert "LP solver failed with HiGHS model status 4: Solve error" in _one_line_error(capsys)
    assert multiprocessing.active_children() == []
    assert not list(tmp_path.glob("filter1.*.json"))


def test_design_bound_lp_worker_killed_exit_1(tmp_path, spec_file, capsys, monkeypatch):
    # Every worker kills itself at its first solve, as the out-of-memory
    # killer would: the pool must report it, not wait for the results.
    from scipy.optimize._highspy._core import _Highs

    parent, status = os.getpid(), _Highs.getModelStatus

    def killed_in_worker(self):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return status(self)

    monkeypatch.setattr(_Highs, "getModelStatus", killed_in_worker)
    with deadline(60):
        rc = main(["design", "--spec", str(spec_file), "--out", str(tmp_path)])
    assert rc == 1
    assert "a worker process died before returning its result" in _one_line_error(capsys)
    assert multiprocessing.active_children() == []
    assert not list(tmp_path.glob("filter1.*.json"))


def test_design_lp_failure_in_parent_exit_1(tmp_path, spec_file, capsys, monkeypatch):
    # Every model fails, the parent's design LP first.
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    monkeypatch.setattr(_Highs, "getModelStatus", lambda self: HighsModelStatus.kSolveError)
    assert main(["design", "--spec", str(spec_file), "--out", str(tmp_path)]) == 1
    assert _one_line_error(capsys) == "error: LP solver failed with HiGHS model status 4: Solve error\n"
    assert not list(tmp_path.glob("filter1.*.json"))


def test_design_without_highs_extension_exit_1(tmp_path, spec_file, capsys, monkeypatch):
    import importlib.util
    from importlib.machinery import PathFinder

    def design_exits_1(out):
        with monkeypatch.context() as m:
            m.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
            assert main(["design", "--spec", str(spec_file), "--out", str(out)]) == 1
        assert "scipy has no HiGHS extension" in _one_line_error(capsys)
        assert not out.exists()

    # A scipy without the extension, then no scipy installed at all.
    find_core, find_scipy = PathFinder.find_spec, importlib.util.find_spec
    with monkeypatch.context() as m:
        m.setattr(
            PathFinder, "find_spec",
            lambda name, path=None, target=None: None if name == "_core" else find_core(name, path, target),
        )
        design_exits_1(tmp_path / "no-extension")
    with monkeypatch.context() as m:
        m.setattr(
            importlib.util, "find_spec",
            lambda name, package=None: None if name == "scipy" else find_scipy(name, package),
        )
        design_exits_1(tmp_path / "no-scipy")


def test_obfuscate_outputs(obfuscate_dir):
    key_hex = (obfuscate_dir / "key.hex").read_text().strip()
    assert len(key_hex) == 8 and key_hex == key_hex.lower()
    layout = json.loads((obfuscate_dir / "layout.json").read_text())
    assert layout["p"] == 32
    assert [s["width"] for s in layout["slices"]][:3] == [2, 2, 2]
    secret = json.loads((obfuscate_dir / "secret-assignment.json").read_text())
    assert secret["secret"] is True
    assert (obfuscate_dir / "design.v").read_text().startswith("//")


def test_obfuscate_p_below_n_exit_2(tmp_path, design_dir, capsys):
    rc = main([
        "obfuscate", "--quant", str(design_dir / "filter1.quant.json"),
        "--p", "7", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "at least N" in capsys.readouterr().err


def test_attack_with_ground_truth(tmp_path, obfuscate_dir):
    rc = main([
        "attack", "--netlist", str(obfuscate_dir / "netlist.json"),
        "--ground-truth", str(obfuscate_dir / "secret-assignment.json"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["vc"] == 3 and report["cdc"] == 3 and report["apc_log2"] == 26
    assert report["dsm_verdict"]["label"] == "HD-like"
    recovered = json.loads((tmp_path / "recovered.json").read_text())
    assert len(recovered["R"]) == 29


def test_attack_without_ground_truth_omits_cdc(tmp_path, obfuscate_dir):
    rc = main([
        "attack", "--netlist", str(obfuscate_dir / "netlist.json"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert "cdc" not in report
    # The attack artifacts never embed the secret assignment.
    text = (tmp_path / "report.json").read_text() + (tmp_path / "recovered.json").read_text()
    assert "secret" not in text


def test_attack_corrupt_netlist_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ this is not json", "utf-8")
    rc = main(["attack", "--netlist", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "broken.json" in capsys.readouterr().err


def test_evaluate_outputs(tmp_path, obfuscate_dir):
    rc = main([
        "evaluate", "--secret", str(obfuscate_dir / "secret-assignment.json"),
        "--keys", "10", "--out", str(tmp_path),
    ])
    assert rc == 0
    behavior = json.loads((tmp_path / "behavior.json").read_text())
    assert behavior["violation_fraction"] == 1.0
    assert behavior["keys"][0]["is_secret"] is True
    csv = (tmp_path / "curves.csv").read_text().splitlines()
    assert csv[0] == "key_id,w_over_pi,gain"
    assert len(csv) == 1 + 11 * 257


def test_evaluate_zero_keys(tmp_path, obfuscate_dir):
    rc = main([
        "evaluate", "--secret", str(obfuscate_dir / "secret-assignment.json"),
        "--keys", "0", "--out", str(tmp_path),
    ])
    assert rc == 0
    behavior = json.loads((tmp_path / "behavior.json").read_text())
    assert behavior["violation_fraction"] == 0.0
    assert len(behavior["keys"]) == 1


def test_pipeline_rerun_byte_identical(tmp_path, spec_file):
    def run(base: Path):
        d, o = base / "d", base / "o"
        assert main(["design", "--spec", str(spec_file), "--out", str(d)]) == 0
        assert main([
            "obfuscate", "--quant", str(d / "filter1.quant.json"),
            "--dsm", "hdrd", "--p", "32", "--out", str(o),
        ]) == 0

    run(tmp_path)
    snapshot = {
        p.relative_to(tmp_path): p.read_bytes()
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    for sub in ("d", "o"):
        shutil.rmtree(tmp_path / sub)
    run(tmp_path)
    for rel, blob in snapshot.items():
        assert (tmp_path / rel).read_bytes() == blob, rel


def test_json_artifacts_equal_the_indented_dump(tmp_path, spec_file, monkeypatch):
    # Every JSON artifact, from the command that writes it: what
    # `_write_json` wrote against `json.dumps` of the object it was given,
    # and netlist.json against the dump of its own parse.
    import firlock.cli as cli

    expected, write = {}, cli._write_json

    def recorded(path, obj):
        write(path, obj)
        expected[path.name] = json.dumps(obj, indent=2, sort_keys=True) + "\n"

    monkeypatch.setattr(cli, "_write_json", recorded)
    monkeypatch.setattr(cli, "BENCH_KEY_BITS", {1: 32})
    d, o = tmp_path / "d", tmp_path / "o"
    assert main(["design", "--spec", str(spec_file), "--out", str(d)]) == 0
    assert main(["obfuscate", "--quant", str(d / "filter1.quant.json"), "--p", "32",
                 "--out", str(o)]) == 0
    assert main(["attack", "--netlist", str(o / "netlist.json"), "--ground-truth",
                 str(o / "secret-assignment.json"), "--out", str(tmp_path / "a")]) == 0
    assert main(["evaluate", "--secret", str(o / "secret-assignment.json"), "--keys", "10",
                 "--out", str(tmp_path / "e")]) == 0
    assert main(["bench", "--dsm", "hd", "--keys", "10", "--out", str(tmp_path / "b")]) == 0
    text = (o / "netlist.json").read_text("utf-8")
    expected["netlist.json"] = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    files = {p.name: p for p in tmp_path.rglob("*.json")}
    assert sorted(files) == sorted(expected) == [
        "behavior.json", "bench.json", "filter1.float.json", "filter1.quant.json",
        "filter1.verify.json", "layout.json", "netlist.json", "recovered.json", "report.json",
        "secret-assignment.json",
    ]
    for name, path in files.items():
        assert path.read_bytes() == expected[name].encode("utf-8"), name


# --- one-line failures at the boundary ----------------------------------------

def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _without(path: Path, dest: Path, *keys) -> Path:
    doc = json.loads(path.read_text())
    for key in keys:
        del doc[key]
    dest.write_text(json.dumps(doc), "utf-8")
    return dest


def _edited(path: Path, dest: Path, edit) -> Path:
    doc = json.loads(path.read_text())
    edit(doc)
    dest.write_text(json.dumps(doc), "utf-8")
    return dest


def test_obfuscate_quant_missing_field_exit_2(tmp_path, design_dir, capsys):
    bad = _without(design_dir / "filter1.quant.json", tmp_path / "q.json", "bounds_u")
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert "bounds_u" in _one_line_error(capsys)


@pytest.mark.parametrize("field", ["bounds_l", "bounds_u"])
def test_obfuscate_quant_bounds_shorter_than_coeffs_exit_2(tmp_path, design_dir, capsys, field):
    bad = _edited(design_dir / "filter1.quant.json", tmp_path / "q.json", lambda d: d[field].pop())
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert "29 coefficients but" in _one_line_error(capsys)
    assert not (tmp_path / "netlist.json").exists()


def test_obfuscate_quant_without_spec_exit_2(tmp_path, design_dir, capsys):
    bad = _without(design_dir / "filter1.quant.json", tmp_path / "q.json", "spec")
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert "lacks field 'spec'" in _one_line_error(capsys)
    assert not (tmp_path / "secret-assignment.json").exists()


def test_obfuscate_quant_spec_n_mismatch_exit_2(tmp_path, design_dir, capsys):
    bad = _edited(
        design_dir / "filter1.quant.json", tmp_path / "q.json",
        lambda d: d["spec"].update(N=31),
    )
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert "spec has N=31 but there are 29 coefficients" in _one_line_error(capsys)
    assert not (tmp_path / "secret-assignment.json").exists()


def test_evaluate_secret_missing_field_exit_2(tmp_path, obfuscate_dir, capsys):
    bad = _without(obfuscate_dir / "secret-assignment.json", tmp_path / "s.json", "tmcm")
    rc = main(["evaluate", "--secret", str(bad), "--keys", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "tmcm" in _one_line_error(capsys)


def test_attack_malformed_netlist_exit_2(tmp_path, obfuscate_dir, capsys):
    doc = json.loads((obfuscate_dir / "netlist.json").read_text())
    del doc["meta"]["cbw"]
    bad = tmp_path / "n.json"
    bad.write_text(json.dumps(doc), "utf-8")
    assert main(["attack", "--netlist", str(bad), "--out", str(tmp_path)]) == 2
    assert "lacks field 'cbw'" in _one_line_error(capsys)
    doc["meta"]["cbw"] = 14
    doc["gates"][0]["op"] = "NAND"
    bad.write_text(json.dumps(doc), "utf-8")
    assert main(["attack", "--netlist", str(bad), "--out", str(tmp_path)]) == 2
    assert "unknown gate op 'NAND'" in _one_line_error(capsys)


@pytest.mark.parametrize("ibw", ["0", "1", "60"])
def test_obfuscate_ibw_out_of_range_exit_2(tmp_path, design_dir, capsys, ibw):
    rc = main([
        "obfuscate", "--quant", str(design_dir / "filter1.quant.json"),
        "--p", "32", "--ibw", ibw, "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "ibw" in _one_line_error(capsys)
    assert not (tmp_path / "netlist.json").exists()


def test_obfuscate_impossible_budget_exit_2(tmp_path, design_dir, capsys):
    rc = main([
        "obfuscate", "--quant", str(design_dir / "filter1.quant.json"),
        "--p", "400", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "candidates" in _one_line_error(capsys)


@pytest.mark.parametrize("p", [10**7, 10**12])
def test_obfuscate_huge_budget_exit_2_at_once(tmp_path, design_dir, capsys, p):
    # 2**(p // N) - 1 decoys per coefficient: an int too long to print at
    # p = 10**7, and of about 4 GB at p = 10**12.
    start = time.perf_counter()
    rc = main([
        "obfuscate", "--quant", str(design_dir / "filter1.quant.json"),
        "--p", str(p), "--out", str(tmp_path),
    ])
    assert time.perf_counter() - start < 2
    assert rc == 2
    assert "candidates exist" in _one_line_error(capsys)


# What a fresh process imports of the package: `firlock.cli`'s start-up
# set, plus the stage modules of the subcommand it runs.  Without bytecode
# caches a process compiles every module it imports, used or not.
STARTUP_MODULES = {"firlock", "firlock.cli", "firlock.design", "firlock.forkmap"}
STAGE_MODULES = {
    "import": (),
    "design": (),
    "obfuscate": ("decoys", "hamming", "tmcm", "netlist", "verilog"),
    "attack": ("tmcm", "netlist", "hamming", "attack"),
    "evaluate": ("tmcm", "evaluate"),
}


@pytest.mark.parametrize("command", sorted(STAGE_MODULES))
def test_startup_loads_only_the_stage_modules(tmp_path, spec_file, design_dir, obfuscate_dir,
                                              command):
    secret = str(obfuscate_dir / "secret-assignment.json")
    args = {
        "design": ["--spec", str(spec_file)],
        "obfuscate": ["--quant", str(design_dir / "filter1.quant.json"), "--p", "32"],
        "attack": ["--netlist", str(obfuscate_dir / "netlist.json"), "--ground-truth", secret],
        "evaluate": ["--secret", secret, "--keys", "5"],
    }
    run = "" if command == "import" else (
        f"if main({[command, *args[command], '--out', str(tmp_path)]!r}):\n"
        "    sys.exit('failed')\n"
    )
    code = (
        f"import sys\nfrom firlock.cli import main\n{run}"
        "print(*(m for m in sys.modules if m.split('.')[0] in ('firlock', 'scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(firlock.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.splitlines()[-1].split())
    firlock_loaded = {m for m in loaded if m.startswith("firlock")}
    assert firlock_loaded == STARTUP_MODULES | {f"firlock.{m}" for m in STAGE_MODULES[command]}
    # design loads scipy's HiGHS extension and nothing else of scipy, not
    # even the package's __init__; no other subcommand loads scipy at all.
    scipy_loaded = loaded - firlock_loaded
    assert "scipy" not in scipy_loaded
    assert ("scipy.optimize._highspy._core" in scipy_loaded) == (command == "design")
    assert all(m.startswith("scipy.optimize._highspy._core") for m in scipy_loaded)


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_cli_import_leaves_out_scipy_stats(module):
    code = f"import sys, firlock.cli; sys.exit({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(firlock.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_error_before_a_stage_is_imported_keeps_its_exit_code(tmp_path):
    # `main` names the attack's exceptions only once `firlock.attack` is
    # imported; an input error raised before that still exits 2, in one line.
    code = (
        "import sys\nfrom firlock.cli import main\n"
        f"rc = main(['attack', '--netlist', {str(tmp_path / 'nope.json')!r}])\n"
        "print(rc, 'firlock.attack' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(firlock.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "2 False\n"
    assert proc.stderr == f"error: netlist file not found: {tmp_path / 'nope.json'}\n"


def _design_in_subprocess(cwd, spec_file, before, after):
    # The same spec path and relative --out in both processes, so run_config matches.
    code = (
        f"import sys\n{before}\nfrom firlock.cli import main\n"
        f"assert main(['design', '--spec', {str(spec_file)!r}, '--out', 'out']) == 0\n{after}\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(firlock.__file__).parents[1])}
    cwd.mkdir()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True)
    return {p.name: p.read_bytes() for p in (cwd / "out").iterdir()}


def test_design_runs_without_scipy_optimize_in_either_load_order(tmp_path, spec_file):
    """Plain design loads neither scipy.optimize nor scipy.sparse, and a later
    import reuses its HiGHS module; loaded first, scipy's module serves."""
    artifacts = _design_in_subprocess(tmp_path / "plain", spec_file, (
        "import firlock.design\ncore = firlock.design._highs()"
    ), (
        "assert 'scipy.optimize' not in sys.modules and 'scipy.sparse' not in sys.modules\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy._highs_wrapper import _h\n"
        "assert _h is core and firlock.design._highs() is core\n"
        "assert linprog([1.0], bounds=[(2.0, 3.0)]).x[0] == 2.0"
    ))
    assert sorted(artifacts) == ["filter1.float.json", "filter1.quant.json", "filter1.verify.json"]
    assert _design_in_subprocess(tmp_path / "first", spec_file, "import scipy.optimize, firlock.design", (
        "assert firlock.design._highs() is scipy.optimize._highspy._core"
    )) == artifacts


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("Q", 14.5, "Q must be an integer, got 14.5"),
        ("N", 29.5, "N must be an integer, got 29.5"),
        ("N", True, "N must be an integer, got True"),
        ("index", "1", "index must be an integer, got '1'"),
        ("Q", 70, "Q must lie in [1, 62], got 70"),
        ("Q", 0, "Q must lie in [1, 62], got 0"),
    ],
    ids=["Q-float", "N-float", "N-bool", "index-str", "Q-70", "Q-0"],
)
def test_design_spec_bad_integer_field_exit_2(tmp_path, spec_file, capsys, field, value, message):
    bad = _edited(spec_file, tmp_path / "s.json", lambda d: d.update({field: value}))
    assert main(["design", "--spec", str(bad), "--out", str(tmp_path)]) == 2
    assert message in _one_line_error(capsys)
    assert not list(tmp_path.glob("s.*.json"))


@pytest.mark.parametrize("flag", ["--grid-density", "--verify-density"])
def test_design_infinite_grid_density_exit_2(tmp_path, spec_file, capsys, monkeypatch, flag):
    # Rejected before any LP is solved.
    monkeypatch.setattr("firlock.design.linprog", None)
    rc = main(["design", "--spec", str(spec_file), flag, "inf", "--out", str(tmp_path)])
    assert rc == 2
    assert "grid density must be a finite number" in _one_line_error(capsys)


def test_evaluate_nan_verify_density_exit_2(tmp_path, obfuscate_dir, capsys):
    rc = main([
        "evaluate", "--secret", str(obfuscate_dir / "secret-assignment.json"),
        "--keys", "1", "--verify-density", "nan", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "grid density must be a finite number" in _one_line_error(capsys)
    assert not (tmp_path / "behavior.json").exists()


def test_obfuscate_mbw_beyond_candidate_limit_exit_2(tmp_path, design_dir, capsys):
    doc = json.loads((design_dir / "filter1.quant.json").read_text())
    for i in (0, -1):
        doc["coeffs"][i] = doc["bounds_u"][i] = 1 << 39
    doc["mbw"] = 40
    bad = tmp_path / "q.json"
    bad.write_text(json.dumps(doc), "utf-8")
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert "24-bit limit" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["coeffs"].__setitem__(0, 12.5), "coeffs must hold integers, got 12.5"),
        (lambda d: d["bounds_l"].__setitem__(0, "12"), "bounds_l must hold integers, got '12'"),
        (lambda d: d.update(mbw=d["mbw"] + 1), "mbw=14 but the widest coefficient has 13 bits"),
        (lambda d: d.update(Q=13), "spec has Q=14 but the filter has Q=13"),
        (lambda d: d.update(mbw=13.5), "quantized filter mbw must be an integer, got 13.5"),
        (lambda d: d.update(mbw=13.0), "quantized filter mbw must be an integer, got 13.0"),
        (lambda d: d.update(N=29.5), "quantized filter N must be an integer, got 29.5"),
        (lambda d: d.update(Q=14.9), "quantized filter Q must be an integer, got 14.9"),
        (lambda d: d.update(Q=True), "quantized filter Q must be an integer, got True"),
        (lambda d: d.update(coeffs=[1 << 70, *d["coeffs"][1:-1], 1 << 70]),
         f"coeffs entry {1 << 70} does not fit in 64 signed bits"),
        (lambda d: d.update(bounds_u=[1 << 70, *d["bounds_u"][1:-1], 1 << 70]),
         f"bounds_u entry {1 << 70} does not fit in 64 signed bits"),
    ],
    ids=["coeff-float", "bound-str", "mbw-wider", "Q-13",
         "mbw-float", "mbw-whole-float", "N-float", "Q-float", "Q-bool",
         "coeff-beyond-int64", "bound-beyond-int64"],
)
def test_obfuscate_quant_contradicting_itself_exit_2(tmp_path, design_dir, capsys, edit, message):
    bad = _edited(design_dir / "filter1.quant.json", tmp_path / "q.json", edit)
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "netlist.json").exists()


@pytest.mark.parametrize(
    "name, edit",
    [
        ("coeffs", lambda d: d["coeffs"].__setitem__(0, d["bounds_u"][0])),
        ("bounds_l", lambda d: d["bounds_l"].__setitem__(0, d["bounds_l"][0] - 1)),
        ("bounds_u", lambda d: d["bounds_u"].__setitem__(0, d["bounds_u"][0] + 1)),
    ],
    ids=["coeffs", "bounds_l", "bounds_u"],
)
def test_obfuscate_asymmetric_quant_exit_2(tmp_path, design_dir, capsys, name, edit):
    # Each edit keeps every coefficient inside its bounds; only the mirror symmetry breaks.
    bad = _edited(design_dir / "filter1.quant.json", tmp_path / "q.json", edit)
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert f"quantized filter: {name} is not symmetric" in _one_line_error(capsys)
    assert not (tmp_path / "netlist.json").exists()


def test_evaluate_secret_spec_n_mismatch_exit_2(tmp_path, obfuscate_dir, capsys):
    bad = _edited(
        obfuscate_dir / "secret-assignment.json", tmp_path / "s.json",
        lambda d: d["spec"].update(N=31),
    )
    rc = main(["evaluate", "--secret", str(bad), "--keys", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "N=31" in _one_line_error(capsys)
    assert not (tmp_path / "behavior.json").exists()


def test_evaluate_secret_key_wider_than_p_exit_2(tmp_path, obfuscate_dir, capsys):
    bad = _edited(
        obfuscate_dir / "secret-assignment.json", tmp_path / "s.json",
        lambda d: d.update(key_hex="ff" + d["key_hex"]),
    )
    rc = main(["evaluate", "--secret", str(bad), "--keys", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "key_hex" in _one_line_error(capsys)
    assert not (tmp_path / "behavior.json").exists()


@pytest.mark.parametrize("key_hex", ["zz", "", "0x1f", "1_f"],
                         ids=["not-hex", "empty", "0x-prefix", "underscore"])
def test_evaluate_secret_key_not_hex_digits_exit_2(tmp_path, obfuscate_dir, capsys, key_hex):
    # int(text, 16) would take "0x1f" and "1_f", which `to_hex` never writes.
    bad = _edited(
        obfuscate_dir / "secret-assignment.json", tmp_path / "s.json",
        lambda d: d.update(key_hex=key_hex),
    )
    rc = main(["evaluate", "--secret", str(bad), "--keys", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert f"key_hex must be hex digits, got {key_hex!r}" in _one_line_error(capsys)
    assert not (tmp_path / "behavior.json").exists()


def _set_n(d, n):
    d["spec"]["N"] = d["tmcm"]["N"] = n


def _set_entry(d, value):
    d["tmcm"]["mux_tables"][0][0] = value


# Each edit writes a TMCM integer field as another type, cbw/ibw below its
# minimum, or a cbw so wide that no ibw of at least 2 fits (N = 29).
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _set_entry(d, 1.5), "TMCM mux_tables[0] entry must be an integer, got 1.5"),
        (lambda d: _set_entry(d, True), "TMCM mux_tables[0] entry must be an integer, got True"),
        (lambda d: d["tmcm"].update(ibw=32.0), "TMCM ibw must be an integer, got 32.0"),
        (lambda d: d["tmcm"].update(cbw=True), "TMCM cbw must be an integer, got True"),
        (lambda d: d["tmcm"].update(seed="1"), "TMCM seed must be an integer, got '1'"),
        (lambda d: d["tmcm"].update(N=29.0), "TMCM N must be an integer, got 29.0"),
        (lambda d: d["tmcm"]["key_widths"].__setitem__(0, 1.0),
         "TMCM key_widths entry must be an integer, got 1.0"),
        (lambda d: d["tmcm"].update(cbw=0), "cbw must be at least 1, got 0"),
        (lambda d: d["tmcm"].update(ibw=0), "ibw must be at least 2, got 0"),
        (lambda d: d["tmcm"].update(cbw=2**70), "exceeds 63 bits; cbw may be at most 56 here"),
    ],
    ids=["entry-float", "entry-bool", "ibw-float", "cbw-bool", "seed-str", "N-float",
         "key-width-float", "cbw-0", "ibw-0", "cbw-too-wide"],
)
def test_evaluate_secret_tmcm_not_integer_exit_2(tmp_path, obfuscate_dir, capsys, edit, message):
    bad = _edited(obfuscate_dir / "secret-assignment.json", tmp_path / "s.json", edit)
    rc = main(["evaluate", "--secret", str(bad), "--keys", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "behavior.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: _set_n(d, 27), "TMCM: N=27 but it has 29 tables"),
        (lambda d: _set_n(d, 31), "TMCM: N=31 but it has 29 tables"),
        (lambda d: d["tmcm"]["key_widths"].append(1), "key_widths do not match the table sizes"),
    ],
    ids=["N-27", "N-31", "key-widths-extra"],
)
def test_evaluate_secret_tmcm_contradicting_tables_exit_2(
    tmp_path, obfuscate_dir, capsys, edit, message
):
    bad = _edited(obfuscate_dir / "secret-assignment.json", tmp_path / "s.json", edit)
    rc = main(["evaluate", "--secret", str(bad), "--keys", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "behavior.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--grid-density", "1e12"],
        ["evaluate", "--keys", "1", "--verify-density", "1e12"],
    ],
    ids=["design", "evaluate"],
)
def test_grid_too_large_for_memory_exit_2(tmp_path, spec_file, obfuscate_dir, capsys, argv):
    # 1e12 points per tap is about 211 TiB per band, above the 128 TiB
    # x86-64 user address space, so the allocation fails before touching
    # any memory.
    source = {"design": ["--spec", str(spec_file)],
              "evaluate": ["--secret", str(obfuscate_dir / "secret-assignment.json")]}
    rc = main(argv + source[argv[0]] + ["--out", str(tmp_path)])
    assert rc == 2
    assert "allocate" in _one_line_error(capsys)
    assert not list(tmp_path.iterdir())


def test_evaluate_negative_keys_exit_2(tmp_path, obfuscate_dir, capsys):
    rc = main([
        "evaluate", "--secret", str(obfuscate_dir / "secret-assignment.json"),
        "--keys", "-3", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "non-negative" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["evaluate", "--curve-points", "-1"], "--curve-points"),
        (["evaluate", "--keys", "-1"], "--keys"),
        (["evaluate", "--seed-eval", "-1"], "--seed-eval"),
        (["obfuscate", "--p", "32", "--seed-obfuscate", "-1"], "--seed-obfuscate"),
        (["attack", "--seed-attack", "-1"], "--seed-attack"),
        (["bench", "--seed-attack", "-1"], "--seed-attack"),
    ],
    ids=["curve-points", "keys", "seed-eval", "seed-obfuscate", "seed-attack", "bench-seed-attack"],
)
def test_negative_count_or_seed_names_option_exit_2(
    tmp_path, design_dir, obfuscate_dir, capsys, argv, option
):
    source = {
        "obfuscate": ["--quant", str(design_dir / "filter1.quant.json")],
        "attack": ["--netlist", str(obfuscate_dir / "netlist.json")],
        "evaluate": ["--secret", str(obfuscate_dir / "secret-assignment.json")],
        "bench": [],
    }
    rc = main(argv + source[argv[0]] + ["--out", str(tmp_path)])
    assert rc == 2
    assert f"{option} must be non-negative, got -1" in _one_line_error(capsys)
    assert not list(tmp_path.iterdir())


# Each edit leaves a netlist whose meta contradicts its ports (46 outputs,
# 32 x bits, 5 i bits and 32 k bits at filter 1, p = 32) or is not an
# integer, where a float p would pass as equal to the k bit count (and
# true as one k bit).
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["outputs"].pop(), "cbw + ibw = 46, but it has 45 output bits"),
        (lambda d: d["meta"].update(cbw=13), "cbw + ibw = 45, but it has 46 output bits"),
        (lambda d: d["meta"].update(cbw=0), "meta cbw must be an integer >= 1, got 0"),
        (lambda d: d["meta"].update(ibw=0), "meta ibw must be an integer >= 1, got 0"),
        (lambda d: d["meta"].update(ibw=31), "ibw = 31, but it has 32 x input bits"),
        (lambda d: d["meta"].update(N=40), "clog2(N) = 6, but it has 5 i input bits"),
        (lambda d: d["meta"].update(p=31), "p = 31, but it has 32 k input bits"),
        (lambda d: d["meta"].update(p=32.0), "netlist meta p must be an integer, got 32.0"),
        (lambda d: d["meta"].update(p=True), "netlist meta p must be an integer, got True"),
    ],
    ids=["output-removed", "cbw-13", "cbw-0", "ibw-0", "ibw-31", "N-40", "p-31", "p-float",
         "p-bool"],
)
def test_attack_meta_contradicting_ports_exit_2(tmp_path, obfuscate_dir, capsys, edit, message):
    bad = _edited(obfuscate_dir / "netlist.json", tmp_path / "n.json", edit)
    assert main(["attack", "--netlist", str(bad), "--out", str(tmp_path)]) == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "recovered.json").exists()


# Each edit breaks the structure `GateNetlist.from_json_dict` checks, or
# adds an input port the attack does not drive.
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["inputs"]["x"].__setitem__(0, 1), "input net ids out of range"),
        (lambda d: d["inputs"]["x"].__setitem__(-1, d["n_nets"]), "input net ids out of range"),
        (lambda d: d["gates"][0].update(a=-1), "gate 0 references net -1 not yet defined"),
        (lambda d: d["gates"][5].update(a=d["n_nets"] - 1), "gate 5 references net"),
        (lambda d: d["outputs"].__setitem__(0, d["n_nets"]), "output references unknown net"),
        (lambda d: d.update(n_nets=d["n_nets"] + 1), "net count mismatch"),
        (lambda d: d.update(n_nets=float(d["n_nets"])), "n_nets must be an integer, got "),
        (lambda d: d["inputs"]["x"].__setitem__(1, d["inputs"]["x"][0]),
         "input ports repeat net ids [39]"),
        (lambda d: d["inputs"]["k"].__setitem__(0, d["inputs"]["i"][0]),
         "input ports repeat net ids [2]"),
        (lambda d: d["gates"][0].update(a=float(d["gates"][0]["a"])),
         "gate 0 operand must be an integer, got "),
        (lambda d: d["gates"][0].update(a=True), "gate 0 operand must be an integer, got True"),
        (lambda d: d["inputs"]["x"].__setitem__(0, 7.0), "input x net id must be an integer, got 7.0"),
        (lambda d: d["inputs"]["i"].__setitem__(0, True),
         "input i net id must be an integer, got True"),
        (lambda d: d["outputs"].__setitem__(0, float(d["outputs"][0])),
         "output net id must be an integer, got "),
        (lambda d: d["outputs"].__setitem__(0, False), "output net id must be an integer, got False"),
        (lambda d: d["inputs"].update(z=[]), "input ports must be exactly i, k and x; extra ports: z"),
    ],
    ids=["input-const", "input-past-gates", "operand-negative", "operand-later", "output-unknown",
         "n-nets", "n-nets-float", "x-repeats-x", "k-repeats-i", "operand-float", "operand-bool",
         "input-float", "input-bool", "output-float", "output-bool", "extra-port"],
)
def test_attack_malformed_netlist_structure_exit_2(tmp_path, obfuscate_dir, capsys, edit, message):
    bad = _edited(obfuscate_dir / "netlist.json", tmp_path / "n.json", edit)
    assert main(["attack", "--netlist", str(bad), "--out", str(tmp_path)]) == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "recovered.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda d: d["outputs"].__setitem__(3, d["outputs"][4]),
            "no constant bit 3 reproduces f_r for i=0, k=0x0",
        ),
        (
            lambda d: d["outputs"].__setitem__(-1, 0),
            "extracted constant fails spot check for i=0, k=0x0",
        ),
    ],
    ids=["bit-3-rewired", "top-bit-grounded"],
)
def test_attack_extraction_failure_exit_1(tmp_path, obfuscate_dir, capsys, edit, message):
    bad = _edited(obfuscate_dir / "netlist.json", tmp_path / "n.json", edit)
    assert main(["attack", "--netlist", str(bad), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: extraction failed: {message}\n"
    assert not (tmp_path / "recovered.json").exists()


@pytest.fixture(scope="module")
def other_filter_secret(tmp_path_factory, designed):
    """secret-assignment.json of filter 2 (59 taps), obfuscated through the CLI."""
    out = tmp_path_factory.mktemp("f2")
    d = designed(2)
    quant = out / "filter2.quant.json"
    quant.write_text(json.dumps({"spec": d.spec.to_json_dict(), **d.qf.to_json_dict()}), "utf-8")
    assert main(["obfuscate", "--quant", str(quant), "--p", "64", "--out", str(out)]) == 0
    return out / "secret-assignment.json"


@pytest.mark.parametrize(
    "secret, message",
    [
        (lambda obf, tmp, other: other, "ground truth has 59 coefficients but the netlist has N=29"),
        (
            lambda obf, tmp, other: _edited(
                obf / "secret-assignment.json", tmp / "s.json",
                lambda d: d["tmcm"].update(mux_tables=d["tmcm"]["mux_tables"][:5]),
            ),
            "TMCM: N=29 but it has 5 tables",
        ),
    ],
    ids=["other-filter", "truncated"],
)
def test_attack_ground_truth_of_another_filter_exit_2(
    tmp_path, obfuscate_dir, other_filter_secret, capsys, secret, message
):
    truth = secret(obfuscate_dir, tmp_path, other_filter_secret)
    rc = main([
        "attack", "--netlist", str(obfuscate_dir / "netlist.json"),
        "--ground-truth", str(truth), "--out", str(tmp_path),
    ])
    assert rc == 2
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "report.json").exists()


def test_attack_all_pairs_is_inconclusive(tmp_path, design_dir, capsys):
    # p = N gives every coefficient one decoy, so every constant set is a pair.
    obf, atk = tmp_path / "obf", tmp_path / "atk"
    quant = str(design_dir / "filter1.quant.json")
    assert main(["obfuscate", "--quant", quant, "--p", "29", "--out", str(obf)]) == 0
    capsys.readouterr()
    assert main(["attack", "--netlist", str(obf / "netlist.json"), "--out", str(atk)]) == 0
    assert capsys.readouterr().out == "attack: vc=0, cdc=n/a, apc=2^29, dsm=inconclusive\n"
    assert json.loads((atk / "report.json").read_text())["dsm_verdict"] is None


def test_bench_filter_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("firlock.cli.BENCH_KEY_BITS", {1: 32})
    assert main(["bench", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "filter    p   dsm    acc   vc  cdc    apc wrong-key viol.\n"
        "     1   32    hd   1.00    3    3   2^26           1.000\n"
        "     1   32    rd   0.00    3    0   2^32           1.000\n"
        "     1   32  hdrd   0.00    3    0   2^32           1.000\n"
    )
    row = {"filter": 1, "p": 32, "vc": 3, "violation_fraction": 1.0}
    assert json.loads((tmp_path / "bench.json").read_text())["rows"] == [
        {**row, "dsm": "hd", "acc": 1.0, "cdc": 3, "apc_log2": 26},
        {**row, "dsm": "rd", "acc": 0.0, "cdc": 0, "apc_log2": 32},
        {**row, "dsm": "hdrd", "acc": 0.0, "cdc": 0, "apc_log2": 32},
    ]


def test_bench_names_a_filter_whose_secret_key_violates(tmp_path, monkeypatch, capsys):
    # Quantized at Q = 8, filter 1's secret key itself breaks its spec, as
    # filter 3's does at Q = 14; designing filter 3 takes seconds.
    spec = {**json.loads(bundled_spec_text(1)), "Q": 8}
    monkeypatch.setattr("firlock.cli.BENCH_KEY_BITS", {1: 32})
    monkeypatch.setattr("firlock.cli.bundled_spec_text", lambda index: json.dumps(spec))
    assert main(["bench", "--dsm", "hd", "--keys", "5", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[1].split()[:3] == ["1", "32", "hd"]
    assert lines[2] == ("filter 1: the secret key itself violates the spec, so its "
                        "wrong-key violation fraction does not measure the decoys")
    (row,) = json.loads((tmp_path / "bench.json").read_text())["rows"]
    assert sorted(row) == ["acc", "apc_log2", "cdc", "dsm", "filter", "p", "vc",
                           "violation_fraction"]


# sha256 of the integer artifacts of filter 1, p = 32, hdrd, and of the
# lowered design at p = 247, rd, where most MUX subtrees repeat.  The
# files holding LP or BLAS floats (*.float.json, *.verify.json,
# behavior.json, curves.csv) are left to the rerun tests.
PINNED_ARTIFACTS = {
    "d/filter1.quant.json": "95532135afad0f8ca9be850f622c587c0a035cc786d452ebaf6498b7bea11437",
    "o/netlist.json": "f7c3d60c9424e23f9eebcf914722a0fa7b996e34f0a1d96e2734c09718b7d26c",
    "o/design.v": "91ddd6f34bb43e114249c2277a640378e205c4daf80a5dc472ce5a47cd9b1957",
    "o/key.hex": "14d730d77894f306f6bf194a08511b70ed989106032b3a571375e0ab64100130",
    "o/layout.json": "6bb2bc38c4424a7e5deaf0a901d1ac4b81b915a734318e77560055e74df1eb96",
    "o/secret-assignment.json": "8e0f36b6b9a90e4fef1fc5dba99f125bfdf9d0bdf06844f5f8558f9a1cd85bae",
    "a/recovered.json": "01256c2cce9ceb5e669b737e5650ef62bcb0550fe57017b398835ad82203db42",
    "a/report.json": "12c9189b71750eb23e0546e278418bc292ea4ec736a626d42ccb3e34de23b8d6",
    "o247/netlist.json": "2434dc61324b3a7db303a2f320f13e9878528d1471766ddd2be6e4008053734c",
    "o247/design.v": "a6d33b32d9d3acd824d823339dcfc635a38833b274f94728960f8d988e1110c6",
}


def test_integer_artifacts_pinned(tmp_path, monkeypatch):
    # Relative paths, since every artifact echoes its argv.
    monkeypatch.chdir(tmp_path)
    Path("filter1.json").write_text(bundled_spec_text(1), "utf-8")
    assert main(["design", "--spec", "filter1.json", "--out", "d"]) == 0
    assert main([
        "obfuscate", "--quant", "d/filter1.quant.json", "--dsm", "hdrd", "--p", "32", "--out", "o",
    ]) == 0
    assert main([
        "attack", "--netlist", "o/netlist.json", "--ground-truth", "o/secret-assignment.json",
        "--out", "a",
    ]) == 0
    assert main([
        "obfuscate", "--quant", "d/filter1.quant.json", "--dsm", "rd", "--p", "247", "--out", "o247",
    ]) == 0
    digests = {f: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in PINNED_ARTIFACTS}
    assert digests == PINNED_ARTIFACTS
