"""Command line pipeline: files in, files out, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import firlock
from firlock.cli import bundled_spec_text, main


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


def test_design_infeasible_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "index": 9, "type": "low-pass", "N": 3, "wp": 0.3, "ws": 0.5,
        "dp": 0.003, "ds": 0.003, "Q": 8,
    }), "utf-8")
    assert main(["design", "--spec", str(bad), "--out", str(tmp_path)]) == 1


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


def test_obfuscate_quant_missing_field_exit_2(tmp_path, design_dir, capsys):
    bad = _without(design_dir / "filter1.quant.json", tmp_path / "q.json", "bounds_u")
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert "bounds_u" in _one_line_error(capsys)


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


@pytest.mark.parametrize("ibw", ["0", "60"])
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


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, firlock.cli; sys.exit('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(firlock.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_obfuscate_mbw_beyond_candidate_limit_exit_2(tmp_path, design_dir, capsys):
    doc = json.loads((design_dir / "filter1.quant.json").read_text())
    doc["mbw"] = 40
    bad = tmp_path / "q.json"
    bad.write_text(json.dumps(doc), "utf-8")
    rc = main(["obfuscate", "--quant", str(bad), "--p", "32", "--out", str(tmp_path)])
    assert rc == 2
    assert "24-bit limit" in _one_line_error(capsys)


def _edited_secret(obfuscate_dir: Path, dest: Path, edit) -> Path:
    doc = json.loads((obfuscate_dir / "secret-assignment.json").read_text())
    edit(doc)
    dest.write_text(json.dumps(doc), "utf-8")
    return dest


def test_evaluate_secret_spec_n_mismatch_exit_2(tmp_path, obfuscate_dir, capsys):
    bad = _edited_secret(obfuscate_dir, tmp_path / "s.json", lambda d: d["spec"].update(N=31))
    rc = main(["evaluate", "--secret", str(bad), "--keys", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "N=31" in _one_line_error(capsys)
    assert not (tmp_path / "behavior.json").exists()


def test_evaluate_secret_key_wider_than_p_exit_2(tmp_path, obfuscate_dir, capsys):
    bad = _edited_secret(
        obfuscate_dir, tmp_path / "s.json", lambda d: d.update(key_hex="ff" + d["key_hex"])
    )
    rc = main(["evaluate", "--secret", str(bad), "--keys", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "key_hex" in _one_line_error(capsys)
    assert not (tmp_path / "behavior.json").exists()


def test_evaluate_negative_keys_exit_2(tmp_path, obfuscate_dir, capsys):
    rc = main([
        "evaluate", "--secret", str(obfuscate_dir / "secret-assignment.json"),
        "--keys", "-3", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "non-negative" in _one_line_error(capsys)
