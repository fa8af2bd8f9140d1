"""tests/reproduce.py's runner, on made-up rows whose commands are `python -c` probes."""

import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

import reproduce


def python(code):
    return f"{shlex.quote(sys.executable)} -c {shlex.quote(code)}"


def writes(path, expr):
    """A command that writes the value of `expr` to `path`."""
    return python(f"open({path!r}, 'w').write({expr})")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


DUMP = json.dumps({"a": [1, 2]}, indent=2, sort_keys=True) + "\n"
HASH = writes("a.txt", "str(hash('firlock'))")
FAILS = python("import sys; sys.exit('bad input')")


def test_row_that_keeps_its_bytes_passes(tmp_path, capsys):
    row = reproduce.row("r", ("PYTHONHASHSEED=1", "PYTHONHASHSEED=1"), f"""
        {HASH}
        {writes("out.json", repr(DUMP))}
        {sha256(DUMP)}  out.json
    """, compare="a.txt", dumps="out.json", no_scipy=True)
    reproduce.run([row], tmp_path)
    assert capsys.readouterr().out == "r: PYTHONHASHSEED=1, PYTHONHASHSEED=1: 1 digests\n"


@pytest.mark.parametrize("runs, text, options, message", [
    pytest.param(("plain",), f"{writes('a.txt', repr('a'))}\n{sha256('b')}  a.txt", {},
                 "plain run: a.txt does not have its recorded sha256", id="wrong-digest"),
    # b.txt is left from an earlier row, with the recorded bytes: the row
    # deletes it before its run, so it must write it itself.
    pytest.param(("plain",), f"{writes('a.txt', repr('a'))}\n{sha256('b')}  b.txt", {},
                 "plain run: b.txt was not written", id="digest-of-a-file-not-written"),
    # A plain run clears the inherited PYTHONHASHSEED: each draws its own.
    pytest.param(("plain", "plain"), HASH, {"compare": "a.txt"},
                 "plain run: a.txt differs from the first run", id="fresh-hash-seeds"),
    pytest.param(("PYTHONHASHSEED=1", "PYTHONHASHSEED=2"), HASH, {"compare": "a.txt"},
                 "PYTHONHASHSEED=2 run: a.txt differs from the first run", id="hash-seeds-1-2"),
    pytest.param(("plain",), writes("a.json", repr('{"a": [1, 2]}\n')), {"dumps": "a.json"},
                 "plain run: a.json is not the indented dump of its own parse", id="not-a-dump"),
    pytest.param(("plain",), python("import scipy"), {"no_scipy": True},
                 f"plain run: `{python('import scipy')}` imported the scipy package", id="scipy"),
    pytest.param(("plain",), FAILS, {}, f"plain run: `{FAILS}` exited 1: bad input", id="exit-1"),
    pytest.param(("one cpu",), "", {}, "one cpu run: the side did not take effect", id="unknown-side"),
])
def test_failed_check_exits_with_one_line(tmp_path, monkeypatch, runs, text, options, message):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    (tmp_path / "b.txt").write_text("b")
    with pytest.raises(SystemExit) as exc:
        reproduce.run([reproduce.row("r", runs, text, **options)], tmp_path)
    assert exc.value.code == f"reproduce: r, {message}"


# Each probe child must see its side take effect.  (The runner also probes
# each run's side before its commands, with reproduce.SIDES.)
@pytest.mark.parametrize("side, effect", [
    ("plain", "not {'PYTHONHASHSEED', 'OPENBLAS_NUM_THREADS'} & set(os.environ)"),
    ("one CPU", "len(os.sched_getaffinity(0)) == 1"),
    ("OPENBLAS_NUM_THREADS=1", "os.environ['OPENBLAS_NUM_THREADS'] == '1'"),
    ("scipy.optimize first", "'scipy.optimize' in sys.modules"),
])
def test_each_side_takes_effect(tmp_path, monkeypatch, side, effect):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    probe = python(f"import os, sys; sys.exit(not ({effect}))")
    reproduce.run([reproduce.row("r", (side,), probe)], tmp_path)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) == 1, reason="one CPU already")
def test_side_that_does_nothing_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    with pytest.raises(SystemExit, match="^reproduce: r, one CPU run: the side did not take effect$"):
        reproduce.run([reproduce.row("r", ("one CPU",), "")], tmp_path)


def test_missing_firlock_exits_with_one_line(tmp_path):
    proc = subprocess.run([sys.executable, reproduce.__file__], env={"PATH": str(tmp_path)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "reproduce: no `firlock` on PATH; install it with `pip install -e .`\n"
