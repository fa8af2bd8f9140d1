"""Rerun firlock's stages under varied conditions and check their bytes.

`python tests/reproduce.py`, in the repository root with `firlock` on PATH, deletes
each row's outputs and runs its commands in fresh processes, once per side of its
`runs`.  Each run must write the recorded sha256s, and the first run's bytes in the
`compare` paths (a directory: its files).  Artifacts echo paths, so digests hold for these.
"""

import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# A side's processes must see its effect.  A plain run (a fresh hash seed, OpenBLAS's
# default threads, every CPU) has none of CLEARED set; a VAR=value side sets VAR.
CLEARED = ("PYTHONHASHSEED", "PYTHONPROFILEIMPORTTIME", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SIDES = {"plain": "not {'PYTHONHASHSEED', 'OPENBLAS_NUM_THREADS'} & set(os.environ)",
         "one CPU": "len(os.sched_getaffinity(0)) == 1",
         "scipy.optimize first": "'scipy.optimize' in sys.modules"}
DIGEST = re.compile(r"([0-9a-f]{64})  (\S+)")


def row(name, runs, text, compare="", dumps="", no_scipy=False):
    """A check: `text` holds its commands, then the `sha256sum` lines of its integer artifacts."""
    lines = [line.strip() for line in text.strip().splitlines()]
    return dict(name=name, runs=runs, compare=compare.split(), dumps=dumps.split(), no_scipy=no_scipy,
                cmds=[line for line in lines if not DIGEST.fullmatch(line)],
                digests={m[2]: m[1] for m in map(DIGEST.fullmatch, lines) if m})


ROWS = [
    row("README example", ("plain", "plain", "one CPU"), """
        firlock design --spec src/firlock/specs/filter1.json --out run/design
        firlock obfuscate --quant run/design/filter1.quant.json \
            --dsm hdrd --p 32 --ibw 32 --seed-obfuscate 1 --out run/obf
        firlock attack --netlist run/obf/netlist.json \
            --ground-truth run/obf/secret-assignment.json --out run/attack
        firlock evaluate --secret run/obf/secret-assignment.json --keys 50 --max-hd 4 --out run/eval
        e5184474abb50eb2a1a5f41ea755fc4eda68560ee7aaced79c0e8dc703fa2614  run/design/filter1.quant.json
        97c89e8bda8af9027bd5cbc9d07d40242e79fbd679718f7bd2228d66d25bd8e3  run/obf/netlist.json
        89965b2d8cd338cf9db2e4b70da51e5c6acff62a0d86cc3126b5c991aee3390a  run/obf/design.v
        14d730d77894f306f6bf194a08511b70ed989106032b3a571375e0ab64100130  run/obf/key.hex
        66b6fc209b65c185db55444b14b49c9d73784a985c4747704dc0ea4f5e6d555c  run/obf/layout.json
        c2b561e4456c30d348f673b6c0cce30da422f8d0b48cb6985d3feca02129be83  run/obf/secret-assignment.json
        1d511d32d3fc7a5def1827bdc49c56d99a7076868ef9032e22d9703ed1aa4760  run/attack/recovered.json
        a8022ed3886cdc5fc785a2825531fe9e843f26bf8a6c6a07f16572ba6b6ba47e  run/attack/report.json
    """, compare="run/design run/obf run/attack run/eval"),
    # 32 spot-check runs per 512-value slice; 500 wrong keys in one audit run.
    row("filter 1 hdrd p = 247", ("plain", "one CPU"), """
        firlock design --spec src/firlock/specs/filter1.json --out run-p247/design
        firlock obfuscate --quant run-p247/design/filter1.quant.json \
            --dsm hdrd --p 247 --out run-p247/obf
        firlock attack --netlist run-p247/obf/netlist.json \
            --ground-truth run-p247/obf/secret-assignment.json --out run-p247/attack
        firlock evaluate --secret run-p247/obf/secret-assignment.json \
            --keys 500 --max-hd 4 --out run-p247/eval
        b43b15c75cdf801f5243a7032b6da7127791a85088e4a3a07451454b9c4fce26  run-p247/design/filter1.quant.json
        98b05a8d2b0b69545c9280f7fd156b3e3830173d499f8d18199b0825fe5f465c  run-p247/obf/netlist.json
        d37ace5296d2a55aadd6bb599141defe7000a11bd6ffd9bd927d5e81b601094e  run-p247/obf/design.v
        812a6ffd5948beb7504c4ffca31db9749b308de11699f7d291cefce122b2b6ce  run-p247/obf/key.hex
        e72a488d1ddf30176bca5e0fc520fbddcd9bba27db5cc4a7e2734fb6ba84495d  run-p247/obf/layout.json
        f74d2ec107e93318022e57712566fa982235b2888ea24c62c6a93f1b1ed200f2  run-p247/obf/secret-assignment.json
        6197f9dd9f9c4106f6c00e5e5b69af9a0de1718aa1629b13b50391bd2c91f887  run-p247/attack/recovered.json
        99407f9aaa04d7cccf14d17d092cc4d0c34083cca40225fbb80d05c1de4eb0e8  run-p247/attack/report.json
    """, compare="run-p247/attack run-p247/eval",
        dumps="run-p247/obf/netlist.json run-p247/obf/secret-assignment.json run-p247/eval/behavior.json"),
    # 512-entry key tables: the lowering must not depend on its memos' order.
    row("filter 1 hd p = 261", ("PYTHONHASHSEED=1", "PYTHONHASHSEED=2"), """
        firlock obfuscate --quant run-p247/design/filter1.quant.json \
            --dsm hd --p 261 --out run-p261/obf
        fbe9db215f379139d3121f3b95be50a67dc51c01a18427712c02c16a353066d5  run-p261/obf/netlist.json
        4a2cf0e9b32da3b54a067c9cb69016290d0da2c4c61543190d90dfcfde7199e3  run-p261/obf/design.v
        99260c10f953f1aaef8cccf47eee140c0fef17a42660ff4c247745ce664fe930  run-p261/obf/key.hex
        3c9319731126ba02a8e47bf33be926ecd4aba42848b27ba4747833bdc6678017  run-p261/obf/layout.json
        7dd5b935e0e99ad4634ccd6f71712dd50b5891224a7dd9ef1732b6aa8265ee16  run-p261/obf/secret-assignment.json
    """, compare="run-p261/obf", dumps="run-p261/obf/netlist.json run-p261/obf/secret-assignment.json"),
    # lock-sweep's budgets: the batched decoy draws must keep every pick, rd's redraws included.
    row("filter 1 rd p = 247", ("plain", "one CPU"), """
        firlock obfuscate --quant run-p247/design/filter1.quant.json \
            --dsm rd --p 247 --out run-p247-rd/obf
        7cdf401f19d74c72ed2c115cd709559ab88ef54081ef79455660639e7abeb2c8  run-p247-rd/obf/netlist.json
        2f7a452a287febf5d6f85cd470edb2ad81bf13cca2a86b2ae6f57e721e728eef  run-p247-rd/obf/design.v
        812a6ffd5948beb7504c4ffca31db9749b308de11699f7d291cefce122b2b6ce  run-p247-rd/obf/key.hex
        e337ba77c32ef1257c9d1e626ab0b1296b4d3e939f0e2115d82ed5b55edf7ffb  run-p247-rd/obf/layout.json
        7b68ceed3281a160d3c2615febf603d0764782c6fa6f6ecfddf2423e5092695a  run-p247-rd/obf/secret-assignment.json
    """, compare="run-p247-rd/obf"),
    row("filter 1 hd p = 232", ("plain", "one CPU"), """
        firlock obfuscate --quant run-p247/design/filter1.quant.json \
            --dsm hd --p 232 --out run-p232-hd/obf
        a3360425ef7ac52075d5357d67d4f27be828e51a5dbb488904dc4c1ca2319c25  run-p232-hd/obf/netlist.json
        d88ebc9cfd989c3fdb0ee4c547f6956cfb0655d1487594a1be316f54e5451e5d  run-p232-hd/obf/design.v
        39013cf901b2fe6e49590b5e1df479ae74a8de9873e1503c4ecdc38d7aa0412e  run-p232-hd/obf/key.hex
        f91b313f9c94d21480523dcb722cfacc6c36a84cf419e9efca5f871af20cdc4a  run-p232-hd/obf/layout.json
        dc4d4f771478bf2203c608449a1afedfe0463706b33a8a12fb615a26c2f0a909  run-p232-hd/obf/secret-assignment.json
    """, compare="run-p232-hd/obf"),
    # Neither a worker's earlier solves nor who loaded HiGHS may move an LP optimum.
    row("filter 2 design", ("plain", "one CPU", "scipy.optimize first"), """
        firlock design --spec src/firlock/specs/filter2.json --out run-f2
        7c9572f49be8f61691b05289b9a4325f030dd620303a61b30d96433278ffd8bc  run-f2/filter2.float.json
        15f83789e4a52e24a141e4479634a71c37b369b7d0a29c1d3b6ef6391d57eff1  run-f2/filter2.quant.json
    """, compare="run-f2", no_scipy=True),
    # Filter 3's bound LPs take both ways to an optimal basis.
    row("filter 3 design", ("plain", "one CPU"), """
        firlock design --spec src/firlock/specs/filter3.json --out run-f3
        72cc5fa0ccccbbafbfc20e37016a28fbfd05d2c82a3911a85b0d0ada10b79c2e  run-f3/filter3.float.json
        d19fc5b76469d23a50c0fb74bbf6e409256828743a07f18a02282de7572cbba8  run-f3/filter3.quant.json
    """, compare="run-f3"),
    # Consecutive slices of 2 and 4 values share spot-check runs.
    row("filter 2 hdrd p = 64", ("plain", "one CPU"), """
        firlock obfuscate --quant run-f2/filter2.quant.json --dsm hdrd --p 64 --out run-f2-p64/obf
        firlock attack --netlist run-f2-p64/obf/netlist.json \
            --ground-truth run-f2-p64/obf/secret-assignment.json --out run-f2-p64/attack
        9181ffb9851d0dde6eca63e69110c4dc43423a205f8808c97f06058926baf526  run-f2-p64/obf/netlist.json
        09aa8ebc10b01daa2f2b13f7a9569bac0ac9c4e4ad4f3ddc836df7f17524d9ef  run-f2-p64/obf/design.v
        8f16919bc97bae9e3104c9efa5520f59ff97d87713068f9a74695d0d109445cd  run-f2-p64/obf/key.hex
        aad80f60fe18598d3ca076831f97f49b24286f410c06f4a310a6f8c02fdaa340  run-f2-p64/obf/layout.json
        49e34426b1ee149f9518a922e014395f85453551502f117e0745e4e13c52dd77  run-f2-p64/obf/secret-assignment.json
        08755d7da844f6e82f73be3904724c61e834584cab1409f9a10d375e75450e62  run-f2-p64/attack/recovered.json
        5a1072101ffedcd4435243bbb4a395ae4e13361b5e95767d7c6d08494b76bc79  run-f2-p64/attack/report.json
    """, compare="run-f2-p64/attack"),
    # OpenBLAS may split each key's product with the DFT matrix over threads.
    row("filter 2 audit", ("OPENBLAS_NUM_THREADS=1", "plain"), """
        firlock evaluate --secret run-f2-p64/obf/secret-assignment.json \
            --keys 50 --max-hd 4 --out run-f2-audit
    """, compare="run-f2-audit"),
    # attack-sweep's largest case: one evaluator reuses schedules across slices.
    row("filter 1 hdrd p = 116", ("plain", "one CPU"), """
        firlock obfuscate --quant run-p247/design/filter1.quant.json \
            --dsm hdrd --p 116 --out run-p116/obf
        firlock attack --netlist run-p116/obf/netlist.json \
            --ground-truth run-p116/obf/secret-assignment.json --out run-p116/attack
        0d7e5b23f517c5f53e466b7e0e0578ad6b1c12bb6173e101bc19970be6994121  run-p116/obf/netlist.json
        71d5a7fb23d65fc67b42e58da27539f8d3623d6e3366c33e5fc05dbfc0c72002  run-p116/obf/design.v
        f36625ca70f936faa7a849b5e2e32b2a0b547348674d9056020eca8e5aa145e6  run-p116/obf/key.hex
        16bded73bdf4d5ca8a2b1c08964349f7f168815bc932b39ab801650ddae39dea  run-p116/obf/layout.json
        bd5c077326fc80480509c11d273fb37615be2c5ec09d80eae0655a5966cfa8e6  run-p116/obf/secret-assignment.json
        33abeb10dd2572c69e852152b350e321385a9ed026d8d307bfb7c0007179f51a  run-p116/attack/recovered.json
        5227c0a5bad5cfd029b12d07fe90fdb5543859859dbb3f5be5ef9a41e1c93f2c  run-p116/attack/report.json
    """, compare="run-p116/attack"),
]


def check_run(row, side, root, site, first=None):
    """Run `row` under `side`; return the sha256 of each `compare` file, which must equal `first`'s."""
    where = f"reproduce: {row['name']}, {side} run"
    outputs = [*row["compare"], *row["digests"], *row["dumps"]]
    for path in map(root.joinpath, outputs):
        shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
    key, _, value = side.partition("=")
    env = {k: v for k, v in os.environ.items() if k not in CLEARED} | ({key: value} if value else {})
    if side == "scipy.optimize first":  # `site` holds a sitecustomize.py that imports it
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (site, env.get("PYTHONPATH"))))
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if side == "one CPU" else None
    effect = SIDES.get(side, f"os.environ.get({key!r}) == {value!r}" if value else "False")
    if subprocess.run([sys.executable, "-c", f"import os, sys; sys.exit(not ({effect}))"], env=env,
                      preexec_fn=pin, capture_output=True).returncode:
        sys.exit(f"{where}: the side did not take effect")
    if first is None and row["no_scipy"]:  # log imports
        env["PYTHONPROFILEIMPORTTIME"] = "1"
    for cmd in row["cmds"]:
        proc = subprocess.run(shlex.split(cmd), cwd=root, env=env, capture_output=True, text=True,
                              errors="replace", preexec_fn=pin)
        if proc.returncode:
            sys.exit(f"{where}: `{cmd}` exited {proc.returncode}: "
                     + (proc.stderr.strip().splitlines() or ["no message"])[-1])
        if "PYTHONPROFILEIMPORTTIME" in env and re.search(r"\| +scipy$", proc.stderr, re.M):
            sys.exit(f"{where}: `{cmd}` imported the scipy package")
    for path in outputs:
        if not (root / path).exists():
            sys.exit(f"{where}: {path} was not written")
    for path, digest in row["digests"].items():
        if hashlib.sha256((root / path).read_bytes()).hexdigest() != digest:
            sys.exit(f"{where}: {path} does not have its recorded sha256")
    for path in row["dumps"]:
        text = (root / path).read_text("utf-8")
        try:
            dumped = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        except ValueError:
            dumped = None
        if text != dumped:
            sys.exit(f"{where}: {path} is not the indented dump of its own parse")
    files = {str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
             for top in map(root.joinpath, row["compare"]) for f in [top, *top.rglob("*")] if f.is_file()}
    if first is not None and files != first:
        path = min(p for p in files.keys() | first.keys() if files.get(p) != first.get(p))
        sys.exit(f"{where}: {path} differs from the first run")
    return files


def run(rows, root):
    """Run `rows` in order in `root`, one line each; exit with one line at the first failed check."""
    with tempfile.TemporaryDirectory() as site:
        Path(site, "sitecustomize.py").write_text("import scipy.optimize\n", "utf-8")
        for row in rows:
            first = check_run(row, row["runs"][0], Path(root), site)
            for side in row["runs"][1:]:
                check_run(row, side, Path(root), site, first)
            print(f"{row['name']}: {', '.join(row['runs'])}: {len(row['digests'])} digests", flush=True)


if __name__ == "__main__":
    if shutil.which("firlock") is None:
        sys.exit("reproduce: no `firlock` on PATH; install it with `pip install -e .`")
    run(ROWS, Path(__file__).resolve().parents[1])
