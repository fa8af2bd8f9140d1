"""The benchmark's workloads and the ``firlock`` argv lists they generate.

Every workload is a closed loop: one subcommand after another, each
reading the files the previous one wrote, no concurrency.  All paths are
relative to the run's work directory, so the artifacts (which echo their
argv) are byte-identical between iterations and between runs of one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

GRID_DENSITY = 16
VERIFY_DENSITY = 160
IBW = 32
# The paper's key budget per reference filter (firlock bench).
PAPER_KEY_BITS = {1: 32, 2: 64}


@dataclass(frozen=True)
class Case:
    filter: int
    p: int
    dsm: str
    attack: bool
    keys: int
    why: str

    @property
    def id(self) -> str:
        return f"f{self.filter}/p{self.p}/{self.dsm}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    filters: tuple
    cases: tuple


@dataclass(frozen=True)
class Step:
    """One ``firlock`` invocation; ``paths`` names what its checks read."""

    case: str
    stage: str
    argv: tuple
    out: str
    paths: dict


_PAPER_WHY = "paper configuration: the paper's key budget for this filter"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            why="the paper's configuration, as in firlock bench, bound LPs dominate; "
                "filter 3 is left out because its bound LPs alone outlast a run",
            filters=(1, 2),
            cases=tuple(
                Case(f, PAPER_KEY_BITS[f], dsm, True, 50, _PAPER_WHY)
                for f in (1, 2)
                for dsm in ("hd", "rd", "hdrd")
            ),
        ),
        Workload(
            name="attack-sweep",
            why="extraction dominates and its cost per constant grows with p; "
                "design and decoys are small",
            filters=(1,),
            cases=tuple(
                Case(1, p, "hdrd", True, 50,
                     f"{n} constants: extraction cost per constant at growing p")
                for p, n in ((58, 116), (87, 232), (116, 464))
            ),
        ),
        Workload(
            name="lock-sweep",
            why="owner side only: decoy drawing, wrong-key audits and large netlist "
                "writes; the attack layer does no work",
            filters=(1,),
            cases=tuple(
                Case(1, p, dsm, False, 500,
                     "hd: Hamming scans per pick" if dsm == "hd"
                     else "rd: rejection sampling per pick")
                for p in (232, 247)
                for dsm in ("hd", "rd")
            ),
        ),
    )
}


def cli_seeds(seed: int) -> dict:
    """The three CLI seeds derived from the benchmark seed; seed 0 gives 1, 2, 3."""
    base = 3 * seed
    return {"obfuscate": base + 1, "attack": base + 2, "eval": base + 3}


def spec_path(index: int) -> str:
    return f"specs/filter{index}.json"


def steps(workload: Workload, seed: int) -> list:
    """The workload's subcommands in run order."""
    seeds = cli_seeds(seed)
    out = []
    for f in workload.filters:
        design = f"run/f{f}/design"
        out.append(Step(
            f"f{f}/design", "design",
            ("design", "--spec", spec_path(f), "--grid-density", str(GRID_DENSITY),
             "--verify-density", str(VERIFY_DENSITY), "--out", design),
            design, {"spec": spec_path(f)},
        ))
    for c in workload.cases:
        quant = f"run/f{c.filter}/design/filter{c.filter}.quant.json"
        base = f"run/f{c.filter}/p{c.p}-{c.dsm}"
        obf = f"{base}/obf"
        out.append(Step(
            c.id, "obfuscate",
            ("obfuscate", "--quant", quant, "--dsm", c.dsm, "--p", str(c.p),
             "--ibw", str(IBW), "--seed-obfuscate", str(seeds["obfuscate"]), "--out", obf),
            obf, {"quant": quant},
        ))
        if c.attack:
            out.append(Step(
                c.id, "attack",
                ("attack", "--netlist", f"{obf}/netlist.json",
                 "--seed-attack", str(seeds["attack"]),
                 "--ground-truth", f"{obf}/secret-assignment.json", "--out", f"{base}/attack"),
                f"{base}/attack", {"obf": obf},
            ))
        out.append(Step(
            c.id, "evaluate",
            ("evaluate", "--secret", f"{obf}/secret-assignment.json", "--keys", str(c.keys),
             "--max-hd", "4", "--seed-eval", str(seeds["eval"]),
             "--verify-density", str(VERIFY_DENSITY), "--out", f"{base}/eval"),
            f"{base}/eval", {"quant": quant, "keys": c.keys},
        ))
    return out
