"""The two workloads: which images each round renders, made from the seed.

A workload is a committed list of molecules (`druglike.tsv`,
`symmetric_salts.tsv`).  Each row names the planted-edit counts it is
rendered with and, where the program fails on it every time, the stage that
fails and why.  A round renders every row once per edit count, in list
order, with one `detmol perturb --manifest ... --seed BASE` per edit count;
perturb plants row k with seed BASE + k.

The bases come from `bases.tsv`, four per workload and edit count, made
once by `make_bases.py`; the run's seed picks where in each list the run
starts, and round r takes the next base along.  Four rounds thus cover
every list once, whatever the seed, so runs of different seeds time the
program on nearly the same images (a single base's edit search costs from
0.5 to 1.6 times the median), and the seed sets their order and grouping.
The images depend on the seed alone, never on what the program does with
them, and every round has the same expected failures: a row whose failure
would hang on its planting seed (a projection that fails for some seeds and
not others) is in no round, while one that fails for every seed is counted
as a failure.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import types
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
K_MAX = 3
LISTS = {"druglike-edits": "druglike.tsv", "symmetric-salts": "symmetric_salts.tsv"}
NAMES = tuple(LISTS)


@dataclass(frozen=True)
class Row:
    name: str
    smiles: str
    edits: tuple[int, ...]
    fails: str  # stage the program fails this row in every time, or ""


@dataclass(frozen=True)
class Image:
    image_id: str
    smiles: str
    edits: int
    fails: str  # "render", "correct" or ""


@dataclass(frozen=True)
class Round:
    images: tuple[Image, ...]
    seeds: dict  # perturb --seed for each edit count


def read_list(name: str) -> list[Row]:
    """The rows of a committed list: name, SMILES, planted-edit counts and
    the expected failure as `stage: reason`."""
    rows = []
    for line in (HERE / name).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t") + ["", ""]
        stage = fields[3].partition(":")[0].strip()
        rows.append(Row(fields[0], fields[1], tuple(int(d) for d in fields[2].split(",")), stage))
    return rows


def read_bases() -> dict[tuple[str, int], list[int]]:
    """{(workload, edits): perturb seeds} of bases.tsv."""
    bases = {}
    for line in (HERE / "bases.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            workload, edits, seeds = line.split("\t")
            bases[(workload, int(edits))] = [int(s) for s in seeds.split()]
    return bases


def load_conftest(root: Path):
    """The acceptance suite's helpers, imported from tests/conftest.py.

    That file imports pytest only for its fixture decorator; where pytest
    is missing a stand-in decorator is enough.
    """
    try:
        import pytest  # noqa: F401
    except ImportError:
        stub = types.ModuleType("pytest")
        stub.fixture = lambda fn: fn
        sys.modules["pytest"] = stub
    spec = importlib.util.spec_from_file_location(
        "detmol_bench_conftest", root / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    """Every row of a committed list, rendered once per edit count a round."""

    def __init__(self, name: str):
        self.name = name
        self.rows = read_list(LISTS[name])
        self.edits = sorted({d for row in self.rows for d in row.edits})
        bases = read_bases()
        self.bases = {d: bases[(name, d)] for d in self.edits}

    def round(self, seed: int, number: int) -> Round:
        seeds, images = {}, []
        for d in self.edits:
            table = self.bases[d]
            start = random.Random(f"{self.name}:{seed}:{d}").randrange(len(table))
            seeds[d] = table[(start + number) % len(table)]
            for row in self.rows:
                if d in row.edits:
                    images.append(Image(f"{_slug(row.name)}-e{d}", row.smiles, d, row.fails))
        return Round(tuple(images), seeds)


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in ".-" else "_" for ch in name)
