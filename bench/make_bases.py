"""Makes a line of bases.tsv: perturb seeds on which no row of a workload
fails, other than its rows of expected failure.

    python3 bench/make_bases.py WORKLOAD EDITS COUNT

Run from the root of a checkout.  Candidate bases are drawn from a random
stream seeded with the workload and edit count; each is replayed in-process
(parse, plant_errors with seed BASE + row offset, construct, edit_correct
at k_max 3, project_pseudo_labels) and kept when no image fails.  A row
whose planted edits make the pipeline fail for some seeds, such as a
correction whose projection does not re-construct, would otherwise give
runs of one seed another share of failures than runs of another.  Prints
the line of the first COUNT bases kept; each base left out goes to standard
error with the rows that failed on it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402


def failures(workload: str, edits: int, base: int) -> list[tuple[str, str]]:
    """(row name, error) of the rows the pipeline fails on with this base."""
    from detmol import (
        construct, edit_correct, parse, plant_errors, project_pseudo_labels,
    )
    from detmol.editcorrect import LayoutError, ProjectionError
    from detmol.molgraph import RepairError
    rows = [r for r in workloads.read_list(workloads.LISTS[workload]) if edits in r.edits]
    out = []
    for offset, row in enumerate(rows):
        if row.fails:
            continue
        try:
            truth = parse(row.smiles)
            entities = plant_errors(truth, edits, base + offset, row.name)
            correction = edit_correct(construct(entities), truth, workloads.K_MAX)
            if correction is not None:
                project_pseudo_labels(entities, correction.script, correction.graph)
        # the errors the command line counts as a failed image
        except (LayoutError, ProjectionError, RepairError, ValueError) as exc:
            out.append((row.name, f"{type(exc).__name__}: {exc}"))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    workload, edits, count = argv[0], int(argv[1]), int(argv[2])
    stream = random.Random(f"{workload}:{edits}")
    kept = []
    while len(kept) < count:
        base = stream.randrange(10 ** 6)
        bad = failures(workload, edits, base)
        if bad:
            print(f"base {base} left out: {bad}", file=sys.stderr)
        else:
            kept.append(base)
    print(f"{workload}\t{edits}\t{' '.join(map(str, kept))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
