"""Molecular graphs with valence accounting, repair, and isomorphism."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .entities import BBox

WILDCARD = "*"

#: Numeric contribution of each bond kind to an atom's bond-order sum.
ORDER_VALUE: dict[str, float] = {
    "single": 1.0,
    "wedged": 1.0,
    "dashed": 1.0,
    "double": 2.0,
    "triple": 3.0,
    "aromatic": 1.5,
}

#: Wedge marks are rendering artifacts of single bonds.
_MATCH_ORDER = {"wedged": "single", "dashed": "single"}

DEFAULT_VALENCES: dict[str, tuple[int, ...]] = {
    "C": (4,), "N": (3,), "O": (2,), "S": (2, 4, 6),
    "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,),
    "P": (3, 5), "B": (3,), "Si": (4,),
    "Se": (2, 4, 6), "Te": (2, 4, 6),
    "Sn": (4,), "As": (3, 5), "Al": (3,), "Ge": (4,),
    "H": (1,), "D": (1,), "T": (1,),
}

#: Elements whose cation charge raises the allowed valence.
_CATION_ADJUSTED = {"N", "P"}

MIN_CHARGE, MAX_CHARGE = -2, 6


class ValenceConfigError(ValueError):
    """An element has no valence entry and is not the wildcard."""


class RepairError(RuntimeError):
    """Repair did not converge; `.graph` holds the partial result."""

    def __init__(self, message: str, graph: "MolGraph"):
        super().__init__(message)
        self.graph = graph


@dataclass(frozen=True)
class Atom:
    element: str
    formal_charge: int = 0
    is_stereocenter: bool = False
    source_box: BBox | None = None

    def __post_init__(self) -> None:
        if not (MIN_CHARGE <= self.formal_charge <= MAX_CHARGE):
            raise ValueError(f"formal charge {self.formal_charge} out of range")


@dataclass(frozen=True)
class Bond:
    """Undirected bond; endpoints are stored with u < v."""

    u: int
    v: int
    order: str
    source_box: BBox | None = None
    score: float = 1.0

    def __post_init__(self) -> None:
        if self.order not in ORDER_VALUE:
            raise ValueError(f"unknown bond order {self.order!r}")
        if self.u == self.v:
            raise ValueError("bond endpoints must differ")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class ChemProblem:
    """A valence or aromaticity violation at one atom."""

    atom_index: int
    observed: float
    max_allowed: float
    kind: str = "valence"


@dataclass(frozen=True)
class MolGraph:
    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        n = len(self.atoms)
        seen: set[tuple[int, int]] = set()
        for bond in self.bonds:
            if not (0 <= bond.u < n and 0 <= bond.v < n):
                raise ValueError(f"bond {bond.pair} references a missing atom")
            if bond.pair in seen:
                raise ValueError(f"duplicate bond between {bond.pair}")
            seen.add(bond.pair)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def match_order(order: str) -> str:
    """Bond label used for comparisons; wedge marks collapse to single."""
    return _MATCH_ORDER.get(order, order)


def allowed_valences(element: str, charge: int) -> tuple[int, ...] | None:
    """Charge-adjusted valence list; None means unconstrained (wildcard)."""
    if element == WILDCARD:
        return None
    base = DEFAULT_VALENCES.get(element)
    if base is None:
        raise ValenceConfigError(f"no valence entry for element {element!r}")
    if charge > 0 and element in _CATION_ADJUSTED:
        return tuple(v + charge for v in base)
    if charge < 0:
        return tuple(max(0, v + charge) for v in base)
    return base


def neighbours(graph: MolGraph) -> list[list[tuple[int, str]]]:
    """Per atom, its (neighbour, bond label) pairs in bond order; labels as
    in match_order."""
    nbrs: list[list[tuple[int, str]]] = [[] for _ in graph.atoms]
    for b in graph.bonds:
        code = match_order(b.order)
        nbrs[b.u].append((b.v, code))
        nbrs[b.v].append((b.u, code))
    return nbrs


def order_sums(nbrs: list[list[tuple[int, str]]]) -> list[float]:
    """Per atom, the sum of its bonds' ORDER_VALUE; aromatic adds 1.5."""
    sums = []
    for row in nbrs:
        total = 0.0
        for _, code in row:
            total += ORDER_VALUE[code]
        sums.append(total)
    return sums


def over_valence(element: str, charge: int, order_sum: float) -> bool:
    """Whether the rounded-up bond-order sum exceeds the largest valence the
    atom allows; the wildcard allows any."""
    valences = allowed_valences(element, charge)
    return valences is not None and math.ceil(order_sum) > max(valences)


def detect_problems(graph: MolGraph) -> list[ChemProblem]:
    """Valence and aromaticity violations, one entry per offending atom."""
    problems: list[ChemProblem] = []
    nbrs = neighbours(graph)
    for i, (atom, row, order_sum) in enumerate(zip(graph.atoms, nbrs, order_sums(nbrs))):
        if over_valence(atom.element, atom.formal_charge, order_sum):
            max_allowed = max(allowed_valences(atom.element, atom.formal_charge))
            problems.append(ChemProblem(i, order_sum, max_allowed, "valence"))
        elif [code for _, code in row].count("aromatic") == 1:
            problems.append(ChemProblem(i, 1.0, 2.0, "aromatic"))
    return problems


def _removal_candidate(graph: MolGraph, problem: ChemProblem) -> int:
    """Index of the incident bond to drop for this problem."""
    candidates = [
        (k, b) for k, b in enumerate(graph.bonds) if problem.atom_index in b.pair
    ]
    if problem.kind == "aromatic":
        candidates = [(k, b) for k, b in candidates if b.order == "aromatic"]
    # Lowest score goes first; ties prefer the higher bond order, then the
    # lowest bond index.
    return min(candidates, key=lambda kb: (kb[1].score, -ORDER_VALUE[kb[1].order], kb[0]))[0]


def repair(graph: MolGraph, max_iterations: int = 10) -> MolGraph:
    """Delete bonds until detect_problems is empty; atoms are never touched."""
    current = graph
    for _ in range(max_iterations):
        problems = detect_problems(current)
        if not problems:
            return current
        drop = _removal_candidate(current, problems[0])
        bonds = current.bonds[:drop] + current.bonds[drop + 1:]
        current = MolGraph(current.atoms, bonds)
    if detect_problems(current):
        raise RepairError(
            f"repair did not converge within {max_iterations} iterations", current
        )
    return current


def implicit_hydrogens(graph: MolGraph) -> list[int]:
    """Per atom, the hydrogens implied by the smallest allowed valence at or
    above its rounded-up bond-order sum (the largest when none is)."""
    counts = []
    for atom, order_sum in zip(graph.atoms, order_sums(neighbours(graph))):
        valences = allowed_valences(atom.element, atom.formal_charge)
        if valences is None:
            counts.append(0)
            continue
        occupied = math.ceil(order_sum)
        target = min((v for v in valences if v >= occupied), default=max(valences))
        counts.append(max(0, target - occupied))
    return counts


def atom_invariants(graph: MolGraph, nbrs: list[list[tuple[int, str]]]) -> list[tuple]:
    """Initial colour keys: element, charge, degree, ceil of bond-order sum."""
    return [
        (atom.element, atom.formal_charge, len(row), math.ceil(order_sum))
        for atom, row, order_sum in zip(graph.atoms, nbrs, order_sums(nbrs))
    ]


def dense_rank(keys: list) -> list[int]:
    """Each key's position among the distinct keys in sorted order."""
    index = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [index[k] for k in keys]


def refine(nbrs: list[list[tuple[int, str]]], colors: list[int]) -> list[int]:
    """Colour refinement (1-dimensional Weisfeiler-Lehman) to the stable
    colouring: classes split by their multisets of (bond label, neighbour
    colour) until none splits.  `colors` must be dense ranks; the result is."""
    while True:
        new = dense_rank([
            (colors[i], tuple(sorted((code, colors[j]) for j, code in row)))
            for i, row in enumerate(nbrs)
        ])
        if new == colors:
            return colors
        colors = new


def connected_order(nbrs: list[list[tuple[int, str]]], key) -> list[int]:
    """All atoms, each chosen to touch an earlier one whenever some unchosen
    atom does; among the candidates, the smallest `key(i)` goes first.

    `key` must tell all atoms apart (end it with `i`)."""
    n = len(nbrs)
    by_key = iter(sorted(range(n), key=key))
    placed = [False] * n
    seen = [False] * n
    frontier: list[tuple] = []
    order: list[int] = []
    while len(order) < n:
        if frontier:
            i = heapq.heappop(frontier)[1]
        else:
            i = next(j for j in by_key if not placed[j])
        placed[i] = seen[i] = True
        order.append(i)
        for j, _ in nbrs[i]:
            if not seen[j]:
                seen[j] = True
                heapq.heappush(frontier, (key(j), j))
    return order


def isomorphic(a: MolGraph, b: MolGraph) -> bool:
    """Label-preserving graph isomorphism.

    Elements, formal charges, adjacency, and bond orders must correspond;
    wedged and dashed bonds count as single.
    Stereocenter flags are derived annotations and are not compared.
    """
    if a.n_atoms != b.n_atoms or len(a.bonds) != len(b.bonds):
        return False
    n = a.n_atoms
    if n == 0:
        return True
    nbrs_a = neighbours(a)
    nbrs_b = neighbours(b)
    # refining the disjoint union makes colours comparable across a and b
    union = nbrs_a + [[(j + n, code) for j, code in row] for row in nbrs_b]
    colors = refine(
        union, dense_rank(atom_invariants(a, nbrs_a) + atom_invariants(b, nbrs_b))
    )
    colors_a, colors_b = colors[:n], colors[n:]
    if sorted(colors_a) != sorted(colors_b):
        return False

    by_color_b: dict[int, list[int]] = {}
    for j, c in enumerate(colors_b):
        by_color_b.setdefault(c, []).append(j)
    candidates = [by_color_b[c] for c in colors_a]
    # each atom touches the already-mapped prefix when possible, so
    # mismatches surface early
    order = connected_order(nbrs_a, lambda i: (len(candidates[i]), i))
    bonds_b = [dict(row) for row in nbrs_b]

    # depth-first search; tries[d] iterates the untried images of order[d]
    mapping = [-1] * n
    used = [False] * n
    tries = [iter(candidates[order[0]])]
    while tries:
        i = order[len(tries) - 1]
        if mapping[i] >= 0:
            used[mapping[i]] = False
            mapping[i] = -1
        for j in tries[-1]:
            held = bonds_b[j]
            if not used[j] and all(
                mapping[k] < 0 or held.get(mapping[k]) == code
                for k, code in nbrs_a[i]
            ):
                mapping[i] = j
                used[j] = True
                break
        else:
            tries.pop()
            continue
        if len(tries) == n:
            return True
        tries.append(iter(candidates[order[len(tries)]]))
    return False
