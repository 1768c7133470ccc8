"""Molecular graphs with valence accounting and repair, and one exact search
for graph correspondence: `_search_mapping` finds least-cost atom mappings
for edit-correction, and `isomorphic` is that search at budget 0 over
colour-refinement classes."""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

from .entities import CHARGE_CLASSES, BBox, ImageError

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

MIN_CHARGE, MAX_CHARGE = min(CHARGE_CLASSES.values()), max(CHARGE_CLASSES.values())


class ValenceConfigError(ValueError):
    """An element has no valence entry and is not the wildcard."""


class RepairError(ImageError):
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


def find(parent: list[int] | dict[int, int], i: int) -> int:
    """The root of i in the union-find forest `parent` (each member's
    parent, a root its own), halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


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


def connected_order(nbrs: list[list[tuple[int, str]]], key, start=()) -> list[int]:
    """The atoms not in `start`, each chosen to touch `start` or an earlier
    choice whenever some unchosen atom does; among the candidates, the
    smallest `key(i)` goes first.  `_search_mapping` orders every pred atom
    from none; an edit script inserts the ref atoms left unowned in their
    order from the owned ones.

    `key` must tell all atoms apart (end it with `i`)."""
    n = len(nbrs)
    by_key = iter(sorted(range(n), key=key))
    order = list(start)
    seen = [False] * n  # in `order` or in the frontier
    for i in order:
        seen[i] = True
    frontier: list[tuple] = []
    for k in range(n):
        if k == len(order):  # each atom in `order` has pushed its neighbours
            if frontier:
                i = heapq.heappop(frontier)[1]
            else:  # every atom seen so far is in `order`
                i = next(j for j in by_key if not seen[j])
                seen[i] = True
            order.append(i)
        for j, _ in nbrs[order[k]]:
            if not seen[j]:
                seen[j] = True
                heapq.heappush(frontier, (key(j), j))
    return order[len(start):]


def isomorphic(a: MolGraph, b: MolGraph) -> bool:
    """Label-preserving graph isomorphism: colour refinement of the disjoint
    union, then the least-cost edit search of `_search_mapping` at budget 0
    with the colours as atom labels.

    Elements, formal charges, adjacency, and bond orders must correspond;
    wedged and dashed bonds count as single.
    Stereocenter flags are derived annotations and are not compared.
    """
    n = a.n_atoms
    if n != b.n_atoms or len(a.bonds) != len(b.bonds):
        return False
    # refining the disjoint union makes colours comparable across a and b,
    # and every isomorphism keeps them, so they serve as atom labels.  The
    # search's histogram bound then turns away at once every pair that
    # refinement tells apart, which with element labels it might reject only
    # after backtracking through symmetric groups
    nbrs_a, nbrs_b = neighbours(a), neighbours(b)
    union = nbrs_a + [[(j + n, code) for j, code in row] for row in nbrs_b]
    colors = refine(
        union, dense_rank(atom_invariants(a, nbrs_a) + atom_invariants(b, nbrs_b))
    )
    return _search_mapping(a, b, 0, (colors[:n], colors[n:])) is not None


def _labels(graph: MolGraph) -> list[tuple[str, int]]:
    return [(a.element, a.formal_charge) for a in graph.atoms]


def _histogram_gap(a: list, b: list) -> int:
    ca, cb = Counter(a), Counter(b)
    overlap = sum((ca & cb).values())
    return max(len(a), len(b)) - overlap


def _search_mapping(
    pred: MolGraph, ref: MolGraph, k_max: int, labels: tuple | None = None
) -> tuple[int, list[int]] | None:
    """The first atom assignment, in search order, of least cost <= k_max.

    Budgets rise from the histogram lower bound to k_max.  Each budget is a
    depth-first search, on an explicit stack, that stops at its first
    complete assignment of total cost <= budget.  A child is skipped when its
    cost so far plus this lower bound on the rest exceeds the budget.

    Each assigned pred atom i has a(i) bonds to unassigned pred atoms, and
    its image b(i) bonds to unowned ref atoms (b(i) = 0 when i is deleted).
    A pred bond of i survives only on a ref bond of its image, one for one,
    so P = sum max(0, a - b) pred bonds must still be deleted and
    R = sum max(0, b - a) ref bonds inserted.  Each is charged to its one
    assigned endpoint, so none is counted twice or with a bond the cost so
    far holds.  Say `left` pred atoms are unassigned, `free` ref atoms
    unowned, and their label histograms share `overlap`.  A completion that
    matches M of them relabels at least M - overlap atoms, deletes left - M
    and inserts I = free - M >= free - left.  An inserted atom may bring one
    of the R bonds in its own op, so at least R - I bonds are inserted on
    their own.  The rest thus costs at least
    (M - overlap) + (left - M) + I + P + max(0, R - I)
    = left - overlap + P + max(I, R) >= left - overlap + P + max(free - left, R),
    which is the bound: the label histogram bound plus P, plus the part of R
    that the insertions it forces anyway cannot bring.

    The bound never exceeds the cost of any completion, so no assignment
    within the budget is cut; the children keep their order, so the first
    hit at the least feasible budget is the first minimum-cost assignment
    in search order, as without the bound.

    `labels`, the atom labels of pred and of ref, defaults to their
    (element, formal charge) pairs.
    """
    labels_p, labels_r = labels or (_labels(pred), _labels(ref))
    n_pred, n_ref = pred.n_atoms, ref.n_atoms
    ids = {label: k for k, label in enumerate(dict.fromkeys(labels_p + labels_r))}
    lab_p = [ids[x] for x in labels_p]
    lab_r = [ids[x] for x in labels_r]
    # label counts of the atoms not yet assigned, and their overlap
    rem_p = [0] * len(ids)
    rem_r = [0] * len(ids)
    for x in lab_p:
        rem_p[x] += 1
    for x in lab_r:
        rem_r[x] += 1
    overlap = sum(map(min, rem_p, rem_r))
    orders_p = [match_order(b.order) for b in pred.bonds]
    orders_r = [match_order(b.order) for b in ref.bonds]
    lower = max(max(n_pred, n_ref) - overlap, _histogram_gap(orders_p, orders_r))
    if lower > k_max:
        return None

    nbrs_p = neighbours(pred)
    rows_p = [dict(row) for row in nbrs_p]  # {neighbour: bond label}
    rows_r = [dict(row) for row in neighbours(ref)]
    free_r = n_ref
    surplus = [0] * n_pred  # a(i) - b(i) of each assigned pred atom

    order = connected_order(nbrs_p, lambda i: (-len(nbrs_p[i]), i))
    mapping = [-2] * n_pred  # -2 unassigned, -1 delete, >= 0 ref index
    ref_owner = [-1] * n_ref
    # per depth: cost so far with P and R, the ref atoms left to try (None
    # once deletion was tried too), and the (ref image, bond label, a > b)
    # of each assigned neighbour with the count of deleted ones
    state_at = [(0, 0, 0)] * n_pred
    untried_at: list = [None] * n_pred
    fixed_at: list[tuple[list[tuple[int, str, bool]], int]] = [([], 0)] * n_pred

    def completion_cost() -> int:
        """Cost of inserting the unowned ref atoms and every ref bond that
        touches one.  Each is one op, but each atom brings one of the bonds
        in its own op, except the first atom of an island (a component of
        unowned atoms bonded to no owned one): the bonds plus the islands.
        One walk over the unowned atoms counts a bond to an owned atom once
        and a bond between two unowned atoms twice."""
        islands = outer = inner = 0
        seen: set[int] = set()
        for s in range(n_ref):
            if ref_owner[s] >= 0 or s in seen:
                continue
            stack, anchored = [s], False
            seen.add(s)
            while stack:
                node = stack.pop()
                for other in rows_r[node]:
                    if ref_owner[other] < 0:
                        inner += 1
                        if other not in seen:
                            seen.add(other)
                            stack.append(other)
                    else:
                        outer += 1
                        anchored = True
            if not anchored:
                islands += 1
        return outer + inner // 2 + islands

    if n_pred == 0:
        total = completion_cost()  # never below `lower`
        return (total, []) if total <= k_max else None
    for budget in range(lower, k_max + 1):
        depth = 0
        untried_at[0] = iter(range(n_ref))
        while depth >= 0:
            i = order[depth]
            a = lab_p[i]
            r = mapping[i]
            row_i = rows_p[i]
            if r != -2:  # undo the child just left
                mapping[i] = -2
                for j in row_i:
                    if mapping[j] != -2:
                        surplus[j] += 1
                rem_p[a] += 1
                if rem_p[a] <= rem_r[a]:
                    overlap += 1
                if r >= 0:
                    ref_owner[r] = -1
                    for s in rows_r[r]:
                        j = ref_owner[s]
                        if j >= 0:
                            surplus[j] -= 1
                    free_r += 1
                    b = lab_r[r]
                    rem_r[b] += 1
                    if rem_r[b] <= rem_p[b]:
                        overlap += 1
            untried = untried_at[depth]
            if untried is None:
                depth -= 1
                continue
            # shared by every child: the bonds to deleted neighbours, which
            # move from P to the cost; i's label leaving the unassigned
            # histogram; a(i); and free - left once a ref child is placed
            placed, n_deleted = fixed_at[depth]
            cost, owed_p, owed_r = state_at[depth]
            cost += n_deleted
            owed_p -= n_deleted
            left = n_pred - depth - 1
            floor = cost + left
            spare = free_r - 1 - left
            rem_a = rem_p[a] - 1
            overlap_i = overlap - (rem_a < rem_r[a])
            a_i = len(row_i) - len(placed) - n_deleted
            child = -2
            for r in untried:
                if ref_owner[r] >= 0:
                    continue
                b = lab_r[r]
                extra = a != b
                if cost + extra > budget:
                    continue
                row_r = rows_r[r]
                p, q = owed_p, owed_r
                for fj, code, over in placed:
                    held = row_r.get(fj)
                    if held != code:
                        extra += 1
                        if held is None:  # the pred bond is deleted
                            if over:
                                p -= 1
                            else:
                                q += 1
                d = a_i  # a(i) - b(i)
                for s in row_r:
                    j = ref_owner[s]
                    if j < 0:
                        d -= 1
                    elif j not in row_i:  # the ref bond is inserted
                        extra += 1
                        if surplus[j] >= 0:
                            p += 1
                        else:
                            q -= 1
                if d > 0:
                    p += d
                else:
                    q -= d
                common = overlap_i - (rem_r[b] <= (rem_a if a == b else rem_p[b]))
                if floor + extra - common + p + (q if q > spare else spare) <= budget:
                    child = r
                    break
            else:
                untried_at[depth] = None
                extra = 1 + len(placed)
                d = a_i
                p, q = owed_p + a_i, owed_r
                for _, _, over in placed:
                    if over:
                        p -= 1
                    else:
                        q += 1
                if floor + extra - overlap_i + p + (q if q > spare else spare + 1) <= budget:
                    child = -1
            if child == -2:
                depth -= 1
                continue
            mapping[i] = child
            rem_p[a] = rem_a
            overlap = overlap_i
            surplus[i] = d
            for j in row_i:
                if mapping[j] != -2:
                    surplus[j] -= 1
            if child >= 0:
                ref_owner[child] = i
                for s in rows_r[child]:
                    j = ref_owner[s]
                    if j >= 0:
                        surplus[j] += 1
                free_r -= 1
                b = lab_r[child]
                if rem_r[b] <= rem_p[b]:
                    overlap -= 1
                rem_r[b] -= 1
            cost += extra
            if left == 0:
                total = cost + completion_cost()
                if total <= budget:
                    return total, mapping.copy()
                continue
            depth += 1
            state_at[depth] = (cost, p, q)
            j_placed, j_deleted = [], 0
            for j, code in nbrs_p[order[depth]]:
                fj = mapping[j]
                if fj >= 0:
                    j_placed.append((fj, code, surplus[j] > 0))
                elif fj == -1:
                    j_deleted += 1
            fixed_at[depth] = (j_placed, j_deleted)
            # with less slack than placed neighbours, a ref atom bonded to no
            # neighbour's image already costs too much
            if budget - cost - j_deleted >= len(j_placed):
                untried_at[depth] = iter(range(n_ref))
            else:
                untried_at[depth] = iter(sorted(
                    {s for fj, _, _ in j_placed for s in rows_r[fj]}))
    return None
