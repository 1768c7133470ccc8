"""Bounded edit-correction of predicted graphs against references."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .constructor import construct, resolve_endpoints
from .entities import (
    ATOM_IDS, BOND_IDS, CHARGE_IDS, BBox, DetBox, EntityChannel, EntitySet,
    ImageError, intersects,
)
from .molgraph import (
    ORDER_VALUE, Atom, Bond, MolGraph, _labels, _search_mapping,
    connected_order, detect_problems, isomorphic, match_order, neighbours,
    order_sums, over_valence,
)

EDIT_KINDS = (
    "relabel_atom", "relabel_bond", "delete_bond",
    "insert_bond", "delete_atom", "insert_atom",
)


class LayoutError(ImageError):
    """The planar lattice embedding could not be completed."""


class ProjectionError(ImageError):
    """Projected pseudo-labels failed to re-construct the corrected graph."""


@dataclass(frozen=True)
class EditOp:
    """One unit-cost graph edit; indices refer to the graph it applies to."""

    kind: str
    atom_index: int | None = None
    pair: tuple[int, int] | None = None
    element: str | None = None
    charge: int = 0
    order: str | None = None
    attach_to: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EDIT_KINDS:
            raise ValueError(f"unknown edit kind {self.kind!r}")
        if self.pair is not None:
            object.__setattr__(self, "pair", (min(self.pair), max(self.pair)))

    @classmethod
    def relabel_atom(cls, index: int, element: str, charge: int = 0) -> "EditOp":
        return cls("relabel_atom", atom_index=index, element=element, charge=charge)

    @classmethod
    def relabel_bond(cls, pair: tuple[int, int], order: str) -> "EditOp":
        return cls("relabel_bond", pair=pair, order=order)

    @classmethod
    def delete_bond(cls, pair: tuple[int, int]) -> "EditOp":
        return cls("delete_bond", pair=pair)

    @classmethod
    def insert_bond(cls, pair: tuple[int, int], order: str) -> "EditOp":
        return cls("insert_bond", pair=pair, order=order)

    @classmethod
    def delete_atom(cls, index: int) -> "EditOp":
        return cls("delete_atom", atom_index=index)

    @classmethod
    def insert_atom(
        cls, element: str, charge: int = 0,
        attach_to: int | None = None, order: str | None = None,
    ) -> "EditOp":
        return cls("insert_atom", element=element, charge=charge,
                   attach_to=attach_to, order=order)


@dataclass(frozen=True)
class EditScript:
    ops: tuple[EditOp, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def cost(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class Correction:
    """A minimum edit script and the graph it produces from pred, which
    keeps pred's boxes on every atom and bond the script kept."""

    script: EditScript
    graph: MolGraph


def apply_op(graph: MolGraph, op: EditOp) -> MolGraph:
    """Apply one edit; atom deletion renumbers the atoms above it."""
    atoms = list(graph.atoms)
    bonds = list(graph.bonds)
    if op.kind == "relabel_atom":
        _check_index(op.atom_index, len(atoms))
        atoms[op.atom_index] = replace(
            atoms[op.atom_index], element=op.element, formal_charge=op.charge
        )
    elif op.kind == "relabel_bond":
        at = _find_bond(bonds, op.pair)
        bonds[at] = replace(bonds[at], order=op.order)
    elif op.kind == "delete_bond":
        del bonds[_find_bond(bonds, op.pair)]
    elif op.kind == "insert_bond":
        u, v = op.pair
        _check_index(u, len(atoms))
        _check_index(v, len(atoms))
        if any(b.pair == op.pair for b in bonds):
            raise ValueError(f"bond {op.pair} already present")
        bonds.append(Bond(u, v, op.order))
    elif op.kind == "delete_atom":
        _check_index(op.atom_index, len(atoms))
        if any(op.atom_index in b.pair for b in bonds):
            raise ValueError(f"atom {op.atom_index} still has bonds")
        del atoms[op.atom_index]
        bonds = [
            replace(
                b,
                u=b.u - (b.u > op.atom_index),
                v=b.v - (b.v > op.atom_index),
            )
            for b in bonds
        ]
    elif op.kind == "insert_atom":
        atoms.append(Atom(op.element, op.charge))
        if op.attach_to is not None:
            _check_index(op.attach_to, len(atoms) - 1)
            bonds.append(Bond(op.attach_to, len(atoms) - 1, op.order))
    return MolGraph(tuple(atoms), tuple(bonds))


def apply_script(graph: MolGraph, ops) -> MolGraph:
    for op in ops:
        graph = apply_op(graph, op)
    return graph


def _check_index(index: int | None, n: int) -> None:
    if index is None or not 0 <= index < n:
        raise ValueError(f"atom index {index} out of range")


def _find_bond(bonds: list[Bond], pair: tuple[int, int] | None) -> int:
    for k, bond in enumerate(bonds):
        if bond.pair == pair:
            return k
    raise ValueError(f"no bond between {pair}")


def edit_correct(pred: MolGraph, ref: MolGraph, k_max: int = 3) -> Correction | None:
    """Minimum-cost edit script turning pred into ref, within the budget.

    The search is exact, over partial atom assignments.  Budgets rise one at
    a time from the label and bond-order histogram lower bound to k_max;
    each is a depth-first search that stops at its first assignment within
    the budget, so the first budget that has one yields the minimum cost,
    and the script is the one for the first such assignment in search order.
    A partial assignment is skipped when its cost so far plus an admissible
    bound on the rest exceeds the budget.  The bound adds the label
    histogram gap of the atoms left, the pred bonds that must still be
    deleted and the ref bonds that must still be inserted, because an
    assigned atom has more bonds to unassigned atoms than its image has to
    unowned ones, or fewer.  An inserted atom brings one such ref bond in
    its own op, so the insertions the histogram forces anyway carry that
    many of them; `_search_mapping` gives the argument.  `isomorphic` runs
    this search at k_max 0 over colour-refinement classes.  Returns None
    when no script of cost <= k_max exists.  The one check is on the
    script: its length must equal the search cost, and applied to pred it
    must reach ref.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    found = _search_mapping(pred, ref, k_max)
    if found is None:
        return None
    cost, mapping = found
    ops = _script_from_mapping(pred, ref, mapping)
    if len(ops) != cost:
        raise RuntimeError("internal: script length disagrees with search cost")
    corrected = apply_script(pred, ops)
    if not isomorphic(corrected, ref):
        raise RuntimeError("internal: edit script does not reach the reference")
    return Correction(EditScript(tuple(ops)), corrected)


def _script_from_mapping(
    pred: MolGraph, ref: MolGraph, mapping: list[int]
) -> list[EditOp]:
    ops: list[EditOp] = []
    labels_r = _labels(ref)
    ref_pairs = {b.pair: match_order(b.order) for b in ref.bonds}
    owner = {r: i for i, r in enumerate(mapping) if r >= 0}

    kept_ref_pairs: set[tuple[int, int]] = set()
    relabels: list[EditOp] = []
    for bond in sorted(pred.bonds, key=lambda b: b.pair):
        fu, fv = mapping[bond.u], mapping[bond.v]
        target = None if fu < 0 or fv < 0 else (min(fu, fv), max(fu, fv))
        held = ref_pairs.get(target) if target is not None else None
        if held is None:
            ops.append(EditOp.delete_bond(bond.pair))
        else:
            kept_ref_pairs.add(target)
            if held != match_order(bond.order):
                relabels.append(EditOp.relabel_bond(bond.pair, held))
    ops.extend(relabels)

    for i, r in enumerate(mapping):
        if r >= 0 and (pred.atoms[i].element, pred.atoms[i].formal_charge) != labels_r[r]:
            ops.append(EditOp.relabel_atom(i, *labels_r[r]))

    deleted = sorted((i for i, r in enumerate(mapping) if r == -1), reverse=True)
    ops.extend(EditOp.delete_atom(i) for i in deleted)
    deleted_set = set(deleted)
    working_index = {}
    shift = 0
    for i in range(pred.n_atoms):
        if i in deleted_set:
            shift += 1
        else:
            working_index[i] = i - shift

    placed = {r: working_index[i] for r, i in owner.items()}
    nbrs_r = neighbours(ref)
    bundled: set[tuple[int, int]] = set()
    for s in connected_order(nbrs_r, lambda s: s, placed):
        anchors = [row for row in nbrs_r[s] if row[0] in placed]
        if anchors:
            j, code = min(anchors)
            ops.append(EditOp.insert_atom(
                ref.atoms[s].element, ref.atoms[s].formal_charge, placed[j], code,
            ))
            bundled.add((min(s, j), max(s, j)))
        else:
            ops.append(EditOp.insert_atom(
                ref.atoms[s].element, ref.atoms[s].formal_charge
            ))
        placed[s] = len(placed)  # the working index of the atom just appended

    for bond in sorted(ref.bonds, key=lambda b: b.pair):
        if bond.pair in kept_ref_pairs or bond.pair in bundled:
            continue
        ops.append(EditOp.insert_bond(
            (placed[bond.u], placed[bond.v]), match_order(bond.order)
        ))
    return ops


# ---------------------------------------------------------------------------
# Synthetic fixtures: lattice layout, rendering, and planted corruptions.

LATTICE_SPACING = 60.0
ATOM_BOX_HALF = 10.0
BOND_BOX_PAD = 8.0
CHARGE_BOX_HALF = 3.0
STEREO_BOX_HALF = 4.0

_AXIAL_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _axial_to_pixel(q: int, r: int) -> tuple[float, float]:
    x = LATTICE_SPACING * (q + r / 2.0)
    y = LATTICE_SPACING * (r * math.sqrt(3.0) / 2.0)
    return (round(x), round(y))


def _axial_adjacent(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return (a[0] - b[0], a[1] - b[1]) in _AXIAL_STEPS


def _layout(graph: MolGraph) -> list[tuple[float, float]]:
    """Place atoms on a triangular lattice.

    Strict mode puts every bond on a unit lattice edge, which keeps bond
    boxes short and endpoint resolution unambiguous.  Graphs with no such
    embedding fall back to a lax placement with long ring-closure bonds;
    the caller's reconstruction check decides whether that render is usable.
    """
    try:
        return _layout_cells(graph, strict=True)
    except LayoutError:
        return _layout_cells(graph, strict=False)


def _layout_cells(graph: MolGraph, strict: bool) -> list[tuple[float, float]]:
    """Cells of a depth-first placement in breadth-first atom order.

    A component's root tries cells on row 0, four columns apart, from four
    columns past the largest ``q`` placed so far; every other atom tries the
    six cells around its parent.  A component of m atoms lies within m - 1
    columns of its root, so from m - 4 columns past that first root cell on,
    it can meet no earlier cell: it is alone on the lattice.  Strict mode
    skips every choice that a lattice automorphism, fixing each placed cell
    the component can meet, maps onto a sibling already refuted:

    1. a root tries its cells up to its first out-of-reach one, which for the
       first component is its first cell, since out-of-reach root cells are
       translations of one another; once that cell is refuted, the search
       ends with no layout;
    2. the first neighbour of an out-of-reach root tries one of its six
       cells, since the rotations and reflections about the root map them
       onto one another;
    3. while every placed cell lies on row 0, a cell ``(q, r)`` is dropped
       when its mirror image across that row, ``(q + r, -r)``, came earlier
       in the same choice list.

    A skipped subtree is the image of a refuted one, so it holds no layout
    either, and the search meets the layouts it keeps in the same order: the
    first layout is unchanged and the step count can only fall.  The image
    map is not a symmetry of the whole search, because a later component's
    root cells depend on the largest ``q`` placed.  But a later component
    always has an out-of-reach root cell, so it can be placed whenever it has
    a strict embedding of its own, wherever the earlier components lie.
    Whether a subtree holds a layout thus does not depend on what the map
    changes, and a refuted out-of-reach root means that some component has
    no strict embedding at all.
    """
    n = graph.n_atoms
    nbrs = neighbours(graph)
    order: list[int] = []
    parents: list[int | None] = []
    sizes: dict[int, int] = {}  # atom count of the component rooted at order[k]
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        start = head = len(order)
        order.append(root)
        parents.append(None)
        while head < len(order):
            node = order[head]
            head += 1
            for other, _ in nbrs[node]:
                if not seen[other]:
                    seen[other] = True
                    order.append(other)
                    parents.append(node)
        sizes[start] = len(order) - start

    cells: dict[int, tuple[int, int]] = {}
    occupied: set[tuple[int, int]] = set()
    alone: dict[int, tuple[int, int]] = {}  # root k -> its out-of-reach cell
    off_row = 0  # placed cells off row 0, for rule 3
    steps = 0
    # depth-first search; tries[k] iterates the cells left to try for
    # order[k].  Each descent counts one step against the budget, the one
    # that finds every atom placed included.
    tries: list = []
    k = 0
    while True:
        steps += 1
        if steps > 20000:
            raise LayoutError("placement search budget exhausted")
        if k == len(order):
            break
        atom = order[k]
        parent = parents[k]
        if parent is None:
            base = max((q for q, _ in occupied), default=-4) + 4
            choices = [(base + d, 0) for d in range(0, 4 * n, 4)]
            if strict:
                # rule 1: the first root cell at least sizes[k] - 4 columns
                # past base is out of reach
                clear = -(-(sizes[k] - 4) // 4) if occupied else 0
                choices = choices[:max(clear, 0) + 1]
                alone[k] = choices[-1]
        else:
            pq, pr = cells[parent]
            placed_mates = [cells[j] for j, _ in nbrs[atom] if j in cells]
            choices = [(pq + dq, pr + dr) for dq, dr in _AXIAL_STEPS]
            if strict:
                # every bond must land on a unit lattice edge, otherwise its
                # box would span other atoms and endpoint search can misroute
                choices = [
                    cell for cell in choices
                    if all(_axial_adjacent(cell, mate) for mate in placed_mates)
                ]
                if parents[k - 1] is None and cells[parent] == alone[k - 1]:
                    choices = choices[:1]  # rule 2
                elif not off_row:  # rule 3
                    choices = [
                        (q, r) for i, (q, r) in enumerate(choices)
                        if (q + r, -r) not in choices[:i]
                    ]
            else:
                choices.sort(key=lambda cell: -sum(
                    1 for mate in placed_mates if _axial_adjacent(cell, mate)
                ))
        tries.append(iter(choices))
        while True:
            for cell in tries[k]:
                if cell not in occupied:
                    break
            else:
                # rule 1: a root out of cells had its out-of-reach one refuted
                if k == 0 or (strict and parents[k] is None):
                    raise LayoutError("no lattice embedding found")
                tries.pop()
                k -= 1
                cell = cells.pop(order[k])
                occupied.discard(cell)
                off_row -= cell[1] != 0
                continue
            break
        cells[order[k]] = cell
        occupied.add(cell)
        off_row += cell[1] != 0
        k += 1
    return [_axial_to_pixel(*cells[i]) for i in range(n)]


def _bond_box(a: tuple[float, float], b: tuple[float, float]) -> BBox:
    box = BBox(
        min(a[0], b[0]) - BOND_BOX_PAD, min(a[1], b[1]) - BOND_BOX_PAD,
        max(a[0], b[0]) + BOND_BOX_PAD, max(a[1], b[1]) + BOND_BOX_PAD,
    )
    length = math.dist(a, b)
    if length <= LATTICE_SPACING + 1.0:
        return box
    # long bonds get a square box: endpoint resolution then goes through the
    # corner rule, whose extremes sit at the chord ends instead of the edge
    # midpoints that collinear intermediate atoms crowd
    grow = abs(box.width - box.height) / 2.0
    if box.width > box.height:
        return BBox(box.xmin, box.ymin - grow, box.xmax, box.ymax + grow)
    if box.height > box.width:
        return BBox(box.xmin - grow, box.ymin, box.xmax + grow, box.ymax)
    return box


def _small_box(center: tuple[float, float], half: float) -> BBox:
    return BBox(center[0] - half, center[1] - half,
                center[0] + half, center[1] + half)


_PLAIN_ORDERS = ("single", "double", "triple")


def _entity_set(graph: MolGraph, image_id: str) -> EntitySet:
    """The labels of a graph whose atoms and bonds carry their source boxes:
    one box per atom and bond, and a small charge or stereo box at the centre
    of each charged or stereocentre atom.  Every score is 1."""
    return EntitySet(
        image_id,
        EntityChannel("atom", tuple(
            DetBox(a.source_box, ATOM_IDS[a.element]) for a in graph.atoms
        )),
        EntityChannel("bond", tuple(
            DetBox(b.source_box, BOND_IDS[b.order]) for b in graph.bonds
        )),
        EntityChannel("charge", tuple(
            DetBox(_small_box(a.source_box.center, CHARGE_BOX_HALF),
                   CHARGE_IDS[a.formal_charge])
            for a in graph.atoms if a.formal_charge != 0
        )),
        EntityChannel("stereo", tuple(
            DetBox(_small_box(a.source_box.center, STEREO_BOX_HALF), 0)
            for a in graph.atoms if a.is_stereocenter
        )),
    )


def _box_insertions(graph: MolGraph, ops, bond_box) -> MolGraph:
    """Box what ops inserted into graph, which apply_op made from them.

    apply_op keeps every other box and appends what it inserts, so the k-th
    atom without a box is the k-th insert_atom op's; it gets
    `_synthesize_atom_box` of the boxes before it.  A bond without a box gets
    `bond_box(u_box, v_box)`.  ProjectionError when what lacks a box is not
    what ops inserted, or an attachment is out of range.
    """
    inserts = [op for op in ops if op.kind == "insert_atom"]
    bond_inserts = sum(op.kind == "insert_bond" or op.attach_to is not None for op in ops)
    atoms = list(graph.atoms)
    bare = [i for i, a in enumerate(atoms) if a.source_box is None]
    if len(bare) != len(inserts) or bond_inserts != sum(
            b.source_box is None for b in graph.bonds):
        raise ProjectionError("the atoms and bonds without a box are not the inserted ones")
    for i, op in zip(bare, inserts):
        if op.attach_to is not None and not 0 <= op.attach_to < i:
            raise ProjectionError(f"inserted atom {i} attaches to atom {op.attach_to}")
        box = _synthesize_atom_box([a.source_box for a in atoms[:i]], op.attach_to)
        atoms[i] = replace(atoms[i], source_box=box)
    return MolGraph(tuple(atoms), tuple(
        b if b.source_box is not None else
        replace(b, source_box=bond_box(atoms[b.u].source_box, atoms[b.v].source_box))
        for b in graph.bonds
    ))


def plant_errors(
    truth: MolGraph, n_edits: int = 0, seed: int = 0, image_id: str = "synthetic"
) -> EntitySet:
    """Render a graph to synthetic detections, then corrupt n_edits entries.

    The render is the truth graph with a lattice box on every atom and bond;
    each corruption is one EditOp applied to that box-carrying graph with
    apply_op, and the labels are written from the result, with a lattice box
    on each inserted bond.  Corruptions are sampled so each one maps to
    exactly one graph edit after re-construction: atom relabels and bond
    relabels stay valence-safe, inserted bonds are single, non-parallel, and
    must resolve back to their own endpoints, and aromatic bonds are left
    alone (touching one would cascade through repair).  Deterministic for a
    given seed.  Box sizes suit the constructor's fixed geometry.  The one
    check is on the render: it must re-construct to the truth, otherwise
    LayoutError is raised.
    """
    if detect_problems(truth):
        raise ValueError("truth graph must be chemically valid")
    positions = _layout(truth)
    graph = MolGraph(
        tuple(replace(a, source_box=_small_box(positions[i], ATOM_BOX_HALF))
              for i, a in enumerate(truth.atoms)),
        tuple(replace(b, source_box=_bond_box(positions[b.u], positions[b.v]))
              for b in truth.bonds),
    )
    rendered = _entity_set(graph, image_id)
    if not isomorphic(construct(rendered), truth):
        raise LayoutError("rendered boxes do not re-construct the input graph")
    # no corruption inserts or deletes an atom, so the atom boxes stay put
    det_atoms = rendered.atoms

    def resolves_to(u: int, v: int) -> bool:
        """Whether a bond box drawn from u to v re-constructs onto u and v."""
        box = _bond_box(positions[u], positions[v])
        _, pair = resolve_endpoints(det_atoms, DetBox(box, BOND_IDS["single"]))
        return pair is not None and (min(pair), max(pair)) == (u, v)

    touched_atoms: set[int] = set()
    touched_pairs: set[tuple[int, int]] = set()
    planted: list[EditOp] = []
    rng = random.Random(seed)

    def candidates(kind: str) -> list[EditOp]:
        """The corruptions of one kind still open on the graph planted so
        far, in the order the seed draws from."""
        atoms = graph.atoms
        orders = {b.pair: b.order for b in graph.bonds}
        sums = order_sums(neighbours(graph))

        def fits(e: int, extra: float, element: str | None = None) -> bool:
            return not over_valence(element or atoms[e].element,
                                    atoms[e].formal_charge, sums[e] + extra)

        out: list[EditOp] = []
        if kind == "relabel_atom":
            for i, atom in enumerate(atoms):
                if i in touched_atoms:
                    continue
                out.extend(
                    EditOp.relabel_atom(i, element, atom.formal_charge)
                    for element in sorted(ATOM_IDS)
                    if element != atom.element and fits(i, 0.0, element)
                )
        elif kind == "insert_bond":
            for u in range(len(atoms)):
                for v in range(u + 1, len(atoms)):
                    if ((u, v) not in orders and (u, v) not in touched_pairs
                            and fits(u, 1.0) and fits(v, 1.0) and resolves_to(u, v)):
                        out.append(EditOp.insert_bond((u, v), "single"))
        else:
            for pair, order in sorted(orders.items()):
                normal = match_order(order)
                if pair in touched_pairs or normal not in _PLAIN_ORDERS:
                    continue
                if kind == "delete_bond":
                    out.append(EditOp.delete_bond(pair))
                    continue
                for new_order in _PLAIN_ORDERS:
                    grow = ORDER_VALUE[new_order] - ORDER_VALUE[order]
                    if new_order != normal and all(fits(e, grow) for e in pair):
                        out.append(EditOp.relabel_bond(pair, new_order))
        return out

    for _ in range(n_edits):
        kinds = ["relabel_atom", "relabel_bond", "delete_bond", "insert_bond"]
        rng.shuffle(kinds)
        for kind in kinds:
            cands = candidates(kind)
            if cands:
                op = rng.choice(cands)
                graph = apply_op(graph, op)
                planted.append(op)
                if op.pair is None:
                    touched_atoms.add(op.atom_index)
                else:
                    touched_pairs.add(op.pair)
                break
        else:
            raise ValueError("no further corruption is possible on this graph")

    graph = _box_insertions(graph, planted, lambda a, b: _bond_box(a.center, b.center))
    return _entity_set(graph, image_id)


def project_pseudo_labels(
    pred_entities: EntitySet,
    script: EditScript,
    corrected: MolGraph,
) -> EntitySet:
    """Push an edit script back onto the entity boxes.

    `corrected` must be the `Correction.graph` of construct(pred_entities),
    which keeps the construction's boxes on what the script kept;
    the labels are written from it.  Relabels keep the original box with a
    new class; deletions drop boxes; an inserted bond spans its endpoint
    boxes and an inserted atom gets a median-size box placed outward from
    its attachment.  An empty script keeps pred_entities.  The one check is
    on the labels: they must re-construct to corrected, otherwise
    ProjectionError is raised; geometry is validated only through it.
    """
    labels = pred_entities
    if script.ops:
        boxed = _box_insertions(corrected, script.ops, _union_box)
        labels = _entity_set(boxed, pred_entities.image_id)
    if not isomorphic(construct(labels), corrected):
        raise ProjectionError("pseudo-labels do not re-construct the corrected graph")
    return labels


def _union_box(a: BBox, b: BBox) -> BBox:
    return BBox(min(a.xmin, b.xmin), min(a.ymin, b.ymin),
                max(a.xmax, b.xmax), max(a.ymax, b.ymax))


def _synthesize_atom_box(boxes: list[BBox], attach_to: int | None) -> BBox:
    """A box of the boxes' median half-size, outward from the attachment."""
    spans = sorted(v for box in boxes for v in (box.width / 2.0, box.height / 2.0))
    half = spans[len(spans) // 2] if spans else ATOM_BOX_HALF
    if attach_to is None:
        base = max((box.xmax for box in boxes), default=0.0)
        return _small_box((base + 6 * half, 0.0), half)
    ax, ay = boxes[attach_to].center
    others = [box.center for k, box in enumerate(boxes) if k != attach_to]
    if others:
        mx = sum(p[0] for p in others) / len(others)
        my = sum(p[1] for p in others) / len(others)
        dx, dy = ax - mx, ay - my
    else:
        dx, dy = 1.0, 0.0
    norm = math.hypot(dx, dy)
    if norm < 1e-9:
        dx, dy, norm = 1.0, 0.0, 1.0
    dx, dy = dx / norm, dy / norm
    distance = 5.0 * half
    for turn in range(8):
        angle = turn * math.pi / 4.0
        cos_t, sin_t = math.cos(angle), math.sin(angle)
        vx = dx * cos_t - dy * sin_t
        vy = dx * sin_t + dy * cos_t
        candidate = _small_box((ax + vx * distance, ay + vy * distance), half)
        if not any(intersects(candidate, box) for box in boxes):
            return candidate
    return _small_box((ax + dx * distance, ay + dy * distance), half)
