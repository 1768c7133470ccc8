"""Builds molecular graphs out of per-image entity detections."""

from __future__ import annotations

from dataclasses import dataclass

from .entities import (
    ATOM_CLASSES, BOND_CLASSES, CHARGE_CLASSES, BBox, DetBox, EntityChannel,
    EntitySet, expand, intersects, iou,
)
from .molgraph import ORDER_VALUE, Atom, Bond, MolGraph, find, repair


# The constructor's one geometry: atom boxes overlapping above this IoU
# merge, and a bond box grows by the step until two atoms meet it or the
# growth reaches the limit (pixels).
ATOM_MERGE_IOU = 0.5
EDGE_EXPAND_STEP = 5.0
EDGE_EXPAND_LIMIT = 80.0


@dataclass(frozen=True)
class DroppedBond:
    """A bond detection that could not be attached to two atoms."""

    image_id: str
    bond_index: int
    reason: str

    def format(self) -> str:
        return f"WARN {self.image_id} dropped_bond {self.bond_index} reason={self.reason}"


def filter_atoms(atoms: EntityChannel) -> EntityChannel:
    """Deduplicate overlapping atom boxes.

    Boxes whose pairwise IoU exceeds the merge threshold form groups (by
    transitive closure); only the highest-score box of each group survives,
    ties falling to the lowest index.  Input order is preserved.
    """
    n = len(atoms.boxes)
    parent = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if iou(atoms.boxes[i].box, atoms.boxes[j].box) > ATOM_MERGE_IOU:
                parent[find(parent, i)] = find(parent, j)
    best: dict[int, int] = {}
    for i, det in enumerate(atoms.boxes):
        root = find(parent, i)
        if root not in best or det.score > atoms.boxes[best[root]].score:
            best[root] = i
    keep = sorted(best.values())
    return EntityChannel(atoms.kind, tuple(atoms.boxes[i] for i in keep))


def assign_charges(atoms: EntityChannel, charges: EntityChannel) -> list[int]:
    """Charge value per atom; overlap decides, the best score wins ties."""
    values = []
    for det in atoms:
        hits = [c for c in charges if intersects(det.box, c.box)]
        if hits:
            chosen = max(enumerate(hits), key=lambda ih: (ih[1].score, -ih[0]))[1]
            values.append(CHARGE_CLASSES[chosen.class_id])
        else:
            values.append(0)
    return values


def assign_stereo(
    atoms: EntityChannel, stereos: EntityChannel, bonds: EntityChannel
) -> set[int]:
    """Indices of stereocenter atoms.

    Attempted only when some bond detection is wedged or dashed; a stereo box
    marks an atom only when it intersects exactly one atom box.
    """
    if not any(BOND_CLASSES[b.class_id] in ("wedged", "dashed") for b in bonds):
        return set()
    flagged: set[int] = set()
    for stereo in stereos:
        hits = [i for i, det in enumerate(atoms) if intersects(det.box, stereo.box)]
        if len(hits) == 1:
            flagged.add(hits[0])
    return flagged


def bond_endpoints(atoms: EntityChannel, bond: DetBox) -> list[int]:
    """Atom indices intersecting the bond box, grown until two are found.

    The box is expanded in steps, starting from no growth, while fewer than
    two atom boxes intersect it and the growth stays under the limit.  All
    candidates at the final size are returned, however many there are.
    """
    growth = 0.0
    while True:
        grown = expand(bond.box, growth) if growth else bond.box
        hits = [i for i, det in enumerate(atoms) if intersects(det.box, grown)]
        growth += EDGE_EXPAND_STEP
        if len(hits) >= 2 or growth >= EDGE_EXPAND_LIMIT:
            return hits


def _spread(points: list[tuple[float, float]], direction: tuple[float, float]) -> float:
    projections = [x * direction[0] + y * direction[1] for x, y in points]
    return max(projections) - min(projections)


def filter_cands(
    cands: list[int], atoms: EntityChannel, bond_box: BBox
) -> tuple[int, int]:
    """Reduce >2 endpoint candidates to the two at the bond's extremes.

    The bond box's major axis picks two opposite extreme points (edge
    midpoints, or corners of the dominant diagonal on ties); each extreme
    takes the candidate atom with the nearest center, the second falling to
    the next-nearest distinct atom if both extremes agree.
    """
    if len(cands) < 3:
        raise ValueError("filter_cands needs more than two candidates")
    cx, cy = bond_box.center
    if bond_box.width > bond_box.height:
        points = [(bond_box.xmin, cy), (bond_box.xmax, cy)]
    elif bond_box.height > bond_box.width:
        points = [(cx, bond_box.ymin), (cx, bond_box.ymax)]
    else:
        centers = [atoms.boxes[i].box.center for i in cands]
        main = _spread(centers, (1.0, 1.0))
        anti = _spread(centers, (1.0, -1.0))
        if main >= anti:
            points = [(bond_box.xmin, bond_box.ymin), (bond_box.xmax, bond_box.ymax)]
        else:
            points = [(bond_box.xmin, bond_box.ymax), (bond_box.xmax, bond_box.ymin)]

    def nearest(point: tuple[float, float], exclude: int | None = None) -> int:
        px, py = point
        ranked = sorted(
            (i for i in cands if i != exclude),
            key=lambda i: (
                (atoms.boxes[i].box.center[0] - px) ** 2
                + (atoms.boxes[i].box.center[1] - py) ** 2,
                i,
            ),
        )
        return ranked[0]

    first = nearest(points[0])
    second = nearest(points[1])
    if second == first:
        second = nearest(points[1], exclude=first)
    return first, second


def resolve_endpoints(
    atoms: EntityChannel, bond: DetBox
) -> tuple[list[int], tuple[int, int] | None]:
    """The bond_endpoints candidates and the atom pair the bond joins.

    Two candidates are the pair; more go through filter_cands; fewer join
    no pair (None).
    """
    hits = bond_endpoints(atoms, bond)
    if len(hits) == 2:
        return hits, (hits[0], hits[1])
    if len(hits) > 2:
        return hits, filter_cands(hits, atoms, bond.box)
    return hits, None


def construct(
    entities: EntitySet, warnings: list[DroppedBond] | None = None
) -> MolGraph:
    """Assemble and validate a molecular graph from one image's detections.

    Pipeline: deduplicate atom boxes, attach charges and stereo flags, then
    resolve each bond detection to two endpoints (expanding its box when
    needed, trimming surplus candidates geometrically).  Unresolvable bonds
    are dropped with a warning record; duplicate bonds between one atom pair
    keep the higher score, then the higher order.  The result is run through
    valence repair, at its default of at most 10 bond deletions, before
    being returned.
    """
    atoms = filter_atoms(entities.atoms)
    charges = assign_charges(atoms, entities.charges)
    flagged = assign_stereo(atoms, entities.stereos, entities.bonds)
    graph_atoms = tuple(
        Atom(ATOM_CLASSES[det.class_id], charges[i], i in flagged, det.box)
        for i, det in enumerate(atoms)
    )

    chosen: dict[tuple[int, int], Bond] = {}
    for index, det in enumerate(entities.bonds):
        hits, pair = resolve_endpoints(atoms, det)
        if pair is None:
            if warnings is not None:
                reason = "no_endpoints" if not hits else "single_endpoint"
                warnings.append(DroppedBond(entities.image_id, index, reason))
            continue
        bond = Bond(*pair, BOND_CLASSES[det.class_id], det.box, det.score)
        held = chosen.get(bond.pair)
        rank = (bond.score, ORDER_VALUE[bond.order])
        if held is None or rank > (held.score, ORDER_VALUE[held.order]):
            chosen[bond.pair] = bond

    graph = MolGraph(graph_atoms, tuple(chosen.values()))
    return repair(graph)
