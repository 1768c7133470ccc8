"""Checks the benchmark runs on the program's outputs.

Everything here is computed apart from the program: graph isomorphism, the
effect of an edit script and detection mAP each have their own
implementation, so a fault in the program cannot hide behind the same fault
in its check.  Graphs are compared as plain data (atom labels and an edge
dict), read off the program's `MolGraph` objects.
"""

from __future__ import annotations

import csv
from collections import Counter

CHANNEL_KINDS = ("atom", "bond", "charge", "stereo")
# the mAP thresholds of the method, restated here rather than imported
IOU_THRESHOLDS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
_AS_SINGLE = {"wedged": "single", "dashed": "single"}


class CheckFailed(RuntimeError):
    """A program output contradicts its independent check."""


def plain(graph) -> tuple[list, dict]:
    """(atom labels, {(u, v): bond order}) with stereo marks read as single."""
    labels = [(a.element, a.formal_charge) for a in graph.atoms]
    edges = {(min(b.u, b.v), max(b.u, b.v)): _AS_SINGLE.get(b.order, b.order)
             for b in graph.bonds}
    return labels, edges


def _neighbours(n: int, edges: dict) -> list[dict]:
    out = [{} for _ in range(n)]
    for (u, v), order in edges.items():
        out[u][v] = order
        out[v][u] = order
    return out


def _refine(labels: list, adj: list[dict]) -> list[int]:
    """Stable colours of colour refinement, as dense ranks."""
    keys = [(lab, len(adj[i])) for i, lab in enumerate(labels)]
    colours = _dense(keys)
    while True:
        keys = [(colours[i], tuple(sorted((o, colours[j]) for j, o in adj[i].items())))
                for i in range(len(labels))]
        new = _dense(keys)
        if len(set(new)) == len(set(colours)):
            return new
        colours = new


def _dense(keys: list) -> list[int]:
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def same_graph(a: tuple, b: tuple, budget: int = 2_000_000) -> bool:
    """Exact isomorphism of two plain graphs by refined backtracking."""
    (la, ea), (lb, eb) = a, b
    n = len(la)
    if n != len(lb) or len(ea) != len(eb):
        return False
    if Counter(la) != Counter(lb) or Counter(ea.values()) != Counter(eb.values()):
        return False
    if n == 0:
        return True
    adj_a, adj_b = _neighbours(n, ea), _neighbours(n, eb)
    # refine the disjoint union so both sides get comparable colours
    shifted = [{j + n: o for j, o in row.items()} for row in adj_b]
    colours = _refine(la + lb, adj_a + shifted)
    ca, cb = colours[:n], colours[n:]
    if Counter(ca) != Counter(cb):
        return False
    by_colour: dict[int, list[int]] = {}
    for w, c in enumerate(cb):
        by_colour.setdefault(c, []).append(w)

    # visit a's atoms so that each one after the first of its component
    # touches an atom already placed
    order: list[int] = []
    placed = [False] * n
    size = Counter(ca)
    for start in sorted(range(n), key=lambda v: (size[ca[v]], v)):
        if placed[start]:
            continue
        placed[start] = True
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(adj_a[v], key=lambda u: (size[ca[u]], u)):
                if not placed[u]:
                    placed[u] = True
                    queue.append(u)

    image = [-1] * n
    used = [False] * n
    stack = [iter(by_colour[ca[order[0]]])]
    steps = 0
    while stack:
        depth = len(stack) - 1
        v = order[depth]
        if image[v] >= 0:
            used[image[v]] = False
            image[v] = -1
        for w in stack[-1]:
            steps += 1
            if steps > budget:
                raise CheckFailed("isomorphism oracle ran out of budget")
            if used[w]:
                continue
            mapped = 0
            for u, o in adj_a[v].items():
                if image[u] >= 0:
                    mapped += 1
                    if adj_b[w].get(image[u]) != o:
                        break
            else:
                if mapped == sum(1 for x in adj_b[w] if used[x]):
                    image[v] = w
                    used[w] = True
                    break
        else:
            stack.pop()
            continue
        if depth + 1 == n:
            return True
        stack.append(iter(by_colour[ca[order[depth + 1]]]))
    return False


def apply_ops(graph: tuple, ops) -> tuple:
    """Apply the program's EditOps to a plain graph, by their documented
    meaning; an op that does not fit the graph fails the check."""
    labels, edges = list(graph[0]), dict(graph[1])
    for op in ops:
        pair = op.pair
        if op.kind == "relabel_atom":
            labels[op.atom_index] = (op.element, op.charge)
        elif op.kind == "relabel_bond":
            if pair not in edges:
                raise CheckFailed(f"script relabels a missing bond {pair}")
            edges[pair] = _AS_SINGLE.get(op.order, op.order)
        elif op.kind == "delete_bond":
            if edges.pop(pair, None) is None:
                raise CheckFailed(f"script deletes a missing bond {pair}")
        elif op.kind == "insert_bond":
            if pair in edges:
                raise CheckFailed(f"script inserts an existing bond {pair}")
            edges[pair] = _AS_SINGLE.get(op.order, op.order)
        elif op.kind == "delete_atom":
            i = op.atom_index
            if any(i in p for p in edges):
                raise CheckFailed(f"script deletes bonded atom {i}")
            del labels[i]
            edges = {(u - (u > i), v - (v > i)): o for (u, v), o in edges.items()}
        elif op.kind == "insert_atom":
            labels.append((op.element, op.charge))
            if op.attach_to is not None:
                edges[(op.attach_to, len(labels) - 1)] = _AS_SINGLE.get(op.order, op.order)
        else:
            raise CheckFailed(f"unknown edit kind {op.kind}")
    return labels, edges


def read_boxes(folder) -> list[tuple]:
    """(kind, class id, box, score, row index) for every box of one image
    folder, read with the csv module."""
    out = []
    for kind in CHANNEL_KINDS:
        path = folder / f"{kind}s.csv"
        if path.exists():
            out += _read_channel(path, kind)
    return out


def _read_channel(path, kind: str) -> list[tuple]:
    rows = [r for r in csv.reader(path.read_text().splitlines()) if r]
    scored = len(rows[0]) == 6
    return [(kind, int(r[0]), tuple(float(x) for x in r[1:5]),
             float(r[5]) if scored else 1.0, index)
            for index, r in enumerate(rows[1:])]


def _iou(a: tuple, b: tuple) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def oracle_map(pred: dict, ref: dict, thresholds=IOU_THRESHOLDS) -> float | None:
    """Mean over reference classes and thresholds of the area under the
    precision-recall staircase.  Detections of a class are ranked over all
    images by score, then image order, then row; each takes the unmatched
    reference box of its image with the highest IoU, if that IoU reaches
    the threshold."""
    ids = sorted(ref)
    classes = sorted({(k, c) for i in ids for k, c, *_ in ref[i]})
    if not classes:
        return None
    class_aps = []
    for kind, cls in classes:
        truth = {i: [b for k, c, b, _, _ in ref[i] if (k, c) == (kind, cls)] for i in ids}
        n_true = sum(len(v) for v in truth.values())
        ranked = sorted(
            (-s, pos, row, i, b)
            for pos, i in enumerate(ids)
            for k, c, b, s, row in pred.get(i, ()) if (k, c) == (kind, cls)
        )
        aps = []
        for t in thresholds:
            taken = {i: set() for i in ids}
            tp = 0
            curve = []
            for rank, (_, _, _, i, box) in enumerate(ranked, start=1):
                overlaps = [(_iou(box, r), -j) for j, r in enumerate(truth[i])
                            if j not in taken[i]]
                best = max(overlaps, default=(0.0, 0))
                if best[0] > 0 and best[0] >= t:
                    taken[i].add(-best[1])
                    tp += 1
                curve.append((tp / n_true, tp / rank))
            area, last_recall = 0.0, 0.0
            for recall, precision in curve:
                area += (recall - last_recall) * precision
                last_recall = recall
            aps.append(area)
        class_aps.append(sum(aps) / len(aps))
    return sum(class_aps) / len(class_aps)


def check_oracle_fixtures(tests_dir) -> None:
    """The oracle must reproduce the hand-computed fixture values."""
    root = tests_dir / "fixtures" / "smiles10"
    ids = sorted(p.name for p in (root / "ref_boxes").iterdir())
    value = oracle_map({i: read_boxes(root / "pred_boxes" / i) for i in ids},
                       {i: read_boxes(root / "ref_boxes" / i) for i in ids})
    if value is None or abs(value - 0.75) > 1e-9:
        raise CheckFailed(f"mAP oracle gives {value} on smiles10, not 0.75")
    ap_root = tests_dir / "fixtures" / "ap_half"
    pred = {"x": _read_channel(ap_root / "preds.csv", "atom")}
    ref = {"x": _read_channel(ap_root / "refs.csv", "atom")}
    for t in (0.05, 0.2, 0.35, 0.5):
        value = oracle_map(pred, ref, (t,))
        if abs(value - 0.5) > 1e-9:
            raise CheckFailed(f"mAP oracle gives {value} on ap_half at {t}, not 0.5")


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)
