"""Dataset scoring: exact match, fingerprint similarity, counts, and box AP."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .entities import CHANNEL_KINDS, EntitySet, iou
from .fingerprint import FpParams, ecfp, tanimoto
from .molgraph import MolGraph, isomorphic, match_order
from .smiles import SmilesError, parse

DEFAULT_IOU_THRESHOLDS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35)

_NOTES = (
    "atom counts cover graph atoms only; implicit hydrogens are not counted",
    "wedged and dashed bonds are counted as single",
)


class MetricsError(ValueError):
    """A reference entry cannot be scored."""


@dataclass(frozen=True)
class PairScore:
    """A prediction's score, with the parsed prediction (None when it does
    not parse) and reference."""

    exact: bool
    tanimoto: float
    pred_graph: MolGraph | None
    ref_graph: MolGraph

    @property
    def pred_parsed(self) -> bool:
        return self.pred_graph is not None


def score_pair(pred: str, ref: str, fp_params: FpParams = FpParams()) -> PairScore:
    """Exact-match and fingerprint similarity for one prediction.

    An unparseable prediction scores (False, 0.0); an unparseable reference
    raises MetricsError.
    """
    try:
        ref_graph = parse(ref)
    except SmilesError as exc:
        raise MetricsError(f"reference does not parse: {exc}") from exc
    try:
        pred_graph = parse(pred)
    except SmilesError:
        return PairScore(False, 0.0, None, ref_graph)
    sim = tanimoto(ecfp(pred_graph, fp_params), ecfp(ref_graph, fp_params))
    return PairScore(isomorphic(pred_graph, ref_graph), sim, pred_graph, ref_graph)


def type_counts(graph: MolGraph) -> Counter:
    """Multiset of typed entities: ('atom', element) and ('bond', order)."""
    counts: Counter = Counter()
    for atom in graph.atoms:
        counts[("atom", atom.element)] += 1
    for bond in graph.bonds:
        counts[("bond", match_order(bond.order))] += 1
    return counts


@dataclass(frozen=True)
class MetricsReport:
    n_images: int
    exact: float
    tanimoto_at_1: float
    mean_tanimoto: float
    count_accuracy: float
    per_type: dict = field(default_factory=dict)  # "atom:C" -> (accuracy, n)
    map_score: float | None = None
    notes: tuple = _NOTES

    def summary_lines(self) -> list[str]:
        lines = [
            f"images            {self.n_images}",
            f"exact             {self.exact:.4f}",
            f"tanimoto@1        {self.tanimoto_at_1:.4f}",
            f"mean tanimoto     {self.mean_tanimoto:.4f}",
            f"count accuracy    {self.count_accuracy:.4f}",
        ]
        if self.map_score is not None:
            lines.append(f"detection mAP     {self.map_score:.4f}")
        return lines

    def per_type_csv(self) -> str:
        rows = ["type,accuracy,n_images"]
        for name in sorted(self.per_type):
            accuracy, n = self.per_type[name]
            rows.append(f"{name},{accuracy:.6f},{n}")
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        payload = {
            "n_images": self.n_images,
            "exact": self.exact,
            "tanimoto_at_1": self.tanimoto_at_1,
            "mean_tanimoto": self.mean_tanimoto,
            "count_accuracy": self.count_accuracy,
            "per_type": {
                name: {"accuracy": acc, "n_images": n}
                for name, (acc, n) in sorted(self.per_type.items())
            },
            "map": self.map_score,
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def evaluate_dataset(
    predictions: dict[str, str],
    references: dict[str, str],
    fp_params: FpParams = FpParams(),
    pred_entities: dict[str, EntitySet] | None = None,
    ref_entities: dict[str, EntitySet] | None = None,
) -> MetricsReport:
    """Score predictions against references, keyed by image id.

    Missing or unparseable predictions count as wrong.  Detection mAP is
    reported only when both entity mappings are given; otherwise map_score
    is None rather than a fabricated value.
    """
    if not references:
        raise MetricsError("no reference images to score")
    n = len(references)
    exact_hits = 0
    t1_hits = 0
    sim_total = 0.0
    count_hits = 0
    per_type_hits: Counter = Counter()
    per_type_totals: Counter = Counter()

    for image_id in sorted(references):
        ref_smiles = references[image_id]
        pred_smiles = predictions.get(image_id, "")
        try:
            pair = score_pair(pred_smiles, ref_smiles, fp_params)
        except MetricsError as exc:
            raise MetricsError(f"{image_id}: {exc}") from exc
        exact_hits += pair.exact
        t1_hits += pair.tanimoto == 1.0
        sim_total += pair.tanimoto

        ref_counts = type_counts(pair.ref_graph)
        pred_counts = type_counts(pair.pred_graph) if pair.pred_parsed else Counter()
        count_hits += pred_counts == ref_counts
        for key, n_ref in ref_counts.items():
            per_type_totals[key] += 1
            per_type_hits[key] += pred_counts[key] == n_ref

    per_type = {
        f"{key[0]}:{key[1]}": (per_type_hits[key] / total, total)
        for key, total in per_type_totals.items()
    }
    map_score = None
    if pred_entities is not None and ref_entities is not None:
        map_score = mean_average_precision(pred_entities, ref_entities)
    return MetricsReport(
        n_images=n,
        exact=exact_hits / n,
        tanimoto_at_1=t1_hits / n,
        mean_tanimoto=sim_total / n,
        count_accuracy=count_hits / n,
        per_type=per_type,
        map_score=map_score,
    )


def average_precision(detections, references, iou_threshold: float) -> float:
    """AP for one class in one image: greedy best-IoU matching in score
    order, then the running-precision sum over recall increments."""
    if not references:
        raise MetricsError("average_precision needs at least one reference box")
    ranked = sorted(range(len(detections)), key=lambda k: (-detections[k].score, k))
    overlaps = _overlaps([(0, detections[k].box) for k in ranked], {0: references})
    return _ap_from_flags(_match_flags(overlaps, iou_threshold), len(references))


def _overlaps(ranked, refs_by_image: dict) -> list[tuple]:
    """Per ranked (image, box) detection, its image and the (j, IoU) pairs of
    the reference boxes of that image it overlaps, in reference order."""
    rows = []
    for image, box in ranked:
        row = []
        for j, ref_box in enumerate(refs_by_image[image]):
            overlap = iou(box, ref_box)
            if overlap > 0.0:
                row.append((j, overlap))
        rows.append((image, row))
    return rows


def _match_flags(overlaps: list[tuple], iou_threshold: float) -> list[bool]:
    """Greedy matching of ranked detections, given by their `_overlaps` rows,
    each to the unmatched reference box of its own image with the highest
    IoU; True per match."""
    matched: dict = {}
    flags: list[bool] = []
    for image, row in overlaps:
        taken = matched.setdefault(image, set())
        best_iou, best_j = 0.0, -1
        for j, overlap in row:
            if overlap > best_iou and j not in taken:
                best_iou, best_j = overlap, j
        if best_j >= 0 and best_iou >= iou_threshold:
            taken.add(best_j)
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _ap_from_flags(flags: list[bool], n_ref: int) -> float:
    ap = 0.0
    tp = 0
    for i, hit in enumerate(flags, start=1):
        if hit:
            tp += 1
            ap += (1.0 / n_ref) * (tp / i)
    return ap


def mean_average_precision(
    pred_entities: dict[str, EntitySet],
    ref_entities: dict[str, EntitySet],
    thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS,
) -> float | None:
    """Mean AP over every (channel, class) present in the references and over
    the IoU thresholds.  Detections are ranked globally per class but matched
    within their own image.  None when the references contain no boxes."""
    image_ids = sorted(ref_entities)
    classes: set[tuple[str, int]] = set()
    for image_id in image_ids:
        for kind in CHANNEL_KINDS:
            for det in getattr(ref_entities[image_id], kind + "s"):
                classes.add((kind, det.class_id))
    if not classes:
        return None

    class_means = []
    for kind, class_id in sorted(classes):
        refs_by_image = {
            image_id: [
                det.box for det in getattr(ref_entities[image_id], kind + "s")
                if det.class_id == class_id
            ]
            for image_id in image_ids
        }
        n_ref = sum(len(boxes) for boxes in refs_by_image.values())
        pooled = []
        for image_order, image_id in enumerate(image_ids):
            entity_set = pred_entities.get(image_id)
            if entity_set is None:
                continue
            for det_index, det in enumerate(getattr(entity_set, kind + "s")):
                if det.class_id == class_id:
                    pooled.append((-det.score, image_order, det_index, image_id, det.box))
        pooled.sort(key=lambda item: item[:3])
        overlaps = _overlaps([(image_id, box) for *_, image_id, box in pooled],
                             refs_by_image)
        threshold_aps = [
            _ap_from_flags(_match_flags(overlaps, threshold), n_ref)
            for threshold in thresholds
        ]
        class_means.append(sum(threshold_aps) / len(threshold_aps))
    return sum(class_means) / len(class_means)
