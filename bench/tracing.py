"""Spans around the calls into detmol's public functions, and the per-layer
metrics derived from them.

The tracer replaces each traced function, in every detmol module that holds
it (the command-line module's imports too), with a wrapper that records one
span per call: its name, start, end, parent span, image id and round, plus
counts read off the arguments and result.  The image of a call is read off
its own arguments: an `image_id` argument, an argument that carries one
(an entity set), or an argument that an earlier traced call of a known image
returned (the graph `construct` made of an entity set); failing those it is
the image of the enclosing call, if any.  Spans stay in memory until the
run writes them out.  The traced commands run on one thread, so one stack
of open spans is enough.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, counts read off the result and the arguments)
TRACED = (
    ("entities", "read_entity_set",
     lambda es, *a: {"boxes": len(es.atoms) + len(es.bonds) + len(es.charges) + len(es.stereos)}),
    ("entities", "write_entity_set", None),
    ("constructor", "construct",
     lambda g, es, *a: {"bond_boxes": len(es.bonds), "bonds": len(g.bonds)}),
    ("molgraph", "repair", None),
    ("molgraph", "isomorphic", None),
    ("smiles", "parse", None),
    ("smiles", "write", None),
    ("smiles", "canonical_ranks", None),
    ("editcorrect", "plant_errors", None),
    ("editcorrect", "edit_correct",
     lambda c, *a: {"accepted": int(c is not None), "cost": c.script.cost if c else 0}),
    ("editcorrect", "project_pseudo_labels", None),
    ("fingerprint", "ecfp", None),
    ("metrics", "score_pair", None),
    ("metrics", "type_counts", None),
    ("metrics", "mean_average_precision", None),
    ("metrics", "evaluate_dataset", None),
)

PER_IMAGE = ("entities.read", "entities.write", "constructor.construct",
             "smiles.write", "smiles.canonical_ranks", "smiles.parse",
             "molgraph.isomorphic", "editcorrect.plant_errors",
             "editcorrect.edit_correct", "fingerprint.ecfp", "metrics.score_pair")
TAILED = ("constructor.construct", "smiles.write", "molgraph.isomorphic",
          "editcorrect.plant_errors", "editcorrect.edit_correct")
PERCENTILES = (99, 95, 90, 75, 50)


def _metric_name(span_name: str) -> str:
    return {"entities.read_entity_set": "entities.read",
            "entities.write_entity_set": "entities.write",
            "editcorrect.project_pseudo_labels": "editcorrect.project"}.get(span_name, span_name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self.enabled = False  # on only inside a stage: the checks make no spans
        # (construction, reference, correction) of every accepted edit_correct
        # call since the list was last emptied
        self.corrections: list[tuple] = []
        self._open: list[int] = []
        self._origin: dict[int, tuple] = {}  # id(result) -> (result, image)
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str, image: str | None = None):
        parent = self._open[-1] if self._open else None
        if image is None and parent is not None:
            image = self.spans[parent]["image"]
        record = {"name": name, "start": perf_counter() - self._t0, "end": None,
                  "parent": parent, "image": image, "round": self.round}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = perf_counter() - self._t0
            self._open.pop()

    @contextmanager
    def stage(self, name: str):
        """Trace the calls of one command as the stage span `stage.<name>`."""
        self.enabled = True
        try:
            with self.span(f"stage.{name}"):
                yield
        finally:
            self.enabled = False
            self._origin.clear()

    def _image_of(self, bound: dict) -> str | None:
        if isinstance(bound.get("image_id"), str):
            return bound["image_id"]
        for value in bound.values():
            image = getattr(value, "image_id", None)
            if isinstance(image, str):
                return image
            held = self._origin.get(id(value))
            if held is not None and held[0] is value:
                return held[1]
        return None

    def _wrap(self, name: str, fn, count):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            with self.span(name, self._image_of(bound)) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record["counts"] = count(result, *args)
            if record["image"] is not None and not isinstance(result, (str, int, float)):
                self._origin[id(result)] = (result, record["image"])
            if name == "editcorrect.edit_correct" and result is not None:
                self.corrections.append((bound["pred"], bound["ref"], result))
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import detmol  # noqa: F401  (loads every submodule)
        import detmol.cli  # noqa: F401
        modules = [m for key, m in list(sys.modules.items())
                   if key == "detmol" or key.startswith("detmol.")]
        for module_name, fn_name, count in TRACED:
            original = getattr(sys.modules[f"detmol.{module_name}"], fn_name)
            wrapped = self._wrap(f"{module_name}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, separators=(",", ":")) + "\n")


def _stage_of(spans: list[dict]) -> list[int | None]:
    """Index of the stage span each span runs under."""
    stages: list[int | None] = []
    for index, record in enumerate(spans):
        if record["name"].startswith("stage."):
            stages.append(index)
        else:
            parent = record["parent"]
            stages.append(None if parent is None else stages[parent])
    return stages


def tail_percentile(n_images: int) -> int:
    """Highest of PERCENTILES with at least ten of n_images beyond it."""
    for p in PERCENTILES:
        if n_images - n_images * p / 100.0 >= 10:
            return p
    return 50


def _percentile(values: list[float], p: int) -> float:
    ranked = sorted(values)
    index = max(0, min(len(ranked) - 1, -(-len(ranked) * p // 100) - 1))
    return ranked[index]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and the tail percentile each tail metric used.

    A `_ms` metric is the median over images of the time one image spent in
    that function, summed over the function's calls for that image within
    one stage command; nested calls count for their own function too, and a
    call whose image is not known is a sample of its own.  A tail metric
    picks its percentile from the number of samples one round gives it, and
    reads it off the samples of every round.  Counts and the ratio
    come from round 0, whose inputs depend on the seed alone.
    """
    stages = _stage_of(spans)
    per_image: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for index, (record, stage) in enumerate(zip(spans, stages)):
        if record["name"].startswith("stage."):
            continue
        # one image in one stage command, or one call when no image is known
        key = ((stage, record["image"]) if record["image"] is not None else index,
               record["round"])
        per_image[_metric_name(record["name"])][key] += record["end"] - record["start"]

    metrics: dict[str, float] = {}
    tails: dict[str, int] = {}
    for name in PER_IMAGE:
        samples = list(per_image[name].values())
        metrics[f"{name}_ms"] = _median(samples) * 1000.0
        if name in TAILED:
            in_round0 = sum(1 for key in per_image[name] if key[1] == 0)
            p = tails[name] = tail_percentile(in_round0)
            metrics[f"{name}_tail_ms"] = (_percentile(samples, p) * 1000.0
                                          if samples else 0.0)

    corrections = [r for r in spans
                   if r["name"] == "editcorrect.edit_correct" and "counts" in r]
    accepted = [r["end"] - r["start"] for r in corrections if r["counts"]["accepted"]]
    rejected = [r["end"] - r["start"] for r in corrections if not r["counts"]["accepted"]]
    metrics["editcorrect.accept_ms"] = _median(accepted) * 1000.0
    metrics["editcorrect.reject_ms"] = _median(rejected) * 1000.0
    projections = list(per_image["editcorrect.project"].values())
    metrics["editcorrect.project_ms"] = _median(projections) * 1000.0

    first = [r for r in spans if r["round"] == 0 and "counts" in r]
    def total(name, field):
        return sum(r["counts"][field] for r in first if r["name"] == name)
    metrics["entities.boxes"] = total("entities.read_entity_set", "boxes")
    metrics["constructor.bonds_kept_ratio"] = (
        total("constructor.construct", "bonds")
        / max(1, total("constructor.construct", "bond_boxes")))
    metrics["editcorrect.accepted"] = total("editcorrect.edit_correct", "accepted")
    metrics["editcorrect.rejected"] = sum(
        1 for r in first if r["name"] == "editcorrect.edit_correct"
        and not r["counts"]["accepted"])
    metrics["editcorrect.cost_total"] = total("editcorrect.edit_correct", "cost")

    for name in ("mean_average_precision", "evaluate_dataset"):
        runs = [r["end"] - r["start"] for r in spans if r["name"] == f"metrics.{name}"]
        metrics[f"metrics.{'map' if name == 'mean_average_precision' else name}_s"] = _median(runs)
    return metrics, tails


def stage_shares(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Share of each stage's traced time spent in each function's own code
    (its span minus its children), summed over rounds; `(stage)` is the
    stage's time outside every traced call."""
    stages = _stage_of(spans)
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    total: dict[str, float] = defaultdict(float)
    for index, (record, stage_index) in enumerate(zip(spans, stages)):
        if stage_index is None:
            continue
        stage = spans[stage_index]["name"][len("stage."):]
        self_time = record["end"] - record["start"] - child_time[index]
        if record["name"].startswith("stage."):
            total[stage] += record["end"] - record["start"]
            own[stage]["(stage)"] += self_time
        else:
            own[stage][record["name"]] += self_time
    return {stage: {name: t / total[stage] for name, t in sorted(
        own[stage].items(), key=lambda kv: -kv[1])} for stage in own}
