"""Command line front end.

Exit codes: 0 success, 1 when --strict is set and any per-image step failed,
2 for bad usage or configuration, invalid input data, or a file that cannot
be read or written.  `main` is the one place where a command's error becomes
exit 2.  `_each_image` is the one place where an error fails one image:
an ImageError, or a ValueError such as an unreadable label file.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import constructor, editcorrect, entities, experts, fingerprint, metrics, smiles

log = logging.getLogger("detmol.cli")


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        failures = args.handler(args)
    except (OSError, ValueError) as exc:
        # a bad option value, and the package's input errors (SmilesError,
        # LabelFileError, ...), are ValueErrors; an OSError is a file other
        # than a label file that cannot be read, or an output that cannot be
        # written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failures:
        log.warning("%d image(s) failed", failures)
        if args.strict:
            return 1
    return 0


def _setup_logging() -> None:
    level_name = os.environ.get("DETMOL_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    root = logging.getLogger("detmol")
    root.setLevel(level)
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--strict", action="store_true",
                        help="exit 1 if any image fails")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker threads for cascade, whose command "
                             "experts wait on child processes; output order "
                             "is preserved. Other commands run one image at "
                             "a time: their work is pure Python, which "
                             "threads only slow down by contending for the "
                             "interpreter lock")

    parser = argparse.ArgumentParser(
        prog="detmol",
        description="Molecular graph reconstruction from detection boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="detections -> SMILES manifest")
    p.add_argument("--detections", required=True,
                   help="root directory of per-image label folders")
    p.add_argument("--images", help="file listing image ids to process")
    p.add_argument("--out", default="-", help="output TSV ('-' for stdout)")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score predictions against references")
    p.add_argument("--predictions", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--nbits", type=int, default=2048)
    p.add_argument("--pred-detections", help="predicted boxes root, for mAP")
    p.add_argument("--ref-detections", help="reference boxes root, for mAP")
    p.add_argument("--per-type-csv", help="write per-type accuracies here")
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("edit-correct", parents=[common],
                       help="repair constructions against reference SMILES")
    p.add_argument("--detections", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--out-labels", help="write projected label folders here")
    p.add_argument("--summary", default="-",
                   help="TSV of image_id, cost, accepted ('-' for stdout)")
    p.set_defaults(handler=_cmd_edit_correct)

    p = sub.add_parser("cascade", parents=[common],
                       help="run a recognizer cascade over images")
    p.add_argument("--experts", required=True,
                   help="config file: `name kind source` per line")
    p.add_argument("--images", required=True,
                   help="file listing image ids to process")
    p.add_argument("--out", default="-", help="output TSV ('-' for stdout)")
    p.set_defaults(handler=_cmd_cascade)

    p = sub.add_parser("fingerprint", parents=[common],
                       help="hashed circular fingerprints")
    p.add_argument("smiles", nargs="*", help="SMILES strings")
    p.add_argument("--manifest", help="TSV of image_id, smiles")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--nbits", type=int, default=2048)
    p.add_argument("--pair", action="store_true",
                   help="print the Tanimoto similarity of exactly two SMILES")
    p.set_defaults(handler=_cmd_fingerprint)

    p = sub.add_parser("perturb", parents=[common],
                       help="render SMILES to label files with planted errors")
    p.add_argument("--smiles", help="single molecule to render")
    p.add_argument("--image-id", default="synthetic")
    p.add_argument("--manifest", help="TSV of image_id, smiles to render")
    p.add_argument("--edits", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="root directory for label folders")
    p.add_argument("--truth-out", help="write the truth manifest here")
    p.set_defaults(handler=_cmd_perturb)
    return parser


def _write_rows(out: str, rows: dict, failed: str = "") -> None:
    rows = {image_id: failed if value is None else value
            for image_id, value in rows.items()}
    if out == "-":
        for image_id, value in rows.items():
            sys.stdout.write(f"{image_id}\t{value}\n")
    else:
        entities.write_manifest(out, rows)


def _detections_root(args) -> Path:
    root = Path(args.detections)
    if not root.is_dir():
        raise ValueError(f"not a directory: {root}")
    return root


def _each_image(image_ids, step, jobs: int = 1) -> tuple[dict, int]:
    """Run `step(image_id)` over the images in order; returns each image's
    value and the number of images that failed.  An ImageError or a
    ValueError fails its image only: it is logged, counted, and the image's
    value is None.  Any other error ends the run."""

    def one(image_id: str):
        try:
            return step(image_id), None
        except (entities.ImageError, ValueError) as exc:
            return None, exc

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, image_ids))
    else:
        outcomes = map(one, image_ids)
    values = {}
    failures = 0
    for image_id, (value, error) in zip(image_ids, outcomes):
        if error is not None:
            log.error("%s: %s", image_id, error)
            failures += 1
        values[image_id] = value
    return values, failures


def _cmd_construct(args) -> int:
    root = _detections_root(args)
    image_ids = (list(entities.read_manifest(args.images)) if args.images
                 else sorted(p.name for p in root.iterdir() if p.is_dir()))

    def step(image_id: str) -> str:
        dropped = []
        try:
            boxes = entities.read_detections(root, image_id)
            return smiles.write(constructor.construct(boxes, dropped))
        finally:
            for warning in dropped:
                log.warning("%s", warning.format())

    rows, failures = _each_image(image_ids, step)
    _write_rows(args.out, rows)
    return failures


def _cmd_evaluate(args) -> int:
    predictions = entities.read_manifest(args.predictions)
    references = entities.read_manifest(args.references)
    if bool(args.pred_detections) != bool(args.ref_detections):
        raise ValueError(
            "--pred-detections and --ref-detections must be given together"
        )
    pred_entities = ref_entities = None
    if args.pred_detections:
        # a predicted folder may be missing because nothing was detected;
        # every reference must have its true boxes
        pred_entities = {
            image_id: entities.read_entity_set(args.pred_detections, image_id)
            for image_id in references
        }
        ref_entities = {
            image_id: entities.read_detections(args.ref_detections, image_id)
            for image_id in references
        }
    report = metrics.evaluate_dataset(
        predictions, references, fingerprint.FpParams(args.radius, args.nbits),
        pred_entities, ref_entities,
    )
    if args.per_type_csv:
        Path(args.per_type_csv).write_text(report.per_type_csv(), encoding="utf-8")
    if args.json:
        print(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0


def _cmd_edit_correct(args) -> int:
    references = entities.read_manifest(args.references)
    root = _detections_root(args)
    if args.k_max < 0:
        raise ValueError("--k-max must be >= 0")
    # a bad reference ends the run before any pseudo-label is written
    ref_graphs = {}
    for image_id in sorted(references):
        try:
            ref_graphs[image_id] = smiles.parse(references[image_id])
        except smiles.SmilesError as exc:
            raise ValueError(f"{image_id}: bad reference: {exc}") from exc
    out_root = Path(args.out_labels) if args.out_labels else None
    if out_root is not None:
        out_root.mkdir(parents=True, exist_ok=True)

    def step(image_id: str) -> str:
        boxes = entities.read_detections(root, image_id)
        correction = editcorrect.edit_correct(
            constructor.construct(boxes), ref_graphs[image_id], args.k_max)
        if correction is None:
            return "\tno"
        if out_root is not None:
            entities.write_entity_set(out_root, editcorrect.project_pseudo_labels(
                boxes, correction.script, correction.graph))
        return f"{correction.script.cost}\tyes"

    rows, failures = _each_image(list(ref_graphs), step)
    _write_rows(args.summary, rows, failed="\tno")
    return failures


def _cmd_cascade(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    adapters = experts.load_cascade_config(args.experts)
    image_ids = list(entities.read_manifest(args.images))

    def step(image_id: str) -> str:
        result = experts.cascade(adapters, image_id)
        log.info("%s: %s via %s (valid=%s)",
                 image_id, result.smiles, result.expert, result.valid)
        return result.smiles

    rows, failures = _each_image(image_ids, step, args.jobs)
    _write_rows(args.out, rows)
    return failures


def _cmd_fingerprint(args) -> int:
    fp_params = fingerprint.FpParams(args.radius, args.nbits)
    if args.manifest:
        if args.smiles or args.pair:
            raise ValueError("--manifest excludes positional SMILES and --pair")
        smiles_of = entities.read_manifest(args.manifest)
        rows, failures = _each_image(
            list(smiles_of),
            lambda image_id: fingerprint.ecfp(
                smiles.parse(smiles_of[image_id]), fp_params).to_hex())
        _write_rows("-", rows)
        return failures
    if not args.smiles:
        raise ValueError("give SMILES arguments or --manifest")
    prints = [fingerprint.ecfp(smiles.parse(s), fp_params) for s in args.smiles]
    if args.pair:
        if len(prints) != 2:
            raise ValueError("--pair needs exactly two SMILES")
        print(f"{fingerprint.tanimoto(prints[0], prints[1]):.6f}")
    else:
        for fp in prints:
            print(fp.to_hex())
    return 0


def _cmd_perturb(args) -> int:
    if bool(args.smiles) == bool(args.manifest):
        raise ValueError("give exactly one of --smiles or --manifest")
    if args.edits < 0:
        raise ValueError("--edits must be >= 0")
    smiles_of = (entities.read_manifest(args.manifest) if args.manifest
                 else {args.image_id: args.smiles})
    seed_of = {image_id: args.seed + offset
               for offset, image_id in enumerate(smiles_of)}
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    def step(image_id: str) -> str:
        graph = smiles.parse(smiles_of[image_id])
        entities.write_entity_set(out_root, editcorrect.plant_errors(
            graph, args.edits, seed_of[image_id], image_id))
        return smiles_of[image_id]

    rendered, failures = _each_image(list(smiles_of), step)
    if args.truth_out:
        entities.write_manifest(args.truth_out, {image_id: text for image_id, text
                                                 in rendered.items() if text is not None})
    return failures


if __name__ == "__main__":
    sys.exit(main())
