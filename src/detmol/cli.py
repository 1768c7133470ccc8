"""Command line front end.

Exit codes: 0 success, 1 when --strict is set and any per-image step failed,
2 for bad usage or configuration, invalid input data, or a file that cannot
be read or written.  `main` is the one place where a command's error becomes
exit 2.  `_each_image` is the one place where an error fails one image:
an ImageError, or a ValueError such as an unreadable label file.
`--config FILE` is an ordinary flag, so argparse accepts its abbreviations;
its `key value` lines become every subcommand's defaults.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

# Each handler imports the detmol names it uses when it runs: the package
# executes a submodule on its first use, so a command runs only the modules
# it needs.

log = logging.getLogger("detmol.cli")

_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _config_bool(value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise ValueError(
            f"expected 1/0/true/false/yes/no, got {value!r}"
        ) from None


_CONFIG_TYPES = {
    "strict": _config_bool,
    "jobs": int,
    "k_max": int,
    "radius": int,
    "nbits": int,
    "edits": int,
    "seed": int,
}


class FatalCliError(RuntimeError):
    """An error whose message the command line writes itself."""


def main(argv=None) -> int:
    _setup_logging()
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # subcommands parse into a fresh namespace, so their own defaults
            # would win; pushing config values into every subparser rewrites
            # the matching action defaults while explicit flags still override
            defaults = _read_config(args.config)
            for sub in subparsers:
                sub.set_defaults(**defaults)
            args = parser.parse_args(argv)
        failures = args.handler(args)
    except (FatalCliError, OSError, ValueError) as exc:
        # the package's input errors (SmilesError, LabelFileError, ...) are
        # ValueErrors; an OSError is a file other than a label file that
        # cannot be read, or an output that cannot be written
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


def _read_config(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise FatalCliError(f"{path}: line {lineno}: expected `key value`")
        key, value = parts[0], parts[1].strip()
        caster = _CONFIG_TYPES.get(key)
        if caster is None:
            raise FatalCliError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            out[key] = caster(value)
        except ValueError as exc:
            raise FatalCliError(f"{path}: line {lineno}: {exc}") from exc
    return out


def _build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="file of `key value` defaults")
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
    children: list[argparse.ArgumentParser] = []

    p = sub.add_parser("construct", parents=[common],
                       help="detections -> SMILES manifest")
    p.add_argument("--detections", required=True,
                   help="root directory of per-image label folders")
    p.add_argument("--images", help="file listing image ids to process")
    p.add_argument("--out", default="-", help="output TSV ('-' for stdout)")
    children.append(p)
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
    children.append(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("edit-correct", parents=[common],
                       help="repair constructions against reference SMILES")
    p.add_argument("--detections", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--out-labels", help="write projected label folders here")
    p.add_argument("--summary", default="-",
                   help="TSV of image_id, cost, accepted ('-' for stdout)")
    children.append(p)
    p.set_defaults(handler=_cmd_edit_correct)

    p = sub.add_parser("cascade", parents=[common],
                       help="run a recognizer cascade over images")
    p.add_argument("--experts", required=True,
                   help="config file: `name kind source` per line")
    p.add_argument("--references", help="TSV whose image ids are processed")
    p.add_argument("--images", help="file listing image ids to process")
    p.add_argument("--out", default="-", help="output TSV ('-' for stdout)")
    children.append(p)
    p.set_defaults(handler=_cmd_cascade)

    p = sub.add_parser("fingerprint", parents=[common],
                       help="hashed circular fingerprints")
    p.add_argument("smiles", nargs="*", help="SMILES strings")
    p.add_argument("--manifest", help="TSV of image_id, smiles")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--nbits", type=int, default=2048)
    p.add_argument("--pair", action="store_true",
                   help="print the Tanimoto similarity of exactly two SMILES")
    children.append(p)
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
    children.append(p)
    p.set_defaults(handler=_cmd_perturb)
    return parser, children


def _write_rows(out: str, rows: dict, failed: str = "") -> None:
    from .entities import write_manifest
    rows = {image_id: failed if value is None else value
            for image_id, value in rows.items()}
    if out == "-":
        for image_id, value in rows.items():
            sys.stdout.write(f"{image_id}\t{value}\n")
    else:
        write_manifest(out, rows)


def _detection_ids(args) -> list[str]:
    from .entities import read_manifest
    root = Path(args.detections)
    if not root.is_dir():
        raise FatalCliError(f"not a directory: {root}")
    if args.images:
        return list(read_manifest(args.images))
    return sorted(p.name for p in root.iterdir() if p.is_dir())


def _each_image(image_ids, step, jobs: int = 1) -> tuple[dict, int]:
    """Run `step(image_id)` over the images in order; returns each image's
    value and the number of images that failed.  An ImageError or a
    ValueError fails its image only: it is logged, counted, and the image's
    value is None.  Any other error ends the run."""
    from .entities import ImageError

    def one(image_id: str):
        try:
            return step(image_id), None
        except (ImageError, ValueError) as exc:
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
    from .constructor import construct
    from .entities import read_entity_set
    from .smiles import write
    root = Path(args.detections)

    def step(image_id: str) -> str:
        dropped = []
        try:
            entities = read_entity_set(root, image_id)
            return write(construct(entities, dropped))
        finally:
            for warning in dropped:
                log.warning("%s", warning.format())

    rows, failures = _each_image(_detection_ids(args), step)
    _write_rows(args.out, rows)
    return failures


def _cmd_evaluate(args) -> int:
    from .entities import read_entity_set, read_manifest
    from .fingerprint import FpParams
    from .metrics import evaluate_dataset
    predictions = read_manifest(args.predictions)
    references = read_manifest(args.references)
    if bool(args.pred_detections) != bool(args.ref_detections):
        raise FatalCliError(
            "--pred-detections and --ref-detections must be given together"
        )
    pred_entities = ref_entities = None
    if args.pred_detections:
        pred_entities = {
            image_id: read_entity_set(args.pred_detections, image_id)
            for image_id in references
        }
        ref_entities = {
            image_id: read_entity_set(args.ref_detections, image_id)
            for image_id in references
        }
    report = evaluate_dataset(
        predictions, references, FpParams(args.radius, args.nbits),
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
    from .constructor import construct
    from .editcorrect import edit_correct, project_pseudo_labels
    from .entities import read_entity_set, read_manifest, write_entity_set
    from .smiles import SmilesError, parse
    references = read_manifest(args.references)
    root = Path(args.detections)
    if not root.is_dir():
        raise FatalCliError(f"not a directory: {root}")
    if args.k_max < 0:
        raise FatalCliError("--k-max must be >= 0")
    # a bad reference ends the run before any pseudo-label is written
    ref_graphs = {}
    for image_id in sorted(references):
        try:
            ref_graphs[image_id] = parse(references[image_id])
        except SmilesError as exc:
            raise FatalCliError(f"{image_id}: bad reference: {exc}") from exc
    out_root = Path(args.out_labels) if args.out_labels else None
    if out_root is not None:
        out_root.mkdir(parents=True, exist_ok=True)

    def step(image_id: str) -> str:
        entities = read_entity_set(root, image_id)
        correction = edit_correct(
            construct(entities), ref_graphs[image_id], args.k_max)
        if correction is None:
            return "\tno"
        if out_root is not None:
            write_entity_set(out_root, project_pseudo_labels(
                entities, correction.script, correction.graph))
        return f"{correction.script.cost}\tyes"

    rows, failures = _each_image(list(ref_graphs), step)
    _write_rows(args.summary, rows, failed="\tno")
    return failures


def _cmd_cascade(args) -> int:
    from .entities import read_manifest
    from .experts import cascade, load_cascade_config
    experts = load_cascade_config(args.experts)
    if args.references:
        image_ids = sorted(read_manifest(args.references))
    elif args.images:
        image_ids = list(read_manifest(args.images))
    else:
        raise FatalCliError("one of --references or --images is required")

    def step(image_id: str) -> str:
        result = cascade(experts, image_id)
        log.info("%s: %s via %s (valid=%s)",
                 image_id, result.smiles, result.expert, result.valid)
        return result.smiles

    rows, failures = _each_image(image_ids, step, args.jobs)
    _write_rows(args.out, rows)
    return failures


def _cmd_fingerprint(args) -> int:
    from .entities import read_manifest
    from .fingerprint import FpParams, ecfp, tanimoto
    from .smiles import parse
    fp_params = FpParams(args.radius, args.nbits)
    if args.manifest:
        if args.smiles or args.pair:
            raise FatalCliError("--manifest excludes positional SMILES and --pair")
        smiles_of = read_manifest(args.manifest)
        rows, failures = _each_image(
            list(smiles_of),
            lambda image_id: ecfp(parse(smiles_of[image_id]), fp_params).to_hex())
        _write_rows("-", rows)
        return failures
    if not args.smiles:
        raise FatalCliError("give SMILES arguments or --manifest")
    prints = [ecfp(parse(s), fp_params) for s in args.smiles]
    if args.pair:
        if len(prints) != 2:
            raise FatalCliError("--pair needs exactly two SMILES")
        print(f"{tanimoto(prints[0], prints[1]):.6f}")
    else:
        for fp in prints:
            print(fp.to_hex())
    return 0


def _cmd_perturb(args) -> int:
    from .editcorrect import plant_errors
    from .entities import read_manifest, write_entity_set, write_manifest
    from .smiles import parse
    if bool(args.smiles) == bool(args.manifest):
        raise FatalCliError("give exactly one of --smiles or --manifest")
    if args.edits < 0:
        raise FatalCliError("--edits must be >= 0")
    smiles_of = (read_manifest(args.manifest) if args.manifest
                 else {args.image_id: args.smiles})
    seed_of = {image_id: args.seed + offset
               for offset, image_id in enumerate(smiles_of)}
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    def step(image_id: str) -> str:
        graph = parse(smiles_of[image_id])
        entities = plant_errors(graph, args.edits, seed_of[image_id], image_id)
        write_entity_set(out_root, entities)
        return smiles_of[image_id]

    rendered, failures = _each_image(list(smiles_of), step)
    if args.truth_out:
        write_manifest(args.truth_out, {image_id: smiles for image_id, smiles
                                        in rendered.items() if smiles is not None})
    return failures


if __name__ == "__main__":
    sys.exit(main())
