"""Seeded benchmark of the detmol pipeline: perturb -> construct ->
edit-correct -> evaluate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; needs only the standard library
(plus pytest if installed, which tests/conftest.py imports).  Every stage is
a `detmol` command line.  With `--trace 0` each command runs in its own
process with `--jobs 2` and the run reports the end-to-end metrics, its
timings scaled by a probe of the host's speed timed between commands; with
`--trace 1` the same commands run in this process through
`detmol.cli.main` with `--jobs 1`, under the tracer, and the run reports the
per-layer metrics.  Either way the run repeats whole rounds of seeded
images for about `--seconds`, checks every round's outputs, prints a
summary, and ends with one JSON line.  It exits 1 if a check fails and 2 on
bad usage or a checkout without the package.  Outputs go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, plain, require, same_graph  # noqa: E402

JOBS = 2
STAGES = ("render", "construct", "correct", "evaluate")
STAGE_OF = {"perturb": "render", "construct": "construct",
            "edit-correct": "correct", "evaluate": "evaluate"}
SETUP_FIRST = 4  # setup_s samples before the first round; four more a round
PROBE_REF_MS = 5.0  # the probe time the end-to-end figures are scaled to
_ERROR_LINE = re.compile(r"^ERROR detmol\.cli: (.+?): ", re.M)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "detmol" / "cli.py").is_file() or not (
            root / "tests" / "conftest.py").is_file():
        print("error: run from the root of a detmol checkout "
              "(src/detmol and tests/conftest.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        result = Bench(root, out, args).run()
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, root: Path, out: Path, args):
        self.root, self.out, self.args = root, out, args
        self.conftest = workloads.load_conftest(root)
        self.workload = workloads.Workload(args.workload)
        # the checks call the library unwrapped, even in the traced run
        from detmol import construct, parse, read_entity_set, write
        self.parse, self.construct, self.write = parse, construct, write
        self.read_entity_set = read_entity_set
        self.setup: list[float] = []

    def run(self) -> dict:
        checks.check_oracle_fixtures(self.root / "tests")
        tracer = None
        if self.args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        commands = Commands(self.root, tracer)
        if tracer is None:
            self._setup_time(commands)  # fills the bytecode caches
            for _ in range(SETUP_FIRST):
                self._setup_time(commands)

        totals = {s: [0, 0, 0.0] for s in STAGES}  # attempted, failed, seconds
        timings: dict[str, list] = {s: [] for s in STAGES}  # seconds a command
        start = time.perf_counter()
        number = 0
        # whole rounds, as many as end nearest to --seconds
        limit = self.args.seconds
        while number == 0 or (time.perf_counter() - start) * (1 + 0.5 / number) < limit:
            rnd = self.workload.round(self.args.seed, number)
            if tracer is not None:
                tracer.round = number
                tracer.corrections = []
            rdir = self.out / f"round{number}"
            for stage, (attempted, failed, seconds) in self._round(commands, rnd, rdir).items():
                totals[stage][0] += attempted
                totals[stage][1] += failed
                totals[stage][2] += sum(seconds)
                timings[stage] += seconds
            self._check(rdir, rnd, tracer)
            number += 1
        elapsed = time.perf_counter() - start
        # deleting thousands of label files loads the disk for a while, so
        # no round's files go before the last round is measured
        for k in range(number):
            shutil.rmtree(self.out / f"round{k}")

        lines = [f"workload {self.args.workload} seed {self.args.seed} "
                 f"trace {self.args.trace}: {number} rounds in {elapsed:.1f} s, "
                 f"{len(rnd.images)} images a round"]
        probes = commands.probes
        probe = statistics.median(probes)
        scale = probe / PROBE_REF_MS
        lines.append(f"  probe {len(probes)} samples: {probe:.3f} ms median, "
                     f"{min(probes):.3f} to {max(probes):.3f}; figures below are as "
                     f"measured, the JSON's rates are multiplied and setup_s divided "
                     f"by median / {PROBE_REF_MS} ms")
        rates = {}
        for stage in STAGES:
            attempted, failed, seconds = totals[stage]
            rates[stage] = attempted / seconds
            lines.append(f"  {stage:9s} attempted {attempted:6d} failed {failed:5d}"
                         f"  {rates[stage]:9.2f} images/s  {seconds / number:7.3f} s a round")
        lines.append("  seconds a command: " + "; ".join(
            f"{stage} " + " ".join(f"{t:.3f}" for t in timings[stage]) for stage in STAGES))

        if tracer is None:
            lines.append(f"  setup {len(self.setup)} samples: " + " ".join(
                f"{t:.3f}" for t in self.setup))
            metrics = {
                "setup_s": (statistics.median(self.setup) / scale, "s"),
                "render_per_s": (rates["render"] * scale, "1/s"),
                "construct_per_s": (rates["construct"] * scale, "1/s"),
                "correct_per_s": (rates["correct"] * scale, "1/s"),
                "evaluate_per_s": (rates["evaluate"] * scale, "1/s"),
                "peak_rss_mb": (commands.peak_rss_kb / 1024.0, "MB"),
            }
        else:
            layer, tails = tracing.per_layer(tracer.spans)
            tracer.write(self.out / "spans.jsonl")
            lines.append("  tail percentiles: " + ", ".join(
                f"{name} p{p}" for name, p in tails.items()))
            for stage, shares in tracing.stage_shares(tracer.spans).items():
                inside = (1 - shares.get("(stage)", 0.0)) * totals[stage][2] / number
                lines.append(f"  {stage}: {inside:.3f} s a round in traced calls; shares: "
                             + ", ".join(f"{name} {share:.1%}"
                                         for name, share in shares.items() if share >= 0.005))
            if self.args.workload == "druglike-edits":
                lines.append("  edit_correct ms by molecule (median): " + ", ".join(
                    f"{name} {ms:.1f}" for name, ms in self._by_molecule(tracer.spans)))
            metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        for line in lines:
            print(line)
        return {"correct": True,
                "attempted": sum(t[0] for t in totals.values()),
                "failed": sum(t[1] for t in totals.values()),
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}

    def _setup_time(self, commands) -> None:
        """Adds the wall time of a command line that loads the package and
        handles no image to the setup_s samples (untraced runs only)."""
        if commands.tracer is not None:
            return
        empty = self.out / "empty"
        empty.mkdir(exist_ok=True)
        seconds, _, _ = commands.call(["construct", "--detections", str(empty),
                                       "--out", str(self.out / "empty.tsv")],
                                      self.out / "setup", keep_rss=False)
        require(not (self.out / "empty.tsv").read_text().strip(), "setup run wrote rows")
        self.setup.append(seconds)

    def _by_molecule(self, spans) -> list[tuple[str, float]]:
        times: dict[str, list[float]] = {}
        for record in spans:
            if record["name"] == "editcorrect.edit_correct" and record["image"]:
                molecule = record["image"].rsplit("-e", 1)[0]
                times.setdefault(molecule, []).append(record["end"] - record["start"])
        return sorted(((m, statistics.median(t) * 1000.0) for m, t in times.items()),
                      key=lambda kv: kv[1])

    def _round(self, commands, rnd, rdir: Path) -> dict:
        """One pass of the pipeline over a round's images; returns
        [attempted, failed, [seconds of each command]] per stage.  Render
        counts each image twice, once clean and once with its planted edits.
        After render come as many steps as there are edit counts; a step
        runs construct and evaluate on every image, a setup_s sample, and
        edit-correct on the images of one edit count.  Every stage is thus
        timed several times a round, spread over the round, so that each
        stage meets the host's slow and fast phases in about the same
        share; every repeat of construct and evaluate must write the same
        output."""
        rdir.mkdir()
        images = rnd.images
        _write_tsv(rdir / "all.tsv", {im.image_id: im.smiles for im in images})
        for d in rnd.seeds:
            _write_tsv(rdir / f"e{d}.tsv",
                       {im.image_id: im.smiles for im in images if im.edits == d})
        render_fails = {im.image_id for im in images if im.fails == "render"}
        correct_fails = {im.image_id for im in images if im.fails == "correct"}

        # render: clean truth boxes for every image, then the predictions
        seconds, failed = commands.render(rdir / "all.tsv", 0, 0, rdir / "truth",
                                          rdir / "truth_ok.tsv")
        timings = [seconds]
        require(failed == render_fails, f"truth renders failed: {sorted(failed ^ render_fails)}")
        pred_failed: set = set()
        for d, seed in rnd.seeds.items():
            seconds, failed = commands.render(rdir / f"e{d}.tsv", d, seed,
                                              rdir / "pred", rdir / f"e{d}_ok.tsv")
            timings.append(seconds)
            pred_failed |= failed
        require(pred_failed == render_fails,
                f"renders failed: {sorted(pred_failed ^ render_fails)}")
        stats = {"render": [2 * len(images), 2 * len(render_fails), timings],
                 "construct": [0, 0, []], "correct": [0, 0, []], "evaluate": [0, 0, []]}
        self._setup_time(commands)

        refs = {}
        for d in rnd.seeds:
            refs.update(_read_tsv(rdir / f"e{d}_ok.tsv"))
        _write_tsv(rdir / "refs.tsv", refs)
        require(set(refs) == {im.image_id for im in images} - render_fails,
                "truth manifest is incomplete")

        reports, summary, failed_correct = [], [], set()
        for repeat, d in enumerate(rnd.seeds):
            preds = rdir / f"preds{repeat}.tsv"
            seconds, failed = commands.construct(rdir / "pred", preds)
            require(not failed, f"construct failed on {sorted(failed)}")
            require(preds.read_bytes() == (rdir / "preds0.tsv").read_bytes(),
                    "a repeated construct wrote other SMILES")
            stats["construct"][0] += len(refs)
            stats["construct"][2].append(seconds)

            seconds, report = commands.evaluate(preds, rdir / "refs.tsv",
                                                rdir / "pred", rdir / "truth")
            require(not reports or report == reports[0], "a repeated evaluate scored otherwise")
            reports.append(report)
            stats["evaluate"][0] += len(refs)
            stats["evaluate"][2].append(seconds)
            self._setup_time(commands)

            refs_d = {im.image_id: refs[im.image_id] for im in images
                      if im.edits == d and im.image_id in refs}
            _write_tsv(rdir / f"refs-e{d}.tsv", refs_d)
            seconds, failed = commands.correct(rdir / "pred", rdir / f"refs-e{d}.tsv",
                                               rdir / "pseudo", rdir / f"summary-e{d}.tsv")
            summary.append((rdir / f"summary-e{d}.tsv").read_text(encoding="utf-8"))
            failed_correct |= failed
            stats["correct"][0] += len(refs_d)
            stats["correct"][1] += len(failed)
            stats["correct"][2].append(seconds)
        require(failed_correct == correct_fails,
                f"edit-correct failed: {sorted(failed_correct ^ correct_fails)}")
        (rdir / "summary.tsv").write_text("".join(summary), encoding="utf-8")
        (rdir / "report.json").write_text(json.dumps(reports[0]))
        return stats

    def _check(self, rdir, rnd, tracer) -> None:
        parse, construct = self.parse, self.construct
        images = {im.image_id: im for im in rnd.images}
        refs = _read_tsv(rdir / "refs.tsv")
        report = json.loads((rdir / "report.json").read_text())
        preds = _read_tsv(rdir / "preds0.tsv")
        summary = {row[0]: row[1:] for row in _read_rows(rdir / "summary.tsv")}
        require(set(preds) == set(refs) == set(summary), "stage outputs cover other images")
        truth = {i: plain(parse(s)) for i, s in refs.items()}

        exact = 0
        for image_id, smiles in preds.items():
            same = same_graph(plain(parse(smiles)), truth[image_id])
            exact += same
            if images[image_id].edits == 0:
                require(same, f"{image_id}: clean image constructs to {smiles!r}, "
                              f"not {refs[image_id]!r}")

        for image_id, (cost, accepted) in summary.items():
            d = images[image_id].edits
            folder = rdir / "pseudo" / image_id
            if d <= workloads.K_MAX:
                require(accepted == "yes" and int(cost) <= d,
                        f"{image_id}: {d} planted edits, summary {cost!r} {accepted!r}")
            if accepted == "yes":
                labels = self.read_entity_set(rdir / "pseudo", image_id)
                require(same_graph(plain(construct(labels)), truth[image_id]),
                        f"{image_id}: pseudo-labels do not re-construct the reference")
            else:
                require(not folder.exists(), f"{image_id}: rejected but labelled")
        if tracer is not None:
            # the edit scripts of the traced edit_correct calls
            for pred, ref, correction in tracer.corrections:
                ops = correction.script.ops
                require(len(ops) == correction.script.cost, "script length is not its cost")
                require(same_graph(checks.apply_ops(plain(pred), ops), plain(ref)),
                        "an edit script does not reach its reference")

        n = len(refs)
        require(report["n_images"] == n, "evaluate scored another image count")
        require(abs(report["exact"] * n - exact) < 1e-6,
                f"evaluate exact {report['exact']} against {exact}/{n} isomorphic")
        require(report["exact"] <= report["tanimoto_at_1"] <= report["mean_tanimoto"],
                "exact <= tanimoto@1 <= mean tanimoto does not hold")
        ids = sorted(refs)
        oracle = checks.oracle_map(
            {i: checks.read_boxes(rdir / "pred" / i) for i in ids},
            {i: checks.read_boxes(rdir / "truth" / i) for i in ids})
        require(abs(report["map"] - oracle) <= 1e-9,
                f"evaluate mAP {report['map']} against oracle {oracle}")

        if rdir.name == "round0":
            rng = random.Random(self.args.seed)
            for smiles in sorted(set(refs.values())):
                graph = parse(smiles)
                permuted, _ = self.conftest.permute_graph(rng, graph)
                require(self.write(permuted) == self.write(graph),
                        f"write of {smiles!r} changes under atom permutation")


class Commands:
    """The pipeline's `detmol` command lines.  Untraced, each runs in its
    own process with `--jobs 2`; traced, each runs in this process through
    `detmol.cli.main` with `--jobs 1`, one stage span under the tracer."""

    def __init__(self, root: Path, tracer):
        self.root = root
        self.tracer = tracer
        self.peak_rss_kb = 0
        self.probes: list[float] = []  # probe ms, one after each command
        self.probe_graph = _probe_graph()
        if tracer is None:
            self.env = dict(os.environ)
            paths = [str(root / "src"), self.env.get("PYTHONPATH", "")]
            self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        else:
            from detmol import cli
            self.main = cli.main
            # the failed image ids the command logs; with a handler in
            # place the command adds no stderr handler of its own
            self.errors = _FailedImages()
            logging.getLogger("detmol").addHandler(self.errors)

    def call(self, argv: list[str], log: Path, keep_rss: bool = True) -> tuple[float, set, str]:
        """Run one command; returns its wall time, the image ids it logged
        as failed and its standard output."""
        if self.tracer is not None:
            self.errors.ids = set()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), self.tracer.stage(STAGE_OF[argv[0]]):
                began = time.perf_counter()
                code = self.main([*argv, "--jobs", "1"])
                seconds = time.perf_counter() - began
            if code != 0:
                raise CheckFailed(f"detmol {argv[0]} returned {code}")
            self.probes.append(_probe_ms(self.probe_graph))
            return seconds, set(self.errors.ids), stdout.getvalue()
        with open(f"{log}.out", "wb") as stdout, open(f"{log}.err", "wb") as stderr:
            began = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "detmol.cli", *argv,
                                     "--jobs", str(JOBS)],
                                    cwd=self.root, env=self.env, stdout=stdout, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        errors = Path(f"{log}.err").read_text()
        if proc.returncode != 0:
            raise CheckFailed(f"detmol {argv[0]} exited {proc.returncode}: {errors[-2000:]}")
        if keep_rss:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        # the command's process has ended, so nothing it does slows the probe
        self.probes.append(_probe_ms(self.probe_graph))
        return seconds, set(_ERROR_LINE.findall(errors)), Path(f"{log}.out").read_text()

    def render(self, manifest, edits, seed, out, truth_out):
        seconds, failed, _ = self.call(
            ["perturb", "--manifest", str(manifest), "--edits", str(edits),
             "--seed", str(seed), "--out", str(out), "--truth-out", str(truth_out)],
            out.parent / f"render-e{edits}-{out.name}")
        return seconds, failed

    def construct(self, detections, out):
        seconds, failed, _ = self.call(
            ["construct", "--detections", str(detections), "--out", str(out)],
            out.parent / "construct")
        return seconds, failed

    def correct(self, detections, refs, labels, summary):
        seconds, failed, _ = self.call(
            ["edit-correct", "--detections", str(detections), "--references", str(refs),
             "--k-max", str(workloads.K_MAX), "--out-labels", str(labels),
             "--summary", str(summary)],
            summary.parent / f"correct-{summary.stem}")
        return seconds, failed

    def evaluate(self, preds, refs, pred_root, ref_root):
        seconds, _, stdout = self.call(
            ["evaluate", "--predictions", str(preds), "--references", str(refs),
             "--pred-detections", str(pred_root), "--ref-detections", str(ref_root),
             "--json"], preds.parent / "evaluate")
        return seconds, json.loads(stdout)


class _FailedImages(logging.Handler):
    """Collects the image ids of the command line's per-image error lines."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.ids: set = set()

    def emit(self, record) -> None:
        if record.name == "detmol.cli" and record.args:
            self.ids.add(str(record.args[0]))


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def _probe_graph() -> tuple[list, list]:
    """The probe's input: a fixed 400-atom random tree with 40 ring bonds."""
    rng = random.Random(0)
    n = 400
    edges = {}
    for i in range(1, n):
        edges[(rng.randrange(i), i)] = rng.choice(("single", "double"))
    for _ in range(40):
        u, v = sorted(rng.sample(range(n), 2))
        edges[(u, v)] = "single"
    labels = [rng.choice("CCCCNOS") for _ in range(n)]
    return labels, checks._neighbours(n, edges)


def _probe_ms(graph) -> float:
    """Time of a fixed piece of pure-Python graph work, the checks' own
    colour refinement, which slows and speeds with the host as the
    program's graph code does."""
    began = time.perf_counter()
    checks._refine(*graph)
    return (time.perf_counter() - began) * 1000.0


def _write_tsv(path: Path, rows: dict) -> None:
    path.write_text("".join(f"{k}\t{v}\n" for k, v in rows.items()), encoding="utf-8")


def _read_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def _read_tsv(path: Path) -> dict:
    return {row[0]: row[1] if len(row) > 1 else "" for row in _read_rows(path)}


if __name__ == "__main__":
    sys.exit(main())
