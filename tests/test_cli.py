import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import detmol
from detmol import ecfp, isomorphic, parse, read_manifest
from detmol.cli import main


def run(*argv):
    return main(list(argv))


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as err:
            run()
        assert err.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run("transmogrify")
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            run("construct")
        assert err.value.code == 2

    def test_fingerprint_without_input(self):
        assert run("fingerprint") == 2

    def test_fingerprint_pair_needs_two(self):
        assert run("fingerprint", "--pair", "CCO") == 2

    def test_fingerprint_manifest_excludes_positional(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("img1\tCCO\n")
        assert run("fingerprint", "--manifest", str(manifest), "CCO") == 2

    def test_evaluate_detection_flags_must_pair(self, tmp_path):
        preds = tmp_path / "p.tsv"
        refs = tmp_path / "r.tsv"
        preds.write_text("img1\tCCO\n")
        refs.write_text("img1\tCCO\n")
        assert run("evaluate", "--predictions", str(preds),
                   "--references", str(refs),
                   "--pred-detections", str(tmp_path)) == 2

    def test_perturb_needs_exactly_one_source(self, tmp_path):
        assert run("perturb", "--out", str(tmp_path / "o")) == 2
        manifest = tmp_path / "m.tsv"
        manifest.write_text("img1\tCCO\n")
        assert run("perturb", "--smiles", "CCO", "--manifest", str(manifest),
                   "--out", str(tmp_path / "o")) == 2

    def test_unparseable_reference_is_fatal(self, tmp_path):
        preds = tmp_path / "p.tsv"
        refs = tmp_path / "r.tsv"
        preds.write_text("img1\tCCO\n")
        refs.write_text("img1\tC1CC\n")
        assert run("evaluate", "--predictions", str(preds),
                   "--references", str(refs)) == 2


class TestFingerprint:
    def test_pair_identity(self, capsys):
        assert run("fingerprint", "--pair", "CCO", "OCC") == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_hex_lines(self, capsys):
        assert run("fingerprint", "CCO", "CCN") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ecfp(parse("CCO")).to_hex()
        assert lines[1] == ecfp(parse("CCN")).to_hex()

    def test_bad_smiles_fatal(self):
        assert run("fingerprint", "C1CC") == 2

    def test_manifest_mode_reports_failures(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("img1\tCCO\nimg2\tC1CC\n")
        assert run("fingerprint", "--manifest", str(manifest)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"img1\t{ecfp(parse('CCO')).to_hex()}"
        assert lines[1] == "img2\t"

    def test_manifest_failures_with_strict(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("img2\tC1CC\n")
        assert run("fingerprint", "--strict", "--manifest", str(manifest)) == 1


class TestPipeline:
    def test_clean_round_trip(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        truth = tmp_path / "truth.tsv"
        preds = tmp_path / "preds.tsv"
        assert run("perturb", "--smiles", "c1ccccc1CC(=O)O",
                   "--image-id", "imgA", "--edits", "0",
                   "--out", str(labels), "--truth-out", str(truth)) == 0
        assert (labels / "imgA" / "atoms.csv").is_file()
        assert run("construct", "--detections", str(labels),
                   "--out", str(preds)) == 0
        produced = read_manifest(preds)
        assert isomorphic(parse(produced["imgA"]), parse("c1ccccc1CC(=O)O"))

        capsys.readouterr()
        assert run("evaluate", "--predictions", str(preds),
                   "--references", str(truth), "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] == 1.0

    def test_corrupted_then_corrected(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        projected = tmp_path / "projected"
        truth = tmp_path / "truth.tsv"
        summary = tmp_path / "summary.tsv"
        fixed = tmp_path / "fixed.tsv"
        assert run("perturb", "--smiles", "c1ccccc1CC(=O)O",
                   "--image-id", "imgA", "--edits", "2", "--seed", "3",
                   "--out", str(labels), "--truth-out", str(truth)) == 0
        assert run("edit-correct", "--detections", str(labels),
                   "--references", str(truth), "--k-max", "3",
                   "--out-labels", str(projected),
                   "--summary", str(summary)) == 0
        rows = dict(
            line.split("\t", 1)
            for line in summary.read_text().splitlines()
        )
        cost, accepted = rows["imgA"].split("\t")
        assert accepted == "yes"
        assert 1 <= int(cost) <= 2

        capsys.readouterr()
        assert run("construct", "--detections", str(projected),
                   "--out", str(fixed)) == 0
        assert run("evaluate", "--predictions", str(fixed),
                   "--references", str(truth), "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] == 1.0

    def test_accepted_image_is_constructed_twice(self, tmp_path, monkeypatch):
        # once to correct it and once to check its pseudo-labels
        from detmol import constructor, editcorrect
        labels = tmp_path / "labels"
        truth = tmp_path / "truth.tsv"
        summary = tmp_path / "summary.tsv"
        assert run("perturb", "--smiles", "c1ccccc1CC(=O)O",
                   "--image-id", "imgA", "--edits", "2", "--seed", "3",
                   "--out", str(labels), "--truth-out", str(truth)) == 0
        calls = []

        def counted(*args, _construct=constructor.construct, **kwargs):
            calls.append(1)
            return _construct(*args, **kwargs)

        monkeypatch.setattr(constructor, "construct", counted)
        monkeypatch.setattr(editcorrect, "construct", counted)
        assert run("edit-correct", "--detections", str(labels),
                   "--references", str(truth), "--k-max", "3",
                   "--out-labels", str(tmp_path / "projected"),
                   "--summary", str(summary)) == 0
        _, cost, accepted = summary.read_text().strip().split("\t")
        assert accepted == "yes" and int(cost) > 0
        assert len(calls) == 2

    def test_rejection_is_not_a_failure(self, tmp_path):
        # one planted edit always changes the graph, so k-max 0 must reject;
        # a rejection is an honest outcome, not a per-image failure
        labels = tmp_path / "labels"
        truth = tmp_path / "truth.tsv"
        summary = tmp_path / "summary.tsv"
        assert run("perturb", "--smiles", "CCO", "--image-id", "imgA",
                   "--edits", "1", "--seed", "1",
                   "--out", str(labels), "--truth-out", str(truth)) == 0
        assert run("edit-correct", "--strict", "--detections", str(labels),
                   "--references", str(truth), "--k-max", "0",
                   "--summary", str(summary)) == 0
        assert summary.read_text().splitlines() == ["imgA\t\tno"]

    def test_construct_stdout_and_image_list(self, tmp_path, capsys):
        labels = tmp_path / "labels"
        manifest = tmp_path / "in.tsv"
        manifest.write_text("imgA\tCCO\nimgB\tCCN\n")
        assert run("perturb", "--manifest", str(manifest), "--edits", "0",
                   "--out", str(labels)) == 0
        wanted = tmp_path / "ids.txt"
        wanted.write_text("imgB\n")
        capsys.readouterr()
        assert run("construct", "--detections", str(labels),
                   "--images", str(wanted)) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        image_id, smiles = out[0].split("\t")
        assert image_id == "imgB"
        assert isomorphic(parse(smiles), parse("CCN"))

    def test_jobs_preserve_order(self, tmp_path):
        # construct accepts --jobs and ignores it: it runs one image at a time
        labels = tmp_path / "labels"
        manifest = tmp_path / "in.tsv"
        manifest.write_text("imgA\tCCO\nimgB\tCCN\nimgC\tc1ccccc1\nimgD\tCC\n")
        assert run("perturb", "--manifest", str(manifest), "--edits", "0",
                   "--out", str(labels)) == 0
        serial = tmp_path / "serial.tsv"
        threaded = tmp_path / "threaded.tsv"
        assert run("construct", "--detections", str(labels),
                   "--out", str(serial)) == 0
        assert run("construct", "--detections", str(labels),
                   "--jobs", "3", "--out", str(threaded)) == 0
        assert serial.read_text() == threaded.read_text()

    def test_per_type_csv_written(self, tmp_path):
        preds = tmp_path / "p.tsv"
        refs = tmp_path / "r.tsv"
        table = tmp_path / "types.csv"
        preds.write_text("img1\tCCO\n")
        refs.write_text("img1\tCCO\n")
        assert run("evaluate", "--predictions", str(preds),
                   "--references", str(refs),
                   "--per-type-csv", str(table)) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "type,accuracy,n_images"
        assert "atom:C,1.000000,1" in lines


class TestCascadeCommand:
    def test_table_then_command_fallback(self, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("img1\tCCO\n")
        cfg = tmp_path / "experts.conf"
        cfg.write_text(
            f"primary table {table}\n"
            "backup command /bin/sh -c 'echo CCN' {image_id}\n"
        )
        ids = tmp_path / "ids.tsv"
        ids.write_text("img1\tCCO\nimg2\tCCN\nimg3\tCCN\nimg4\tCCN\n")
        out = tmp_path / "out.tsv"
        assert run("cascade", "--experts", str(cfg),
                   "--images", str(ids), "--out", str(out)) == 0
        assert read_manifest(out) == {
            "img1": "CCO", "img2": "CCN", "img3": "CCN", "img4": "CCN",
        }
        # cascade is the one command that runs images on a thread pool
        threaded = tmp_path / "threaded.tsv"
        assert run("cascade", "--experts", str(cfg), "--jobs", "3",
                   "--images", str(ids), "--out", str(threaded)) == 0
        assert threaded.read_text() == out.read_text()

    def test_all_experts_fail_strict(self, tmp_path):
        cfg = tmp_path / "experts.conf"
        cfg.write_text("only table /nonexistent.tsv\n")
        ids = tmp_path / "ids.txt"
        ids.write_text("img1\n")
        out = tmp_path / "out.tsv"
        assert run("cascade", "--strict", "--experts", str(cfg),
                   "--images", str(ids), "--out", str(out)) == 1
        assert read_manifest(out) == {"img1": ""}

    def test_all_experts_fail_on_threads(self, tmp_path, caplog):
        # the thread pool fails an image as one thread does: an empty row
        # and one ERROR line naming the image
        table = tmp_path / "table.tsv"
        table.write_text("img1\tCCO\n")
        cfg = tmp_path / "experts.conf"
        cfg.write_text(f"only table {table}\n")
        ids = tmp_path / "ids.txt"
        ids.write_text("img1\nimg2\nimg3\n")
        errors = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}.tsv"
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="detmol.cli"):
                assert run("cascade", "--strict", "--jobs", jobs,
                           "--experts", str(cfg), "--images", str(ids),
                           "--out", str(out)) == 1
            assert out.read_text() == "img1\tCCO\nimg2\t\nimg3\t\n"
            errors[jobs] = [rec.getMessage() for rec in caplog.records
                            if rec.levelno == logging.ERROR
                            and rec.name == "detmol.cli"]
        assert errors["2"] == errors["1"] == [
            "img2: every expert failed",
            "img3: every expert failed"]

    def test_needs_images(self, tmp_path):
        cfg = tmp_path / "experts.conf"
        cfg.write_text("only command /bin/echo\n")
        with pytest.raises(SystemExit) as err:
            run("cascade", "--experts", str(cfg))
        assert err.value.code == 2

    def test_bad_config_fatal(self, tmp_path):
        cfg = tmp_path / "experts.conf"
        cfg.write_text("broken\n")
        assert run("cascade", "--experts", str(cfg), "--images", "x") == 2


@pytest.fixture
def rendered(tmp_path):
    """tmp_path holding `labels/imgA` rendered from CCO with one planted
    edit, its `truth.tsv`, and a `bad` labels root whose `imgA/atoms.csv`
    has no header."""
    assert run("perturb", "--smiles", "CCO", "--image-id", "imgA",
               "--edits", "1", "--seed", "1", "--out", str(tmp_path / "labels"),
               "--truth-out", str(tmp_path / "truth.tsv")) == 0
    (tmp_path / "bad" / "imgA").mkdir(parents=True)
    (tmp_path / "bad" / "imgA" / "atoms.csv").write_text("99,0,0,1,1\n")
    (tmp_path / "experts.conf").write_text("x psychic crystal.ball\n")
    (tmp_path / "ids.txt").write_text("imgA\n")
    return tmp_path


class TestErrorBoundary:
    """A bad value or a file that cannot be read or written ends a command
    with exit 2 and an `error:` line on stderr, never a traceback."""

    def check(self, root, argv, capsys):
        capsys.readouterr()
        assert run(*(arg.format(d=root) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["construct", "--detections", "{d}/labels",
         "--out", "{d}/missing/x.tsv"],
        ["evaluate", "--predictions", "{d}/truth.tsv",
         "--references", "{d}/truth.tsv", "--per-type-csv", "{d}/missing/a.csv"],
        ["edit-correct", "--detections", "{d}/labels",
         "--references", "{d}/truth.tsv", "--out-labels", "{d}/truth.tsv",
         "--summary", "{d}/summary.tsv"],
        ["perturb", "--smiles", "CCO", "--out", "{d}/more",
         "--truth-out", "{d}/missing/truth.tsv"],
    ], ids=["construct-out", "evaluate-per-type-csv", "edit-correct-out-labels",
            "perturb-truth-out"])
    def test_unwritable_output(self, rendered, capsys, argv):
        self.check(rendered, argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["fingerprint", "--nbits", "3", "CCO"],
        ["construct", "--detections", "{d}/labels",
         "--images", "{d}/missing.txt"],
        ["evaluate", "--predictions", "{d}/missing.tsv",
         "--references", "{d}/truth.tsv"],
        ["evaluate", "--predictions", "{d}/truth.tsv",
         "--references", "{d}/truth.tsv", "--pred-detections", "{d}/bad",
         "--ref-detections", "{d}/labels"],
        ["evaluate", "--predictions", "{d}/truth.tsv",
         "--references", "{d}/truth.tsv", "--pred-detections", "{d}/labels",
         "--ref-detections", "{d}/no_such_root"],
        ["cascade", "--experts", "{d}/experts.conf", "--images", "{d}/ids.txt"],
    ], ids=["nbits", "images-list", "predictions-manifest",
            "pred-detections", "ref-detections", "expert-kind"])
    def test_bad_input(self, rendered, capsys, argv):
        self.check(rendered, argv, capsys)

    @pytest.mark.parametrize("argv, message", [
        (["construct", "--detections", "{d}/truth.tsv"], "not a directory"),
        (["edit-correct", "--detections", "{d}/labels",
          "--references", "{d}/truth.tsv", "--k-max", "-1"], "--k-max must be >= 0"),
        (["perturb", "--smiles", "CC", "--edits", "-1", "--out", "{d}/more"],
         "--edits must be >= 0"),
        (["cascade", "--experts", "{d}/experts.conf", "--images", "{d}/ids.txt",
          "--jobs", "0"], "--jobs must be >= 1"),
        (["cascade", "--experts", "{d}/experts.conf", "--images", "{d}/ids.txt",
          "--jobs", "-3"], "--jobs must be >= 1"),
    ], ids=["detections-file", "k-max", "edits", "jobs-0", "jobs-negative"])
    def test_bad_value(self, rendered, capsys, argv, message):
        capsys.readouterr()
        assert run(*(arg.format(d=rendered) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not (rendered / "more").exists()

    @pytest.mark.parametrize("ids, message", [
        ("imgA\nimgB\nimgB\n", "line 3: duplicate image id 'imgB'"),
        ("imgA\n\tx\n", "line 2: empty image id"),
    ], ids=["duplicate", "empty"])
    @pytest.mark.parametrize("command", [
        ["construct", "--detections", "{d}/labels"],
        ["cascade", "--experts", "{d}/experts.conf"],
    ], ids=["construct", "cascade"])
    def test_images_list_is_a_manifest(self, rendered, capsys, command, ids, message):
        # an id listed twice would run its image twice and count it twice
        (rendered / "experts.conf").write_text(
            f"boxes detections {rendered / 'labels'}\n")
        (rendered / "ids.txt").write_text(ids)
        capsys.readouterr()
        assert run(*(arg.format(d=rendered) for arg in command),
                   "--images", str(rendered / "ids.txt")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {rendered / 'ids.txt'}: {message}")

    def test_bad_reference_names_its_image(self, rendered, capsys):
        (rendered / "ring.tsv").write_text("img1\tC1CC\n")
        capsys.readouterr()
        assert run("edit-correct", "--detections", str(rendered / "labels"),
                   "--references", str(rendered / "ring.tsv")) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "error: img1: bad reference: offset 4: ring bond 1 never closed")

    def test_bad_reference_ends_the_run_before_any_write(self, rendered, capsys):
        # references are parsed before the first image, so imgA, whose
        # reference is good, gets no pseudo-labels either
        (rendered / "refs.tsv").write_text("imgA\tCCO\nimgZ\tC1CC\n")
        capsys.readouterr()
        assert run("edit-correct", "--detections", str(rendered / "labels"),
                   "--references", str(rendered / "refs.tsv"),
                   "--out-labels", str(rendered / "fixed")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: imgZ: bad reference: offset 4: ring bond 1 never closed")
        assert not (rendered / "fixed" / "imgA").exists()

    def test_edit_correct_detections_file(self, rendered, capsys):
        capsys.readouterr()
        assert run("edit-correct", "--detections", str(rendered / "truth.tsv"),
                   "--references", str(rendered / "truth.tsv")) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "error: not a directory")

    def test_evaluate_boxes_against_themselves(self, rendered, capsys):
        truth, labels = str(rendered / "truth.tsv"), str(rendered / "labels")
        capsys.readouterr()
        assert run("evaluate", "--predictions", truth, "--references", truth,
                   "--pred-detections", labels, "--ref-detections", labels,
                   "--json") == 0
        assert json.loads(capsys.readouterr().out)["map"] == 1.0


class TestPerImageFailure:
    """An image whose id or label files cannot be used is logged and counted;
    the other images are still written and the run exits 0 (1 under
    --strict)."""

    @pytest.mark.parametrize("error", [
        detmol.LayoutError, detmol.NoPredictionError, detmol.ProjectionError,
        detmol.RepairError,
    ])
    def test_per_image_errors_are_image_errors(self, error):
        from detmol.entities import ImageError
        assert issubclass(error, ImageError)
        assert issubclass(error, RuntimeError)

    @pytest.mark.parametrize("strict", [False, True])
    def test_id_cannot_leave_the_output_root(self, tmp_path, caplog, strict):
        (tmp_path / "m.tsv").write_text("imgA\tCCO\n../escaped\tCCO\n")
        argv = ["perturb", "--manifest", str(tmp_path / "m.tsv"),
                "--out", str(tmp_path / "out"),
                "--truth-out", str(tmp_path / "truth.tsv")]
        with caplog.at_level(logging.ERROR, logger="detmol.cli"):
            assert run(*argv, *(["--strict"] if strict else [])) == int(strict)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv", "out", "truth.tsv"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["imgA"]
        assert read_manifest(tmp_path / "truth.tsv") == {"imgA": "CCO"}
        assert any("../escaped" in rec.getMessage() for rec in caplog.records)

    def test_id_cannot_leave_the_detections_root(self, rendered, caplog):
        (rendered / "ids.txt").write_text("imgA\n../labels/imgA\n")
        with caplog.at_level(logging.ERROR, logger="detmol.cli"):
            assert run("construct", "--detections", str(rendered / "labels"),
                       "--images", str(rendered / "ids.txt"),
                       "--out", str(rendered / "out.tsv")) == 0
        rows = read_manifest(rendered / "out.tsv")
        assert rows["imgA"] and rows["../labels/imgA"] == ""
        assert any("../labels/imgA" in rec.getMessage() for rec in caplog.records)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("command", ["construct", "edit-correct"])
    def test_unreadable_label_file(self, rendered, caplog, command, strict):
        (rendered / "labels" / "imgB" / "atoms.csv").mkdir(parents=True)
        (rendered / "truth.tsv").write_text("imgA\tCCO\nimgB\tCCO\n")
        argv = [command, "--detections", str(rendered / "labels")]
        if command == "construct":
            argv += ["--out", str(rendered / "out.tsv")]
        else:
            argv += ["--references", str(rendered / "truth.tsv"),
                     "--out-labels", str(rendered / "fixed"),
                     "--summary", str(rendered / "out.tsv")]
        with caplog.at_level(logging.ERROR, logger="detmol.cli"):
            assert run(*argv, *(["--strict"] if strict else [])) == int(strict)
        rows = read_manifest(rendered / "out.tsv")
        if command == "construct":
            assert rows == {"imgA": "C1CO1", "imgB": ""}
        else:
            # read_manifest strips the empty cost field of imgB's row
            assert rows == {"imgA": "1\tyes", "imgB": "no"}
            assert [p.name for p in (rendered / "fixed").iterdir()] == ["imgA"]
        [message] = [rec.getMessage() for rec in caplog.records
                     if rec.levelno == logging.ERROR and rec.name == "detmol.cli"]
        assert message.startswith("imgB: ")

    @pytest.mark.parametrize("command", ["construct", "edit-correct"])
    def test_listed_id_without_folder(self, rendered, caplog, command):
        # a listed id with no folder under --detections is a failed image,
        # not an image in which nothing was detected
        if command == "construct":
            (rendered / "ids.txt").write_text("imgA\nimgZ\n")
            argv = ["construct", "--images", str(rendered / "ids.txt"),
                    "--out", str(rendered / "out.tsv")]
        else:
            (rendered / "refs.tsv").write_text("imgA\tCCO\nimgZ\tCO\n")
            argv = ["edit-correct", "--references", str(rendered / "refs.tsv"),
                    "--out-labels", str(rendered / "fixed"),
                    "--summary", str(rendered / "out.tsv")]
        with caplog.at_level(logging.ERROR, logger="detmol.cli"):
            assert run(*argv, "--detections", str(rendered / "labels"),
                       "--strict") == 1
        rows = read_manifest(rendered / "out.tsv")
        if command == "construct":
            assert rows == {"imgA": "C1CO1", "imgZ": ""}
        else:
            assert rows == {"imgA": "1\tyes", "imgZ": "no"}
            assert [p.name for p in (rendered / "fixed").iterdir()] == ["imgA"]
        [message] = [rec.getMessage() for rec in caplog.records
                     if rec.levelno == logging.ERROR and rec.name == "detmol.cli"]
        assert message == f"imgZ: no detections at {rendered / 'labels' / 'imgZ'}"

    @pytest.mark.parametrize("strict", [False, True])
    def test_unreadable_label_file_in_cascade(self, rendered, caplog, strict):
        (rendered / "labels" / "imgB" / "atoms.csv").mkdir(parents=True)
        (rendered / "experts.conf").write_text(
            f"boxes detections {rendered / 'labels'}\n")
        (rendered / "ids.txt").write_text("imgA\nimgB\n")
        argv = ["cascade", "--experts", str(rendered / "experts.conf"),
                "--images", str(rendered / "ids.txt"),
                "--out", str(rendered / "out.tsv")]
        with caplog.at_level(logging.ERROR, logger="detmol.cli"):
            assert run(*argv, *(["--strict"] if strict else [])) == int(strict)
        assert read_manifest(rendered / "out.tsv") == {"imgA": "C1CO1", "imgB": ""}
        [message] = [rec.getMessage() for rec in caplog.records
                     if rec.levelno == logging.ERROR and rec.name == "detmol.cli"]
        assert message == "imgB: every expert failed"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter in a new process that imports this detmol."""
    src = str(Path(detmol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )


SUBMODULES = ["constructor", "editcorrect", "entities", "experts",
              "fingerprint", "metrics", "molgraph", "smiles"]

# prints the detmol submodules whose body has not run: a module still behind
# its lazy loader is not of type ModuleType, and reading any attribute of it
# would run it
_UNEXECUTED = (
    "import types\n"
    "print(' '.join(sorted(name for name, module in sys.modules.items()\n"
    "                      if name.startswith('detmol.')\n"
    "                      and type(module) is not types.ModuleType)))\n"
)


class TestStartup:
    def test_cli_import_skips_pool_and_process_modules(self):
        # only cascade uses these, and loading them costs every command;
        # modules the interpreter loaded before the import (a site hook, say)
        # are not held against detmol
        done = fresh_python("-c", (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import detmol.cli\n"
            "for name in ('concurrent.futures', 'subprocess', 'shlex'):\n"
            "    if name in sys.modules and name not in before:\n"
            "        print(name)\n"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    def test_import_registers_every_submodule_unexecuted(self):
        # the benchmark's tracer reads each submodule from sys.modules right
        # after `import detmol`
        done = fresh_python("-c", (
            "import sys\n"
            "import detmol\n" + _UNEXECUTED
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [f"detmol.{name}" for name in SUBMODULES]

    def test_name_resolves_to_its_module(self):
        done = fresh_python("-c", (
            "import sys\n"
            "import detmol\n"
            "assert detmol.construct is detmol.constructor.construct\n"
            "assert detmol.read_manifest is detmol.experts.read_manifest\n"
            "assert sys.modules['detmol.smiles'] is detmol.smiles\n"
        ))
        assert done.returncode == 0, done.stderr

    def test_threads_never_read_a_half_run_module(self):
        # many threads touch unexecuted submodules at once, by package name,
        # by submodule attribute and by import; a thread that reads a module
        # whose body another thread is still running misses its names
        done = fresh_python("-c", (
            "import sys, threading\n"
            "sys.setswitchinterval(1e-6)\n"
            "import detmol\n"
            "def first_use(i):\n"
            "    barrier.wait(10)\n"
            "    try:\n"
            "        if i % 3 == 0:\n"
            "            detmol.edit_correct, detmol.score_pair\n"
            "        elif i % 3 == 1:\n"
            "            detmol.editcorrect.apply_op, detmol.metrics.type_counts\n"
            "        else:\n"
            "            from detmol.metrics import evaluate_dataset\n"
            "            from detmol.editcorrect import plant_errors\n"
            "    except Exception as exc:\n"
            "        print(repr(exc))\n"
            "barrier = threading.Barrier(8)\n"
            "threads = [threading.Thread(target=first_use, args=(i,))\n"
            "           for i in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(30)\n"
            "print(sum(t.is_alive() for t in threads), 'alive')\n"
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["0 alive"]

    @pytest.mark.parametrize("argv, unexecuted", [
        ("['construct', '--detections', root]",
         ["detmol.editcorrect", "detmol.experts", "detmol.fingerprint",
          "detmol.metrics"]),
        ("['evaluate', '--predictions', manifest, '--references', manifest]",
         ["detmol.constructor", "detmol.editcorrect", "detmol.experts"]),
    ])
    def test_command_runs_only_its_modules(self, tmp_path, argv, unexecuted):
        manifest = tmp_path / "refs.tsv"
        manifest.write_text("img1\tCCO\n")
        # construct reads and builds one image
        assert run("perturb", "--smiles", "CCO", "--image-id", "img1",
                   "--out", str(tmp_path)) == 0
        done = fresh_python("-c", (
            "import sys\n"
            f"root, manifest = {str(tmp_path)!r}, {str(manifest)!r}\n"
            "from detmol.cli import main\n"
            f"assert main({argv}) == 0\n" + _UNEXECUTED
        ))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].split() == unexecuted


class TestPublicApi:
    NAMES = [
        "ATOM_CLASSES", "Atom", "BBox", "BOND_CLASSES", "Bond",
        "CHARGE_CLASSES", "CascadeConfigError", "CascadePrediction",
        "ChemProblem", "Correction",
        "DEFAULT_IOU_THRESHOLDS", "DEFAULT_VALENCES", "DetBox", "DroppedBond",
        "EditOp", "EditScript", "EntityChannel", "EntitySet", "ExpertAdapter",
        "ExpertFailure", "Fingerprint", "FpParams", "LabelFileError",
        "LayoutError", "MetricsError", "MetricsReport", "MolGraph",
        "NoPredictionError", "ProjectionError", "RepairError",
        "STEREO_CLASSES", "SmilesError", "allowed_valences", "apply_op",
        "apply_script", "assign_charges", "assign_stereo",
        "average_precision", "bond_endpoints", "canonical_ranks", "cascade",
        "construct", "detect_problems", "ecfp", "edit_correct",
        "empty_channel", "evaluate_dataset", "filter_atoms", "filter_cands",
        "implicit_hydrogens", "iou", "is_chemically_valid", "isomorphic",
        "load_cascade_config", "mean_average_precision", "parse",
        "parse_label_file", "plant_errors", "project_pseudo_labels",
        "read_entity_set", "read_manifest", "repair", "score_pair",
        "tanimoto", "type_counts", "write", "write_entity_set",
        "write_label_file", "write_manifest",
    ]

    def test_all_is_unchanged(self):
        assert len(self.NAMES) == 69
        assert sorted(detmol.__all__) == self.NAMES

    def test_every_name_resolves_and_is_listed(self):
        listed = dir(detmol)
        for name in self.NAMES:
            assert getattr(detmol, name) is not None
            assert name in listed

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from detmol import *", namespace)
        assert set(self.NAMES) <= set(namespace)
        assert namespace["construct"] is detmol.constructor.construct

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            detmol.no_such_name  # noqa: B018

    def test_module_run_gives_no_warning(self):
        # runpy warns when the module it runs is in sys.modules already
        done = fresh_python("-W", "error", "-m", "detmol.cli", "--help")
        assert done.returncode == 0, done.stderr
        assert "usage: detmol" in done.stdout


class TestLogging:
    def test_env_sets_level(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DETMOL_LOG", "INFO")
        assert run("fingerprint", "C") == 0
        assert logging.getLogger("detmol").level == logging.INFO

    def test_bad_level_falls_back(self, monkeypatch):
        monkeypatch.setenv("DETMOL_LOG", "LOUD")
        assert run("fingerprint", "C") == 0
        assert logging.getLogger("detmol").level == logging.WARNING

    def test_dropped_bond_logged(self, tmp_path, caplog):
        # the second bond box lies far from both atoms
        image = tmp_path / "labels" / "img1"
        image.mkdir(parents=True)
        (image / "atoms.csv").write_text(
            "label,xmin,ymin,xmax,ymax\n0,-10,-10,10,10\n0,50,-10,70,10\n")
        (image / "bonds.csv").write_text(
            "label,xmin,ymin,xmax,ymax\n1,-8,-8,68,8\n1,1000,1000,1010,1010\n")
        with caplog.at_level(logging.WARNING, logger="detmol.cli"):
            assert run("construct", "--detections", str(tmp_path / "labels"),
                       "--out", str(tmp_path / "out.tsv")) == 0
        assert [rec.getMessage() for rec in caplog.records
                if rec.name == "detmol.cli"] == [
            "WARN img1 dropped_bond 1 reason=no_endpoints"]
        assert read_manifest(tmp_path / "out.tsv") == {"img1": "CC"}

    def test_construct_failure_logged(self, tmp_path, caplog):
        labels = tmp_path / "labels"
        bad = labels / "imgA"
        bad.mkdir(parents=True)
        (bad / "atoms.csv").write_text("label,xmin,ymin,xmax,ymax\n99,0,0,1,1\n")
        with caplog.at_level(logging.ERROR, logger="detmol.cli"):
            assert run("construct", "--strict", "--detections", str(labels),
                       "--out", str(tmp_path / "o.tsv")) == 1
        assert any("imgA" in rec.getMessage() for rec in caplog.records)
