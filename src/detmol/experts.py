"""Cascade of recognizers arbitrated by chemical validity."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .constructor import construct
from .entities import ImageError, read_detections, read_manifest
from .molgraph import RepairError, detect_problems
from .smiles import SmilesError, parse, write

log = logging.getLogger("detmol.experts")

EXPERT_KINDS = ("table", "command", "detections")
_COMMAND_TIMEOUT = 60.0


class ExpertFailure(RuntimeError):
    """One recognizer produced no usable output for an image."""


class NoPredictionError(ImageError):
    """Every recognizer in the cascade failed outright."""


class CascadeConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CascadePrediction:
    image_id: str
    smiles: str
    expert: str
    valid: bool


class ExpertAdapter:
    """A named SMILES source.

    kind "table": source is a prediction manifest, looked up per image.
    kind "detections": source is a directory of per-image label folders,
        run through graph construction.
    kind "command": source is a shell-style command template; {image_id}
        tokens are substituted (appended when absent) and stdout is taken
        as the prediction.
    """

    def __init__(self, name: str, kind: str, source: str):
        if kind not in EXPERT_KINDS:
            raise CascadeConfigError(f"unknown expert kind {kind!r}")
        self.name = name
        self.kind = kind
        self.source = source
        self._table: dict[str, str] | None = None

    def predict(self, image_id: str) -> str:
        if self.kind == "table":
            return self._from_table(image_id)
        if self.kind == "detections":
            return self._from_detections(image_id)
        return self._from_command(image_id)

    def _from_table(self, image_id: str) -> str:
        if self._table is None:
            try:
                self._table = read_manifest(self.source)
            except (OSError, ValueError) as exc:
                raise ExpertFailure(f"{self.name}: {exc}") from exc
        try:
            return self._table[image_id]
        except KeyError:
            raise ExpertFailure(f"{self.name}: no row for {image_id}") from None

    def _from_detections(self, image_id: str) -> str:
        try:
            entities = read_detections(self.source, image_id)
            graph = construct(entities)
        except (RepairError, ValueError) as exc:
            raise ExpertFailure(f"{self.name}: {exc}") from exc
        return write(graph)

    def _from_command(self, image_id: str) -> str:
        # imported here: only command experts need them, and every detmol
        # command would otherwise pay for loading them at start-up
        import shlex
        import subprocess

        tokens = shlex.split(self.source)
        if any("{image_id}" in tok for tok in tokens):
            tokens = [tok.replace("{image_id}", image_id) for tok in tokens]
        else:
            tokens.append(image_id)
        try:
            proc = subprocess.run(
                tokens, capture_output=True, text=True, timeout=_COMMAND_TIMEOUT
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise ExpertFailure(f"{self.name}: {exc}") from exc
        if proc.returncode != 0:
            raise ExpertFailure(
                f"{self.name}: exit {proc.returncode}: {proc.stderr.strip()}"
            )
        return proc.stdout.strip()


def load_cascade_config(path) -> list[ExpertAdapter]:
    """Lines of `name kind source`, '#' comments allowed, priority order."""
    experts: list[ExpertAdapter] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=2)
        if len(parts) != 3:
            raise CascadeConfigError(
                f"{path}: line {lineno}: expected `name kind source`"
            )
        experts.append(ExpertAdapter(*parts))
    if not experts:
        raise CascadeConfigError(f"{path}: no experts configured")
    return experts


def is_chemically_valid(smiles: str) -> bool:
    """Parseable and free of valence or lone-aromatic-bond problems."""
    try:
        graph = parse(smiles)
    except SmilesError:
        return False
    return not detect_problems(graph)


def cascade(experts, image_id: str, trace: list | None = None) -> CascadePrediction:
    """First chemically valid output wins; experts after it are not invoked.

    When no output is valid, the first expert that produced anything is
    reported with valid=False.  Experts that raise are skipped and logged;
    if all of them fail, NoPredictionError is raised.
    """
    fallback: CascadePrediction | None = None
    for expert in experts:
        try:
            smiles = expert.predict(image_id)
        except ExpertFailure as exc:
            log.warning("%s: %s", image_id, exc)
            if trace is not None:
                trace.append((expert.name, "error"))
            continue
        if is_chemically_valid(smiles):
            if trace is not None:
                trace.append((expert.name, "valid"))
            return CascadePrediction(image_id, smiles, expert.name, True)
        if trace is not None:
            trace.append((expert.name, "invalid"))
        if fallback is None:
            fallback = CascadePrediction(image_id, smiles, expert.name, False)
    if fallback is not None:
        return fallback
    raise NoPredictionError("every expert failed")
