"""Bounding boxes, detection channels, the label CSV file format, and the
image_id<TAB>smiles manifest format."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

ATOM_CLASSES: dict[int, str] = {
    0: "C", 1: "H", 2: "N", 3: "O", 4: "S", 5: "F", 6: "Cl", 7: "Br",
    8: "I", 9: "Se", 10: "P", 11: "B", 12: "Si", 13: "*", 14: "Te",
    15: "Sn", 16: "As", 17: "Al", 18: "Ge", 19: "D", 20: "T",
}

BOND_CLASSES: dict[int, str] = {
    1: "single", 2: "double", 3: "triple", 4: "aromatic", 5: "wedged", 6: "dashed",
}

CHARGE_CLASSES: dict[int, int] = {
    0: 0, 1: 1, 2: -1, 3: 2, 4: -2, 5: 3, 6: 4, 7: 5, 8: 6,
}

STEREO_CLASSES: dict[int, str] = {0: "stereocenter"}

CHANNEL_KINDS = ("atom", "bond", "charge", "stereo")

_HEADER = "label,xmin,ymin,xmax,ymax"
_HEADER_SCORED = _HEADER + ",score"


class ImageError(RuntimeError):
    """One image's data cannot be processed: the command fails that image."""


class LabelFileError(ValueError):
    """Raised for a malformed or unreadable label file; messages name the
    line or the file."""


#: Each channel's class ids and their meaning.
VOCABS: dict[str, dict[int, object]] = {
    "atom": ATOM_CLASSES,
    "bond": BOND_CLASSES,
    "charge": CHARGE_CLASSES,
    "stereo": STEREO_CLASSES,
}


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates; degenerate boxes are rejected."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(f"degenerate box: {self!r}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)


@dataclass(frozen=True)
class DetBox:
    """One detection: a box, its class id, and a confidence score."""

    box: BBox
    class_id: int
    score: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score outside [0, 1]: {self.score}")


@dataclass(frozen=True)
class EntityChannel:
    """All detections of one kind for one image."""

    kind: str
    boxes: tuple[DetBox, ...]

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind: {self.kind!r}")
        object.__setattr__(self, "boxes", tuple(self.boxes))
        vocab = VOCABS[self.kind]
        for det in self.boxes:
            if det.class_id not in vocab:
                raise ValueError(
                    f"class id {det.class_id} not in {self.kind} vocabulary"
                )

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)


@dataclass(frozen=True)
class EntitySet:
    """The four detection channels of one image."""

    image_id: str
    atoms: EntityChannel
    bonds: EntityChannel
    charges: EntityChannel
    stereos: EntityChannel

    def __post_init__(self) -> None:
        for name in CHANNEL_KINDS:
            channel = getattr(self, name + "s")
            if channel.kind != name:
                raise ValueError(f"{name} slot holds a {channel.kind} channel")


def empty_channel(kind: str) -> EntityChannel:
    return EntityChannel(kind, ())


def intersection_area(a: BBox, b: BBox) -> float:
    w = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    h = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def intersects(a: BBox, b: BBox) -> bool:
    """True only for overlap of positive area; shared edges do not count."""
    return intersection_area(a, b) > 0.0


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes."""
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def expand(box: BBox, amount: float) -> BBox:
    """Grow every side outward by `amount`; coordinates may go negative."""
    if amount < 0:
        raise ValueError("expansion amount must be >= 0")
    return BBox(box.xmin - amount, box.ymin - amount, box.xmax + amount, box.ymax + amount)


def _format_coord(value: float) -> str:
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(value)


def parse_label_file(text: str, kind: str) -> EntityChannel:
    """Parse one channel CSV. Header is mandatory; errors name the line."""
    lines = text.splitlines()
    if not lines:
        raise LabelFileError("line 1: missing header")
    header = lines[0].strip()
    if header == _HEADER:
        scored = False
    elif header == _HEADER_SCORED:
        scored = True
    else:
        raise LabelFileError(f"line 1: bad header {header!r}")
    vocab = VOCABS[kind]
    boxes: list[DetBox] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        expected = 6 if scored else 5
        if len(parts) != expected:
            raise LabelFileError(
                f"line {lineno}: expected {expected} fields, got {len(parts)}"
            )
        try:
            class_id = int(parts[0])
            coords = [float(p) for p in parts[1:5]]
            score = float(parts[5]) if scored else 1.0
        except ValueError as exc:
            raise LabelFileError(f"line {lineno}: {exc}") from None
        if class_id not in vocab:
            raise LabelFileError(
                f"line {lineno}: class id {class_id} not in {kind} vocabulary"
            )
        try:
            box = BBox(*coords)
            boxes.append(DetBox(box, class_id, score))
        except ValueError as exc:
            raise LabelFileError(f"line {lineno}: {exc}") from None
    return EntityChannel(kind, tuple(boxes))


def write_label_file(channel: EntityChannel) -> str:
    """Serialize a channel; the score column appears only when informative."""
    scored = any(det.score != 1.0 for det in channel)
    out = [_HEADER_SCORED if scored else _HEADER]
    for det in channel:
        b = det.box
        row = [str(det.class_id)] + [
            _format_coord(v) for v in (b.xmin, b.ymin, b.xmax, b.ymax)
        ]
        if scored:
            row.append(repr(det.score))
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def channel_filename(kind: str) -> str:
    return kind + "s.csv"


def _image_dir(root: str | Path, image_id: str) -> Path:
    """`<root>/<image_id>`, for an id that names one folder inside root: a
    single path component, not `.` or `..`, not absolute."""
    if image_id == ".." or Path(image_id).parts != (image_id,):
        raise LabelFileError(f"image id {image_id!r} is not a folder name")
    return Path(root) / image_id


def read_entity_set(root: str | Path, image_id: str) -> EntitySet:
    """Load `<root>/<image_id>/{atoms,bonds,charges,stereos}.csv`.

    A missing channel file is an empty channel; the detector may simply
    have found nothing of that kind.  So is every channel of an image whose
    folder is missing or is not a directory.  An id that is not a single
    folder name, or a channel file that cannot be read, raises
    LabelFileError.
    """
    base = _image_dir(root, image_id)
    channels = {}
    for kind in CHANNEL_KINDS:
        try:
            with open(base / channel_filename(kind)) as handle:
                text = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            channels[kind] = empty_channel(kind)
        except OSError as exc:  # its message names the file
            raise LabelFileError(str(exc)) from exc
        else:
            channels[kind] = parse_label_file(text, kind)
    return EntitySet(image_id, channels["atom"], channels["bond"],
                     channels["charge"], channels["stereo"])


def write_entity_set(root: str | Path, entity_set: EntitySet) -> Path:
    """Write all four channel files; returns the per-image directory.  An id
    that is not a single folder name raises LabelFileError."""
    base = _image_dir(root, entity_set.image_id)
    base.mkdir(parents=True, exist_ok=True)
    for kind in CHANNEL_KINDS:
        channel = getattr(entity_set, kind + "s")
        (base / channel_filename(kind)).write_text(write_label_file(channel))
    return base


def read_manifest(path) -> dict[str, str]:
    """TSV of image_id<TAB>smiles; the smiles field may be empty."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 1)
        image_id = parts[0].strip()
        smiles = parts[1].strip() if len(parts) > 1 else ""
        if not image_id:
            raise ValueError(f"{path}: line {lineno}: empty image id")
        if image_id in out:
            raise ValueError(f"{path}: line {lineno}: duplicate image id {image_id!r}")
        out[image_id] = smiles
    return out


def write_manifest(path, rows: dict[str, str]) -> None:
    lines = [f"{image_id}\t{rows[image_id]}" for image_id in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
