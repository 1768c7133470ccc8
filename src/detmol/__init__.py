"""Molecular graph reconstruction from per-entity detection boxes."""

from .constructor import (
    ConstructorParams, DroppedBond, assign_charges, assign_stereo,
    bond_endpoints, construct, filter_atoms, filter_cands,
)
from .editcorrect import (
    Correction, EditOp, EditScript, LayoutError, ProjectionError, apply_op,
    apply_script, edit_correct, plant_errors, project_pseudo_labels,
)
from .entities import (
    ATOM_CLASSES, BOND_CLASSES, CHARGE_CLASSES, STEREO_CLASSES, BBox, DetBox,
    EntityChannel, EntitySet, LabelFileError, empty_channel, iou,
    parse_label_file, read_entity_set, write_entity_set, write_label_file,
)
from .experts import (
    CascadeConfigError, CascadePrediction, ExpertAdapter, ExpertFailure,
    NoPredictionError, cascade, is_chemically_valid, load_cascade_config,
    read_manifest, write_manifest,
)
from .fingerprint import Fingerprint, FpParams, ecfp, tanimoto
from .metrics import (
    DEFAULT_IOU_THRESHOLDS, MetricsError, MetricsReport, average_precision,
    evaluate_dataset, mean_average_precision, score_pair, type_counts,
)
from .molgraph import (
    DEFAULT_VALENCES, Atom, Bond, ChemProblem, MolGraph, RepairError,
    allowed_valences, detect_problems, implicit_hydrogens, isomorphic, repair,
)
from .smiles import SmilesError, canonical_ranks, parse, write

__version__ = "0.1.0"

__all__ = [
    "ATOM_CLASSES", "BOND_CLASSES", "CHARGE_CLASSES", "STEREO_CLASSES",
    "Atom", "BBox", "Bond", "CascadeConfigError", "CascadePrediction",
    "ChemProblem", "ConstructorParams", "Correction", "DEFAULT_IOU_THRESHOLDS",
    "DEFAULT_VALENCES", "DetBox", "DroppedBond", "EditOp", "EditScript",
    "EntityChannel", "EntitySet", "ExpertAdapter", "ExpertFailure",
    "Fingerprint", "FpParams", "LabelFileError", "LayoutError", "MetricsError",
    "MetricsReport", "MolGraph", "NoPredictionError", "ProjectionError",
    "RepairError", "SmilesError", "allowed_valences", "apply_op",
    "apply_script", "assign_charges", "assign_stereo", "average_precision",
    "bond_endpoints", "canonical_ranks", "cascade", "construct",
    "detect_problems", "ecfp", "edit_correct", "empty_channel",
    "evaluate_dataset", "filter_atoms", "filter_cands",
    "implicit_hydrogens", "iou", "is_chemically_valid",
    "isomorphic", "load_cascade_config",
    "mean_average_precision", "parse", "parse_label_file", "plant_errors",
    "project_pseudo_labels", "read_entity_set", "read_manifest", "repair",
    "score_pair", "tanimoto", "type_counts", "write", "write_entity_set",
    "write_label_file", "write_manifest",
]
