"""Molecular graph reconstruction from per-entity detection boxes.

Importing the package runs none of its submodules.  Each one is put in
`sys.modules` at once as a `_DeferredModule`, whose body runs on the first
read of one of its attributes, so a command pays only for the modules it
uses.  `_EXPORTS` maps each submodule to the public names it defines;
`detmol.<name>` is read through it, and `__all__` is derived from it.
`detmol.cli` is left out: `python -m` warns when the module it runs is
already in `sys.modules`.
"""

import importlib.util
import sys
import threading
import types

_EXPORTS = {
    "constructor": (
        "DroppedBond", "assign_charges", "assign_stereo", "bond_endpoints",
        "construct", "filter_atoms", "filter_cands",
    ),
    "editcorrect": (
        "Correction", "EditOp", "EditScript", "LayoutError", "ProjectionError",
        "apply_op", "apply_script", "edit_correct", "plant_errors",
        "project_pseudo_labels",
    ),
    "entities": (
        "ATOM_CLASSES", "BOND_CLASSES", "CHARGE_CLASSES", "STEREO_CLASSES",
        "BBox", "DetBox", "EntityChannel", "EntitySet", "LabelFileError",
        "empty_channel", "iou", "parse_label_file", "read_entity_set",
        "read_manifest", "write_entity_set", "write_label_file",
        "write_manifest",
    ),
    "experts": (
        "CascadeConfigError", "CascadePrediction", "ExpertAdapter",
        "ExpertFailure", "NoPredictionError", "cascade", "is_chemically_valid",
        "load_cascade_config",
    ),
    "fingerprint": ("Fingerprint", "FpParams", "ecfp", "tanimoto"),
    "metrics": (
        "DEFAULT_IOU_THRESHOLDS", "MetricsError", "MetricsReport",
        "average_precision", "evaluate_dataset", "mean_average_precision",
        "score_pair", "type_counts",
    ),
    "molgraph": (
        "DEFAULT_VALENCES", "Atom", "Bond", "ChemProblem", "MolGraph",
        "RepairError", "allowed_valences", "detect_problems",
        "implicit_hydrogens", "isomorphic", "repair",
    ),
    "smiles": ("SmilesError", "canonical_ranks", "parse", "write"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


_LOADING = threading.RLock()  # held while a submodule's body runs
_running: set = set()  # the submodules whose body is running


class _DeferredModule(types.ModuleType):
    """A submodule whose body runs on the first read of one of its attributes.

    Other threads wait until the body has run, and the thread running it
    reads the module as it stands.  `importlib.util.LazyLoader` in Python
    3.10 to 3.12.1 makes the module plain before it runs the body, so
    another thread can read it half built.
    """

    def __getattribute__(self, attr):
        with _LOADING:
            if type(self) is _DeferredModule and self not in _running:
                _running.add(self)
                try:
                    spec = types.ModuleType.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _running.discard(self)
        return types.ModuleType.__getattribute__(self, attr)


def _defer(module: str) -> types.ModuleType:
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    deferred = importlib.util.module_from_spec(spec)
    deferred.__class__ = _DeferredModule
    sys.modules[spec.name] = deferred
    return deferred


for _module in _EXPORTS:
    globals()[_module] = _defer(_module)
del _module


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
