import hashlib
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import detmol
from detmol import (
    Atom, Bond, EditOp, EditScript, LayoutError, MolGraph, ProjectionError,
    apply_op, apply_script, construct, detect_problems, edit_correct,
    isomorphic, parse, plant_errors, project_pseudo_labels,
)
from detmol.editcorrect import (
    _AXIAL_STEPS, _axial_adjacent, _axial_to_pixel, _layout_cells,
)
from detmol.molgraph import (
    _histogram_gap, _labels, _search_mapping, connected_order, match_order,
    neighbours,
)
from detmol.entities import (
    CHANNEL_KINDS, BBox, DetBox, EntityChannel, write_label_file,
)
from conftest import random_molecule

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (reference, planted edits, planting seed, repr of each op of the script
# edit_correct returns at k_max 3, or None for a rejection); each repr is
# split in two after its pair
GOLDEN_SCRIPTS = [
    ('FC(F)(F)c1ccccc1', 1, 1001, (
        "EditOp(kind='insert_bond', atom_index=None, pair=(1, 4), "
        "element=None, charge=0, order='single', attach_to=None)",
    )),
    ('CC(C)(C)O', 2, 1019, (
        "EditOp(kind='insert_bond', atom_index=None, pair=(0, 1), "
        "element=None, charge=0, order='single', attach_to=None)",
        "EditOp(kind='insert_bond', atom_index=None, pair=(1, 3), "
        "element=None, charge=0, order='single', attach_to=None)",
    )),
    ('CC(C)(C)O', 4, 1021, None),
    ('CC(C)(C)c1ccc(O)cc1', 3, 1037, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(5, 9), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='relabel_bond', atom_index=None, pair=(0, 1), "
        "element=None, charge=0, order='single', attach_to=None)",
        "EditOp(kind='insert_bond', atom_index=None, pair=(1, 3), "
        "element=None, charge=0, order='single', attach_to=None)",
    )),
    ('Oc1ccc(O)cc1', 1, 1052, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(2, 7), "
        'element=None, charge=0, order=None, attach_to=None)',
    )),
    ('Oc1ccc(O)cc1', 4, 1055, None),
    ('Nc1ccc(cc1)C(F)(F)F', 2, 1070, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(0, 6), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='relabel_atom', atom_index=9, pair=None, "
        "element='F', charge=0, order=None, attach_to=None)",
    )),
    ('ClC(Cl)(Cl)C(F)(F)F', 3, 1088, (
        "EditOp(kind='relabel_atom', atom_index=1, pair=None, "
        "element='C', charge=0, order=None, attach_to=None)",
        "EditOp(kind='relabel_atom', atom_index=2, pair=None, "
        "element='Cl', charge=0, order=None, attach_to=None)",
        "EditOp(kind='relabel_atom', atom_index=3, pair=None, "
        "element='Cl', charge=0, order=None, attach_to=None)",
    )),
    ('ClC(Cl)(Cl)C(F)(F)F', 4, 1089, None),
    ('FC(F)(F)C(=O)[O-].[NH4+]', 1, 1103, (
        "EditOp(kind='relabel_atom', atom_index=5, pair=None, "
        "element='O', charge=0, order=None, attach_to=None)",
    )),
    ('C[N+](C)(C)C.[Cl-]', 2, 1121, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(2, 3), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='insert_bond', atom_index=None, pair=(0, 1), "
        "element=None, charge=0, order='single', attach_to=None)",
    )),
    ('C[N+](C)(C)C.[Cl-]', 4, 1123, None),
    ('CC(C)(C)[NH3+].[Cl-]', 3, 1139, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(2, 4), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='insert_bond', atom_index=None, pair=(1, 2), "
        "element=None, charge=0, order='single', attach_to=None)",
        "EditOp(kind='insert_bond', atom_index=None, pair=(0, 1), "
        "element=None, charge=0, order='single', attach_to=None)",
    )),
    ('O.O.O.O.O.O', 1, 1154, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(1, 5), "
        'element=None, charge=0, order=None, attach_to=None)',
    )),
    ('O.O.O.O.O.O', 4, 1157, None),
    ('O.O.O.O.O.[Br-].[NH4+]', 2, 1172, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(0, 3), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='relabel_atom', atom_index=2, pair=None, "
        "element='O', charge=0, order=None, attach_to=None)",
    )),
    ('CC(=O)[O-].[NH4+]', 3, 1190, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(0, 4), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='relabel_bond', atom_index=None, pair=(1, 2), "
        "element=None, charge=0, order='double', attach_to=None)",
        "EditOp(kind='relabel_atom', atom_index=3, pair=None, "
        "element='O', charge=-1, order=None, attach_to=None)",
    )),
    ('CC(=O)[O-].[NH4+]', 4, 1191, None),
    ('OCC(C)(C)CO', 1, 1205, (
        "EditOp(kind='relabel_atom', atom_index=5, pair=None, "
        "element='C', charge=0, order=None, attach_to=None)",
    )),
    ('CC(=O)Oc1ccccc1C(=O)O', 2, 1223, (
        "EditOp(kind='relabel_bond', atom_index=None, pair=(10, 11), "
        "element=None, charge=0, order='double', attach_to=None)",
        "EditOp(kind='relabel_atom', atom_index=3, pair=None, "
        "element='O', charge=0, order=None, attach_to=None)",
    )),
    ('CC(=O)Oc1ccccc1C(=O)O', 4, 1225, None),
    ('CC(=O)Nc1ccc(O)cc1', 3, 1241, (
        "EditOp(kind='relabel_atom', atom_index=8, pair=None, "
        "element='O', charge=0, order=None, attach_to=None)",
        "EditOp(kind='relabel_atom', atom_index=10, pair=None, "
        "element='C', charge=0, order=None, attach_to=None)",
        "EditOp(kind='insert_bond', atom_index=None, pair=(1, 3), "
        "element=None, charge=0, order='single', attach_to=None)",
    )),
    ('OC(=O)c1ccccc1O', 1, 1256, (
        "EditOp(kind='insert_bond', atom_index=None, pair=(8, 9), "
        "element=None, charge=0, order='single', attach_to=None)",
    )),
    ('OC(=O)c1ccccc1O', 4, 1259, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(2, 4), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='relabel_atom', atom_index=7, pair=None, "
        "element='C', charge=0, order=None, attach_to=None)",
    )),
    ('CNCC(O)c1ccccc1', 2, 1274, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(3, 9), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='delete_bond', atom_index=None, pair=(6, 8), "
        'element=None, charge=0, order=None, attach_to=None)',
    )),
    ('NC(=O)c1cnccn1', 3, 1292, (
        "EditOp(kind='delete_bond', atom_index=None, pair=(0, 7), "
        'element=None, charge=0, order=None, attach_to=None)',
        "EditOp(kind='relabel_bond', atom_index=None, pair=(0, 1), "
        "element=None, charge=0, order='single', attach_to=None)",
        "EditOp(kind='relabel_bond', atom_index=None, pair=(1, 2), "
        "element=None, charge=0, order='double', attach_to=None)",
    )),
    ('NC(=O)c1cnccn1', 4, 1293, None),
    ('CC(C)Cc1ccc(cc1)C(C)C(=O)O', 1, 1307, (
        "EditOp(kind='relabel_atom', atom_index=6, pair=None, "
        "element='C', charge=0, order=None, attach_to=None)",
    )),
    ('COc1ccccc1OCC(O)CO', 2, 1325, (
        "EditOp(kind='relabel_bond', atom_index=None, pair=(10, 11), "
        "element=None, charge=0, order='single', attach_to=None)",
        "EditOp(kind='insert_bond', atom_index=None, pair=(12, 13), "
        "element=None, charge=0, order='single', attach_to=None)",
    )),
    ('COc1ccccc1OCC(O)CO', 4, 1327, None),
]


def chain(*elements, order="single"):
    atoms = tuple(Atom(e) for e in elements)
    bonds = tuple(Bond(i, i + 1, order) for i in range(len(elements) - 1))
    return MolGraph(atoms, bonds)


class TestEditOp:
    def test_pair_is_sorted(self):
        assert EditOp.delete_bond((5, 2)).pair == (2, 5)
        assert EditOp.insert_bond((3, 1), "single").pair == (1, 3)

    def test_script_cost(self):
        script = EditScript((EditOp.delete_bond((0, 1)),
                             EditOp.relabel_atom(0, "N")))
        assert script.cost == 2
        assert EditScript(()).cost == 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown edit kind 'bogus'"):
            EditOp("bogus")

    def test_negative_budget(self):
        g = parse("CCO")
        with pytest.raises(ValueError, match="k_max must be >= 0"):
            edit_correct(g, g, -1)


class TestApplyOp:
    def test_relabel_atom(self):
        g = chain("C", "C")
        h = apply_op(g, EditOp.relabel_atom(1, "O", -1))
        assert h.atoms[1].element == "O"
        assert h.atoms[1].formal_charge == -1
        assert g.atoms[1].element == "C"

    def test_relabel_bond(self):
        g = chain("C", "C")
        h = apply_op(g, EditOp.relabel_bond((0, 1), "triple"))
        assert h.bonds[0].order == "triple"

    def test_relabel_missing_bond_fails(self):
        with pytest.raises(ValueError):
            apply_op(chain("C", "C", "C"), EditOp.relabel_bond((0, 2), "double"))

    def test_delete_bond(self):
        g = chain("C", "C")
        h = apply_op(g, EditOp.delete_bond((0, 1)))
        assert len(h.bonds) == 0

    def test_delete_missing_bond_fails(self):
        with pytest.raises(ValueError):
            apply_op(chain("C", "C"), EditOp.delete_bond((0, 2)))

    def test_insert_bond(self):
        g = MolGraph((Atom("C"), Atom("C")), ())
        h = apply_op(g, EditOp.insert_bond((0, 1), "double"))
        assert h.bonds[0].pair == (0, 1)
        assert h.bonds[0].order == "double"

    def test_insert_duplicate_bond_fails(self):
        with pytest.raises(ValueError):
            apply_op(chain("C", "C"), EditOp.insert_bond((0, 1), "double"))

    def test_insert_bond_bad_index_fails(self):
        with pytest.raises(ValueError):
            apply_op(chain("C", "C"), EditOp.insert_bond((0, 5), "single"))

    def test_delete_atom_requires_isolation(self):
        with pytest.raises(ValueError):
            apply_op(chain("C", "C"), EditOp.delete_atom(0))

    def test_delete_atom_reindexes_bonds(self):
        g = MolGraph((Atom("C"), Atom("N"), Atom("O")), (Bond(0, 2, "single"),))
        h = apply_op(g, EditOp.delete_atom(1))
        assert [a.element for a in h.atoms] == ["C", "O"]
        assert h.bonds[0].pair == (0, 1)

    def test_insert_atom_with_attachment(self):
        g = chain("C", "C")
        h = apply_op(g, EditOp.insert_atom("O", attach_to=1, order="double"))
        assert h.atoms[2].element == "O"
        assert {b.pair: b.order for b in h.bonds}[(1, 2)] == "double"

    def test_insert_atom_isolated(self):
        h = apply_op(chain("C"), EditOp.insert_atom("N", charge=1))
        assert h.atoms[1].element == "N"
        assert h.atoms[1].formal_charge == 1
        assert len(h.bonds) == 0

    def test_apply_script_composes(self):
        g = chain("C", "C")
        h = apply_script(g, [
            EditOp.relabel_atom(1, "N"),
            EditOp.insert_atom("O", attach_to=1, order="single"),
        ])
        assert [a.element for a in h.atoms] == ["C", "N", "O"]
        assert len(h.bonds) == 2


class TestEditCorrect:
    def test_identical_graphs_cost_zero(self):
        g = parse("c1ccccc1CC(=O)O")
        found = edit_correct(g, g)
        assert found is not None
        assert found.script.cost == 0
        assert found.graph is g

    def test_isomorphic_but_permuted_cost_zero(self):
        found = edit_correct(parse("OCC"), parse("CCO"))
        assert found.script.cost == 0

    def test_single_relabel(self):
        found = edit_correct(parse("CCO"), parse("CCN"))
        assert found.script.cost == 1
        assert found.script.ops[0].kind == "relabel_atom"
        assert isomorphic(found.graph, parse("CCN"))

    def test_charge_relabel(self):
        found = edit_correct(parse("CC[O-]"), parse("CCO"))
        assert found.script.cost == 1
        assert isomorphic(found.graph, parse("CCO"))

    def test_bond_order_relabel(self):
        found = edit_correct(parse("CCC"), parse("CC=C"))
        assert found.script.cost == 1
        assert found.script.ops[0].kind == "relabel_bond"

    def test_bond_delete(self):
        found = edit_correct(parse("C1CC1"), parse("CCC"))
        assert found.script.cost == 1
        assert found.script.ops[0].kind == "delete_bond"

    def test_bond_insert(self):
        found = edit_correct(parse("CCC"), parse("C1CC1"))
        assert found.script.cost == 1
        assert found.script.ops[0].kind == "insert_bond"

    def test_atom_insert_with_bond_is_one_op(self):
        found = edit_correct(parse("CC"), parse("CCO"))
        assert found.script.cost == 1
        assert found.script.ops[0].kind == "insert_atom"
        assert found.script.ops[0].attach_to is not None

    def test_extra_atom_costs_delete(self):
        # pred has a stray isolated atom
        pred = MolGraph((Atom("C"), Atom("C"), Atom("O")), (Bond(0, 1, "single"),))
        found = edit_correct(pred, parse("CC"))
        assert found.script.cost == 1
        assert found.script.ops[0].kind == "delete_atom"

    def test_distance_two(self):
        found = edit_correct(parse("CCO"), parse("CC(N)O"))
        assert found.script.cost == 1  # one bundled atom+bond insertion
        found2 = edit_correct(parse("CCO"), parse("NCC(N)O"))
        assert found2.script.cost == 2
        assert isomorphic(found2.graph, parse("NCC(N)O"))

    def test_budget_exceeded_returns_none(self):
        # four separate fixes needed: two inserted bonds plus two new atoms
        pred = MolGraph(tuple(Atom("C") for _ in range(4)),
                        (Bond(0, 1, "single"),))
        ref = MolGraph(
            tuple(Atom("C") for _ in range(4)) + (Atom("O"), Atom("O")),
            tuple(Bond(i, i + 1, "single") for i in range(3)))
        assert edit_correct(pred, ref, k_max=3) is None
        found = edit_correct(pred, ref, k_max=4)
        assert found is not None
        assert found.script.cost == 4

    def test_k_max_zero_is_isomorphism_test(self):
        assert edit_correct(parse("CCO"), parse("OCC"), k_max=0).script.cost == 0
        assert edit_correct(parse("CCO"), parse("CCN"), k_max=0) is None

    def test_wedge_matches_single_reference(self):
        pred = MolGraph((Atom("C"), Atom("C")), (Bond(0, 1, "wedged"),))
        assert edit_correct(pred, parse("CC")).script.cost == 0

    def test_script_applies_to_pred(self):
        rng = random.Random(5)
        for _ in range(25):
            ref = random_molecule(rng)
            entities = plant_errors(ref, n_edits=2, seed=rng.randrange(10 ** 6))
            pred = construct(entities)
            found = edit_correct(pred, ref, k_max=3)
            assert found is not None
            assert found.script.cost <= 2
            assert isomorphic(apply_script(pred, found.script.ops), ref)
            assert isomorphic(found.graph, ref)

    def test_golden_scripts(self):
        for smiles, n_edits, seed, expected in GOLDEN_SCRIPTS:
            ref = parse(smiles)
            pred = construct(plant_errors(ref, n_edits, seed))
            found = edit_correct(pred, ref, k_max=3)
            got = None if found is None else tuple(repr(op) for op in found.script.ops)
            assert got == expected, (smiles, n_edits, seed)

    def test_script_does_not_depend_on_the_budget(self):
        rng = random.Random(41)
        for n_edits in (1, 2, 3) * 6:
            ref = random_molecule(rng)
            pred = construct(plant_errors(ref, n_edits, rng.randrange(10 ** 6)))
            found = edit_correct(pred, ref, k_max=4)
            cost = found.script.cost
            if cost > 0:
                assert edit_correct(pred, ref, k_max=cost - 1) is None
            for k_max in range(cost, 5):
                assert edit_correct(pred, ref, k_max).script == found.script

    def test_empty_prediction_inserts_every_atom(self):
        empty = MolGraph((), ())
        found = edit_correct(empty, parse("CC=O"), 3)
        assert found.script.ops == (
            EditOp.insert_atom("C"),
            EditOp.insert_atom("C", attach_to=0, order="single"),
            EditOp.insert_atom("O", attach_to=1, order="double"),
        )
        assert edit_correct(empty, parse("CC=O"), 2) is None

    def test_empty_prediction_of_empty_reference(self):
        empty = MolGraph((), ())
        assert edit_correct(empty, empty, 0).script.ops == ()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_self_distance_zero(self, seed):
        g = random_molecule(random.Random(seed))
        assert edit_correct(g, g, k_max=0).script.cost == 0


class TestPlantErrors:
    def test_zero_edits_reconstructs_exactly(self):
        truth = parse("c1ccccc1C(=O)NC")
        entities = plant_errors(truth, n_edits=0, seed=4, image_id="imgZ")
        assert entities.image_id == "imgZ"
        assert isomorphic(construct(entities), truth)

    def test_deterministic(self):
        truth = parse("CC(C)c1ccccc1O")
        a = plant_errors(truth, n_edits=2, seed=9)
        b = plant_errors(truth, n_edits=2, seed=9)
        assert a == b

    def test_seed_changes_output(self):
        truth = parse("CC(C)c1ccccc1O")
        outs = {plant_errors(truth, n_edits=1, seed=s) for s in range(6)}
        assert len(outs) > 1

    def test_corruption_stays_within_budget(self):
        rng = random.Random(17)
        for d in (1, 2, 3):
            for _ in range(8):
                truth = random_molecule(rng)
                entities = plant_errors(truth, d, seed=rng.randrange(10 ** 6))
                pred = construct(entities)
                found = edit_correct(pred, truth, k_max=d)
                assert found is not None, (d, truth)
                # several planted edits can cancel into a graph closer to
                # the truth than the edit count, so only the upper bound
                # is promised
                assert found.script.cost <= d

    def test_invalid_truth_rejected(self):
        bad = MolGraph((Atom("C"), Atom("C")), (Bond(0, 1, "aromatic"),))
        assert detect_problems(bad)
        with pytest.raises(ValueError):
            plant_errors(bad, n_edits=1, seed=0)

    def test_channel_layout(self):
        truth = parse("C[N+](C)(C)C")
        entities = plant_errors(truth, n_edits=0, seed=0)
        assert len(entities.atoms) == truth.n_atoms
        assert len(entities.bonds) == len(truth.bonds)
        assert len(entities.charges) == 1  # one charged atom


class TestProjection:
    def test_empty_script_returns_input(self):
        truth = parse("CCO")
        entities = plant_errors(truth, n_edits=0, seed=1)
        out = project_pseudo_labels(entities, EditScript(()), truth)
        assert out is entities

    def test_empty_script_mismatch_raises(self):
        truth = parse("CCO")
        entities = plant_errors(truth, n_edits=0, seed=1)
        with pytest.raises(ProjectionError):
            project_pseudo_labels(entities, EditScript(()), parse("CCN"))

    def test_malformed_input_raises(self):
        # the oxygen box and its bond box removed: the correction inserts it
        truth = parse("CCO")
        rendered = plant_errors(truth, n_edits=0, seed=1)
        entities = replace(
            rendered,
            atoms=EntityChannel("atom", rendered.atoms.boxes[:2]),
            bonds=EntityChannel("bond", rendered.bonds.boxes[:1]),
        )
        found = edit_correct(construct(entities), truth, k_max=1)
        insert = EditOp.insert_atom("O", attach_to=1, order="single")
        assert found.script.ops == (insert,)
        project_pseudo_labels(entities, found.script, found.graph)

        graph = found.graph
        bare_bond = replace(graph, bonds=(
            replace(graph.bonds[0], source_box=None), graph.bonds[1],
        ))
        bare_atom = replace(graph, atoms=(
            replace(graph.atoms[0], source_box=None), *graph.atoms[1:],
        ))
        cases = [
            (found.script, truth),  # no construction boxes at all
            (found.script, bare_atom),  # a kept atom without a box
            (found.script, bare_bond),  # a kept bond without a box
            (EditScript((insert, EditOp.insert_atom("C"))), graph),  # one too many
            (EditScript((EditOp.relabel_atom(0, "C"),)), graph),  # one too few
            (EditScript((replace(insert, attach_to=9),)), graph),
        ]
        for script, corrected in cases:
            with pytest.raises(ProjectionError):
                project_pseudo_labels(entities, script, corrected)

    def test_projection_round_trip(self):
        rng = random.Random(23)
        for _ in range(15):
            truth = random_molecule(rng)
            entities = plant_errors(truth, n_edits=2, seed=rng.randrange(10 ** 6))
            pred = construct(entities)
            found = edit_correct(pred, truth, k_max=3)
            projected = project_pseudo_labels(entities, found.script, found.graph)
            assert isomorphic(construct(projected), truth)

    def test_projection_preserves_image_id(self):
        truth = parse("CC=O")
        entities = plant_errors(truth, n_edits=1, seed=3, image_id="sample7")
        pred = construct(entities)
        found = edit_correct(pred, truth, k_max=2)
        projected = project_pseudo_labels(entities, found.script, found.graph)
        assert projected.image_id == "sample7"


def _wedged_truth(smiles):
    """The parsed SMILES with the first bond of each stereocentre drawn
    wedged, so that construct flags the stereocentre back."""
    g = parse(smiles)
    wedge = {
        next(k for k, b in enumerate(g.bonds) if i in b.pair)
        for i, atom in enumerate(g.atoms) if atom.is_stereocenter
    }
    return MolGraph(g.atoms, tuple(
        replace(b, order="wedged") if k in wedge else b
        for k, b in enumerate(g.bonds)
    ))


def _label_text(entities):
    return "".join(
        f"{kind}s.csv\n" + write_label_file(getattr(entities, kind + "s"))
        for kind in CHANNEL_KINDS
    )


def _golden_label_case(kind, smiles, arg, seed):
    """The op kinds of the correction (empty for "plant") and the label text.

    "plant" renders with `arg` planted edits; "project" also corrects and
    projects.  "drop" removes atom box `arg` and its bond boxes from a clean
    render, and "stray" adds a carbon box `arg` pixels right of the drawing,
    before correcting and projecting.
    """
    truth = _wedged_truth(smiles)
    if kind in ("plant", "project"):
        entities = plant_errors(truth, arg, seed)
    else:
        entities = plant_errors(truth, 0, seed)
        atoms, bonds = entities.atoms.boxes, entities.bonds.boxes
        if kind == "drop":
            atoms = atoms[:arg] + atoms[arg + 1:]
            bonds = tuple(
                b for b, t in zip(bonds, truth.bonds) if arg not in t.pair
            )
        else:
            right = max(det.box.xmax for det in atoms)
            atoms += (DetBox(BBox(right + arg, -10, right + arg + 20, 10), 0),)
        entities = replace(entities, atoms=EntityChannel("atom", atoms),
                           bonds=EntityChannel("bond", bonds))
    if kind == "plant":
        return "", _label_text(entities)
    found = edit_correct(construct(entities), truth, k_max=3)
    ops = " ".join(
        op.kind + ("+bond" if op.attach_to is not None else "")
        for op in found.script.ops
    )
    projected = project_pseudo_labels(entities, found.script, found.graph)
    return ops, _label_text(projected)


# (kind, SMILES, edits / atom / offset, seed, op kinds of the correction,
# first 16 hex digits of the sha256 of the four label files' text)
GOLDEN_LABELS = [
    ("plant", "C[N+](C)(C)C.[Cl-]", 0, 0, "", "2ed54d9d83752943"),
    ("plant", "FC(F)(F)C(=O)[O-].[NH4+]", 1, 3, "", "bff672a692923034"),
    ("plant", "C[C@H](N)C(=O)O", 2, 5, "", "b39f71ead119a897"),
    ("plant", "CC(C)(C)c1ccc(O)cc1", 3, 7, "", "629c3f6d26877f5c"),
    ("plant", "c1ccncc1", 1, 2, "", "671cc450d6bf640a"),
    ("plant", "OCC(O)CO", 2, 11, "", "61ef275ce4280b91"),
    ("project", "C[N+](C)(C)CC(=O)[O-]", 1, 4, "insert_bond", "efb58cc0154c747d"),
    ("project", "C[C@H](N)C(=O)O", 2, 6, "delete_bond insert_bond",
     "105104f4113bb730"),
    ("project", "N[C@@H](CS)C(=O)O", 1, 8, "relabel_atom", "731e3a6ade21384d"),
    ("project", "Nc1ccc(cc1)C(F)(F)F", 2, 1070, "delete_bond relabel_atom",
     "8f6a8686f0e02b2e"),
    ("project", "CC(C)(C)O", 2, 1019, "insert_bond insert_bond", "ac7f5dd2f1056aa7"),
    ("project", "Oc1ccc(O)cc1", 1, 1052, "delete_bond", "12de95f38b021237"),
    ("project", "CC(C)(C)c1ccc(O)cc1", 3, 1037,
     "delete_bond relabel_bond insert_bond", "91ac03e006a4d04f"),
    ("drop", "CC(=O)N", 3, 0, "insert_atom+bond", "dc418a5020ebfc48"),
    ("drop", "CCOC", 2, 0, "insert_atom+bond insert_bond", "37788c59837f8e8b"),
    ("drop", "C[N+](C)(C)C.[Cl-]", 5, 0, "insert_atom", "7d663c4d0adb5836"),
    ("drop", "O.O.O", 1, 0, "insert_atom", "e9e6bbe36d62e3f6"),
    ("drop", "C[C@H](N)C(=O)O", 2, 1, "insert_atom+bond", "b32097b7186527ac"),
    ("stray", "CCO", 90, 0, "delete_atom", "f09acf98cc71be8c"),
    ("stray", "CC(C)(C)[NH3+].[Cl-]", 100, 0, "delete_atom", "ebef12e933c5e8a4"),
    ("stray", "C[C@H](N)C(=O)O", 80, 3, "delete_atom", "1c628f98665a8e2b"),
]


class TestGoldenLabels:
    @pytest.mark.parametrize("case", GOLDEN_LABELS, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_label_text_is_pinned(self, case):
        kind, smiles, arg, seed, ops, digest = case
        got_ops, text = _golden_label_case(kind, smiles, arg, seed)
        assert got_ops == ops
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, text

    def test_cases_cover_charges_stereo_and_every_projected_edit(self):
        found = [(case[0], *_golden_label_case(*case[:4])) for case in GOLDEN_LABELS]
        for kind in ("plant", "project", "drop", "stray"):
            texts = [text for k, _, text in found if k == kind]
            for channel in ("charges", "stereos"):
                header = rf"{channel}\.csv\nlabel,xmin,ymin,xmax,ymax\n\d"
                assert any(re.search(header, text) for text in texts), (kind, channel)
        kinds = {k for _, ops, _ in found for k in ops.split()}
        assert {"insert_bond", "insert_atom", "insert_atom+bond", "delete_atom",
                "delete_bond", "relabel_atom", "relabel_bond"} <= kinds


def exhaustive_layout(
    graph: MolGraph, strict: bool, budget: int
) -> list[tuple[float, float]]:
    """The lattice placement search without symmetry pruning, kept verbatim
    but for its step budget as the oracle for _layout_cells."""
    n = graph.n_atoms
    nbrs = neighbours(graph)
    order: list[int] = []
    parents: list[int | None] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        parents.append(None)
        queue = [root]
        while queue:
            node = queue.pop(0)
            for other, _ in nbrs[node]:
                if not seen[other]:
                    seen[other] = True
                    order.append(other)
                    parents.append(node)
                    queue.append(other)

    cells: dict[int, tuple[int, int]] = {}
    occupied: set[tuple[int, int]] = set()
    steps = 0
    # depth-first search; tries[k] iterates the cells left to try for
    # order[k].  Each descent counts one step against the budget, the one
    # that finds every atom placed included.
    tries: list = []
    k = 0
    while True:
        steps += 1
        if steps > budget:
            raise LayoutError("placement search budget exhausted")
        if k == len(order):
            break
        atom = order[k]
        parent = parents[k]
        if parent is None:
            base = max((q for q, _ in occupied), default=-4) + 4
            choices = [(base + d, 0) for d in range(0, 4 * n, 4)]
        else:
            pq, pr = cells[parent]
            placed_mates = [cells[j] for j, _ in nbrs[atom] if j in cells]
            choices = [(pq + dq, pr + dr) for dq, dr in _AXIAL_STEPS]
            if strict:
                # every bond must land on a unit lattice edge, otherwise its
                # box would span other atoms and endpoint search can misroute
                choices = [
                    cell for cell in choices
                    if all(_axial_adjacent(cell, mate) for mate in placed_mates)
                ]
            else:
                choices.sort(key=lambda cell: -sum(
                    1 for mate in placed_mates if _axial_adjacent(cell, mate)
                ))
        tries.append(iter(choices))
        while True:
            for cell in tries[k]:
                if cell not in occupied:
                    break
            else:
                tries.pop()
                k -= 1
                if k < 0:
                    raise LayoutError("no lattice embedding found")
                occupied.discard(cells.pop(order[k]))
                continue
            break
        cells[order[k]] = cell
        occupied.add(cell)
        k += 1
    return [_axial_to_pixel(*cells[i]) for i in range(n)]


def _outcome(search, graph, strict, *budget):
    try:
        return search(graph, strict, *budget)
    except LayoutError as exc:
        return str(exc)


def _disjoint_union(parts):
    atoms, bonds = [], []
    for part in parts:
        bonds += [replace(b, u=b.u + len(atoms), v=b.v + len(atoms)) for b in part.bonds]
        atoms += part.atoms
    return MolGraph(tuple(atoms), tuple(bonds))


# graphs with no strict lattice embedding; the unpruned search takes 0.1 s
# (the third) to over 6 s (the second) to prove it, past its budget on all
# but the third
NO_EMBEDDING = [
    "CC1(C)C2CCC1(C)C(=O)C2",  # camphor
    "Brc1c(C)c(C)c2c(Br)c1ON2",
    "CS1c2ccc(c1c2N)Cl",
    "Cc1cc(C)c2CCc1c2I",
]


class TestLayoutPruning:
    """The symmetry-pruned placement against the unpruned oracle."""

    def check(self, graph):
        for strict in (True, False):
            want = _outcome(exhaustive_layout, graph, strict, 20000)
            got = _outcome(_layout_cells, graph, strict)
            if want == "placement search budget exhausted":
                # pruning only ends sooner, with a proof where the oracle gave
                # up; a layout here would change what _layout returns
                assert isinstance(got, str), graph
            else:
                assert got == want, graph

    def test_bench_rows(self):
        for name in ("druglike.tsv", "symmetric_salts.tsv"):
            for line in (BENCH / name).read_text(encoding="utf-8").splitlines():
                if line and not line.startswith("#"):
                    self.check(parse(line.split("\t")[1]))

    def test_random_molecules(self):
        rng = random.Random(8)
        for _ in range(1000):
            self.check(random_molecule(rng))

    def test_disconnected_graphs(self):
        rng = random.Random(81)
        ions = [parse(text) for text in ("O", "Cl", "[NH4+]")]
        for _ in range(200):
            parts = [random_molecule(rng, max_heavy=8)
                     for _ in range(rng.randint(1, 2))]
            parts += rng.choices(ions, k=rng.randint(1, 3))
            rng.shuffle(parts)
            self.check(_disjoint_union(parts))

    @pytest.mark.parametrize("smiles", NO_EMBEDDING)
    def test_no_embedding_is_proved(self, smiles):
        graph = parse(smiles)
        with pytest.raises(LayoutError, match="no lattice embedding found"):
            _layout_cells(graph, strict=True)

    def test_component_within_reach_of_an_earlier_one(self):
        # a rigid strip of triangles two rows high, nine cells long, rooted
        # two cells from its right end.  Drawn with the root's first
        # neighbour to its right, it runs back over the cells of CCCC, so
        # the first neighbour turns; a hexagonal patch of radius 4 rooted at
        # its centre meets CCCC however it is turned, so its root moves on
        strip = [(0, 0), (1, 0)] + [(q, 0) for q in range(-6, 0)] + [
            (2, 0)] + [(q, -1) for q in range(-5, 4)]
        patch = [(0, 0)] + [
            (q, r) for q in range(-4, 5) for r in range(-4, 5)
            if 0 < max(abs(q), abs(r), abs(q + r)) <= 4
        ]
        for cells in (strip, patch):
            index = {cell: i for i, cell in enumerate(cells)}
            bonds = sorted(
                (i, index[q + dq, r + dr]) for i, (q, r) in enumerate(cells)
                for dq, dr in _AXIAL_STEPS if index.get((q + dq, r + dr), -1) > i
            )
            shape = MolGraph(tuple(Atom("C") for _ in cells),
                             tuple(Bond(u, v, "single") for u, v in bonds))
            graph = _disjoint_union([parse("CCCC"), shape])
            want = exhaustive_layout(graph, True, 20000)
            assert _layout_cells(graph, strict=True) == want
            # the first cells of the root and its first neighbour fail
            assert (want[4], want[5]) != ((420, 0), (480, 0))

    @pytest.mark.parametrize("smiles", [
        "CC1(C)C2CCC1(C)C(=O)C2.O", "O.CC1(C)C2CCC1(C)C(=O)C2",
        "CCCC.CC1(C)C2CCC1(C)C(=O)C2",
    ])
    def test_no_embedding_beside_another_component(self, smiles):
        # the unpruned search re-proves camphor's refusal at every root cell
        # and under every placement of the other component
        graph = parse(smiles)
        with pytest.raises(LayoutError, match="no lattice embedding found"):
            _layout_cells(graph, strict=True)
        assert _outcome(exhaustive_layout, graph, True, 20000) == (
            "placement search budget exhausted")

    def test_oracle_agrees_on_camphor(self):
        graph = parse(NO_EMBEDDING[0])
        assert _outcome(exhaustive_layout, graph, True, 10 ** 6) == (
            "no lattice embedding found")

    def test_renders_in_bounded_time(self):
        # each render first proves that no strict layout exists.  Camphor's
        # lax layout does not re-construct it, alone or beside another
        # component, so its render is refused; the lax layouts of the other
        # three graphs re-construct them.
        script = (
            "from detmol import LayoutError, construct, isomorphic, parse, plant_errors\n"
            "refused = ['CC1(C)C2CCC1(C)C(=O)C2', 'CC1(C)C2CCC1(C)C(=O)C2.O',\n"
            "           'CCCC.CC1(C)C2CCC1(C)C(=O)C2']\n"
            f"drawn = {NO_EMBEDDING[1:]!r}\n"
            "for seed in range(3):\n"
            "    for text in refused:\n"
            "        try:\n"
            "            plant_errors(parse(text), 1, seed)\n"
            "        except LayoutError:\n"
            "            continue\n"
            "        raise AssertionError(text)\n"
            "    for text in drawn:\n"
            "        truth = parse(text)\n"
            "        assert isomorphic(construct(plant_errors(truth, 0, seed)), truth), text\n"
        )
        src = str(Path(detmol.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], env={"PYTHONPATH": src},
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr


def exhaustive_search(
    pred: MolGraph, ref: MolGraph, k_max: int
) -> tuple[int, list[int]] | None:
    """The edit search pruned by the label histogram alone, kept verbatim
    as the oracle for _search_mapping."""
    labels_p, labels_r = _labels(pred), _labels(ref)
    orders_p = [match_order(b.order) for b in pred.bonds]
    orders_r = [match_order(b.order) for b in ref.bonds]
    lower = max(
        _histogram_gap(labels_p, labels_r),
        abs(len(orders_p) - len(orders_r)),
        _histogram_gap(orders_p, orders_r),
    )
    if lower > k_max:
        return None

    n_pred, n_ref = pred.n_atoms, ref.n_atoms
    nbrs_p = neighbours(pred)
    rows_p = [dict(row) for row in nbrs_p]  # {neighbour: bond label}
    rows_r = [dict(row) for row in neighbours(ref)]
    ref_pairs = [b.pair for b in ref.bonds]
    ids = {label: k for k, label in enumerate(dict.fromkeys(labels_p + labels_r))}
    lab_p = [ids[x] for x in labels_p]
    lab_r = [ids[x] for x in labels_r]
    # label counts of the atoms not yet assigned, and their overlap
    rem_p = [0] * len(ids)
    rem_r = [0] * len(ids)
    for x in lab_p:
        rem_p[x] += 1
    for x in lab_r:
        rem_r[x] += 1
    overlap = sum(map(min, rem_p, rem_r))
    free_r = n_ref

    order = connected_order(nbrs_p, lambda i: (-len(nbrs_p[i]), i))
    mapping = [-2] * n_pred  # -2 unassigned, -1 delete, >= 0 ref index
    ref_owner = [-1] * n_ref
    # per depth: cost so far, next child to try (n_ref means delete), and
    # the (ref image, bond label) of each assigned neighbour with the count
    # of deleted ones
    cost_at = [0] * n_pred
    next_at = [0] * n_pred
    fixed_at: list[tuple[list[tuple[int, str]], int]] = [([], 0)] * n_pred

    def completion_cost() -> int:
        missing = [s for s in range(n_ref) if ref_owner[s] < 0]
        if not missing:
            return 0
        missing_set = set(missing)
        incident = sum(
            1 for pair in ref_pairs
            if pair[0] in missing_set or pair[1] in missing_set
        )
        islands = 0
        seen: set[int] = set()
        for s in missing:
            if s in seen:
                continue
            stack, anchored = [s], False
            seen.add(s)
            while stack:
                node = stack.pop()
                for other in rows_r[node]:
                    if other in missing_set:
                        if other not in seen:
                            seen.add(other)
                            stack.append(other)
                    else:
                        anchored = True
            if not anchored:
                islands += 1
        return len(missing) + incident - (len(missing) - islands)

    for budget in range(lower, k_max + 1):
        if n_pred == 0:
            total = completion_cost()
            if total <= budget:
                return total, []
            continue
        depth = 0
        next_at[0] = 0
        while depth >= 0:
            i = order[depth]
            a = lab_p[i]
            r = mapping[i]
            if r != -2:  # undo the child just left
                mapping[i] = -2
                rem_p[a] += 1
                if rem_p[a] <= rem_r[a]:
                    overlap += 1
                if r >= 0:
                    ref_owner[r] = -1
                    free_r += 1
                    b = lab_r[r]
                    rem_r[b] += 1
                    if rem_r[b] <= rem_p[b]:
                        overlap += 1
            placed, n_deleted = fixed_at[depth]
            slack = budget - cost_at[depth] - n_deleted
            row_i = rows_p[i]
            r = next_at[depth]
            child = -2
            while r < n_ref:
                if ref_owner[r] < 0:
                    extra = a != lab_r[r]
                    if extra <= slack:
                        row_r = rows_r[r]
                        for fj, code in placed:
                            if row_r.get(fj) != code:
                                extra += 1
                        for s in row_r:
                            j = ref_owner[s]
                            if j >= 0 and j not in row_i:
                                extra += 1
                        if extra <= slack:
                            child = r
                            break
                r += 1
            if child == -2 and r == n_ref:
                extra = 1 + len(placed)
                if extra <= slack:
                    child = -1
            next_at[depth] = r + 1
            if child == -2:
                depth -= 1
                continue
            mapping[i] = child
            if rem_p[a] <= rem_r[a]:
                overlap -= 1
            rem_p[a] -= 1
            if child >= 0:
                ref_owner[child] = i
                free_r -= 1
                b = lab_r[child]
                if rem_r[b] <= rem_p[b]:
                    overlap -= 1
                rem_r[b] -= 1
            cost = cost_at[depth] + n_deleted + extra
            left = n_pred - depth - 1
            # the label-histogram bound on the atoms still unassigned
            if cost + (left if left > free_r else free_r) - overlap > budget:
                continue
            if left == 0:
                total = cost + completion_cost()
                if total <= budget:
                    return total, mapping.copy()
                continue
            depth += 1
            cost_at[depth] = cost
            next_at[depth] = 0
            j_placed, j_deleted = [], 0
            for j, code in nbrs_p[order[depth]]:
                fj = mapping[j]
                if fj >= 0:
                    j_placed.append((fj, code))
                elif fj == -1:
                    j_deleted += 1
            fixed_at[depth] = (j_placed, j_deleted)
    return None


class TestSearchBound:
    """The residual-degree bound against the histogram-only oracle."""

    def check(self, pred, ref, k_max):
        assert _search_mapping(pred, ref, k_max) == exhaustive_search(
            pred, ref, k_max), (pred, ref, k_max)

    def test_bench_rows(self):
        for name in ("druglike.tsv", "symmetric_salts.tsv"):
            for line in (BENCH / name).read_text(encoding="utf-8").splitlines():
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if fields[3].startswith("render"):
                    continue
                ref = parse(fields[1])
                for n_edits in range(5):
                    pred = construct(plant_errors(ref, n_edits, 7 * n_edits + 1))
                    self.check(pred, ref, 3)

    def plant(self, rng, ref):
        # a small graph may take fewer than four edits
        try:
            return construct(plant_errors(ref, rng.randint(0, 4), rng.randrange(10 ** 6)))
        except ValueError:
            return None

    def test_random_molecules(self):
        rng = random.Random(3)
        for _ in range(200):
            ref = random_molecule(rng)
            pred = self.plant(rng, ref)
            if pred is None:
                continue
            for k_max in (1, 3, 4):
                self.check(pred, ref, k_max)

    def test_disconnected_graphs(self):
        rng = random.Random(4)
        ions = [parse(text) for text in ("O", "[Cl-]", "[NH4+]")]
        for _ in range(100):
            parts = [random_molecule(rng, max_heavy=8)
                     for _ in range(rng.randint(1, 2))]
            parts += rng.choices(ions, k=rng.randint(1, 3))
            rng.shuffle(parts)
            ref = _disjoint_union(parts)
            pred = self.plant(rng, ref)
            if pred is None:
                continue
            for k_max in (1, 3, 4):
                self.check(pred, ref, k_max)

    def test_atom_insertions_and_deletions(self):
        # planting never inserts or deletes an atom; edit the graph directly
        rng = random.Random(5)
        for _ in range(300):
            ref = pred = random_molecule(rng)
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.5 and pred.n_atoms > 1:
                    x = rng.randrange(pred.n_atoms)
                    for bond in [b for b in pred.bonds if x in b.pair]:
                        pred = apply_op(pred, EditOp.delete_bond(bond.pair))
                    pred = apply_op(pred, EditOp.delete_atom(x))
                else:
                    attach = rng.choice([None, rng.randrange(pred.n_atoms)])
                    order = None if attach is None else "single"
                    pred = apply_op(pred, EditOp.insert_atom(
                        rng.choice("CNOS"), 0, attach, order))
            for k_max in (1, 3, 4):
                self.check(pred, ref, k_max)

    @pytest.mark.parametrize("pred, ref, k_max, cost", [
        # the inserted atom brings its bond: no bond insertion on top
        ("CC", "CCC", 1, 1),
        ("CC", "CC(C)C", 2, 2),
        # an island brings no bond, and needs none
        ("CC", "CC.[Cl-]", 1, 1),
        ("CC", "CC.O.[NH4+]", 2, 2),
        # the first atom searched is deleted with three bonds still pending
        ("ClC(Cl)Cl", "Cl.Cl.Cl", 4, 4),
    ])
    def test_exact_cost_where_the_bound_is_tight(self, pred, ref, k_max, cost):
        pred, ref = parse(pred), parse(ref)
        found = edit_correct(pred, ref, k_max)
        assert found.script.cost == cost
        assert edit_correct(pred, ref, cost - 1) is None
        self.check(pred, ref, k_max)

    def test_corrects_in_bounded_time(self):
        # the histogram bound sees nothing on a label-uniform chain; these
        # five searches took 10-18 s with it alone
        script = (
            "from detmol import construct, edit_correct, parse, plant_errors\n"
            "amide = parse('CC(C)Cc1ccc(cc1)C(C)C(=O)NCCN(CC)CCOc1ccc(Cl)cc1')\n"
            "chain = parse('C' * 60)\n"
            "cases = [(amide, 3, seed) for seed in (1, 2)]\n"
            "cases += [(chain, 1, seed) for seed in (1, 2, 3)]\n"
            "for ref, n_edits, seed in cases:\n"
            "    pred = construct(plant_errors(ref, n_edits, seed))\n"
            "    found = edit_correct(pred, ref, 3)\n"
            "    assert found is not None and found.script.cost <= n_edits\n"
        )
        src = str(Path(detmol.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], env={"PYTHONPATH": src},
            capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 0, done.stderr


def anchored_insertion_order(ref: MolGraph, owned: set[int]) -> list[int]:
    """The order in which an edit script inserted the ref atoms that the
    search left unowned, before it used connected_order: the least atom
    bonded to a placed one first, else the least atom left.  The loop is
    kept verbatim, with each insertion recorded in place of its op, as the
    oracle for connected_order's `start`."""
    placed = dict.fromkeys(owned)
    nbrs_r = neighbours(ref)
    order = []
    remaining = {s for s in range(ref.n_atoms) if s not in placed}
    while remaining:
        anchored = sorted(
            s for s in remaining if any(j in placed for j, _ in nbrs_r[s])
        )
        if anchored:
            s = anchored[0]
        else:
            s = min(remaining)
        order.append(s)
        placed[s] = None
        remaining.discard(s)
    return order


class TestInsertionOrder:
    """connected_order from the owned ref atoms against the loop it replaced
    in the edit script."""

    def test_removed_atoms(self):
        # pred is a random molecule with 1-3 atoms removed and the rest
        # permuted; k_max covers re-inserting them
        rng = random.Random(17)
        for _ in range(300):
            ref = random_molecule(rng)
            while ref.n_atoms < 4:
                ref = random_molecule(rng)
            gone = set(rng.sample(range(ref.n_atoms), rng.randint(1, 3)))
            keep = [i for i in range(ref.n_atoms) if i not in gone]
            rng.shuffle(keep)
            new = {old: k for k, old in enumerate(keep)}
            pred = MolGraph(
                tuple(ref.atoms[i] for i in keep),
                tuple(Bond(new[b.u], new[b.v], b.order) for b in ref.bonds
                      if b.u in new and b.v in new))
            k_max = len(gone) + sum(1 for b in ref.bonds if b.u in gone or b.v in gone)
            _, mapping = _search_mapping(pred, ref, k_max)
            owned = {r for r in mapping if r >= 0}
            want = anchored_insertion_order(ref, owned)
            assert want
            assert connected_order(neighbours(ref), lambda s: s, owned) == want
            found = edit_correct(pred, ref, k_max)
            assert [op.element for op in found.script.ops
                    if op.kind == "insert_atom"] == [ref.atoms[s].element for s in want]

    @pytest.mark.parametrize("smiles, owned, want", [
        ("CC=O", set(), [0, 1, 2]),
        ("CC=O", {2}, [1, 0]),
        ("CCO.N.CC", {0}, [1, 2, 3, 4, 5]),
        ("CCO.N.CC", {3, 5}, [4, 0, 1, 2]),
        ("OCC(O)CO", {2}, [1, 0, 3, 4, 5]),
    ])
    def test_start(self, smiles, owned, want):
        ref = parse(smiles)
        order = connected_order(neighbours(ref), lambda s: s, owned)
        assert order == want == anchored_insertion_order(ref, owned)
