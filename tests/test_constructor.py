import pytest

from detmol import (
    BBox, DetBox, DroppedBond, EntityChannel, EntitySet,
    assign_charges, assign_stereo, bond_endpoints, construct, empty_channel,
    filter_atoms, filter_cands,
)


def det(class_id, x0, y0, x1, y1, score=1.0):
    return DetBox(BBox(x0, y0, x1, y1), class_id, score)


def atoms_channel(*boxes):
    return EntityChannel("atom", boxes)


def entity_set(image_id="img", atoms=(), bonds=(), charges=(), stereos=()):
    return EntitySet(
        image_id,
        EntityChannel("atom", atoms),
        EntityChannel("bond", bonds),
        EntityChannel("charge", charges),
        EntityChannel("stereo", stereos),
    )


class TestFilterAtoms:
    def test_chain_merge_keeps_best_score(self):
        # a-b and b-c each overlap at IoU 2/3 > 0.5; a-c only at 3/7, but the
        # transitive group still collapses to the single best-scored box
        a = det(0, 0, 0, 10, 10, 0.5)
        b = det(0, 2, 0, 12, 10, 0.9)
        c = det(0, 4, 0, 14, 10, 0.6)
        kept = filter_atoms(atoms_channel(a, b, c))
        assert kept.boxes == (b,)

    def test_threshold_is_strict(self):
        # IoU is exactly 0.5 here (overlap 60, union 120); not merged
        a = det(0, 0, 0, 9, 10)
        b = det(0, 3, 0, 12, 10)
        kept = filter_atoms(atoms_channel(a, b))
        assert kept.boxes == (a, b)

    def test_score_tie_keeps_first(self):
        a = det(0, 0, 0, 10, 10, 0.7)
        b = det(2, 0, 0, 10, 10, 0.7)
        kept = filter_atoms(atoms_channel(a, b))
        assert kept.boxes == (a,)

    def test_disjoint_boxes_untouched_in_order(self):
        a = det(0, 0, 0, 10, 10)
        b = det(3, 40, 0, 50, 10)
        kept = filter_atoms(atoms_channel(a, b))
        assert kept.boxes == (a, b)

    def test_empty(self):
        assert filter_atoms(atoms_channel()).boxes == ()


class TestAssignCharges:
    def test_default_zero(self):
        atoms = atoms_channel(det(0, 0, 0, 10, 10))
        assert assign_charges(atoms, empty_channel("charge")) == [0]

    def test_overlap_assigns_value(self):
        atoms = atoms_channel(det(3, 0, 0, 10, 10), det(2, 40, 0, 50, 10))
        charges = EntityChannel("charge", (det(2, 8, 8, 14, 14),))
        assert assign_charges(atoms, charges) == [-1, 0]

    def test_best_score_wins(self):
        atoms = atoms_channel(det(2, 0, 0, 10, 10))
        charges = EntityChannel("charge", (
            det(1, 2, 2, 6, 6, 0.4), det(3, 4, 4, 8, 8, 0.8)))
        assert assign_charges(atoms, charges) == [2]

    def test_score_tie_prefers_earlier(self):
        atoms = atoms_channel(det(2, 0, 0, 10, 10))
        charges = EntityChannel("charge", (
            det(1, 2, 2, 6, 6, 0.5), det(3, 4, 4, 8, 8, 0.5)))
        assert assign_charges(atoms, charges) == [1]

    def test_touching_edge_does_not_count(self):
        atoms = atoms_channel(det(0, 0, 0, 10, 10))
        charges = EntityChannel("charge", (det(1, 10, 0, 14, 4),))
        assert assign_charges(atoms, charges) == [0]


class TestAssignStereo:
    def test_requires_wedge_or_dash_somewhere(self):
        atoms = atoms_channel(det(0, 0, 0, 10, 10))
        stereos = EntityChannel("stereo", (det(0, 2, 2, 6, 6),))
        plain = EntityChannel("bond", (det(1, 0, 0, 20, 20),))
        assert assign_stereo(atoms, stereos, plain) == set()
        wedged = EntityChannel("bond", (det(5, 0, 0, 20, 20),))
        assert assign_stereo(atoms, stereos, wedged) == {0}

    def test_ambiguous_stereo_box_ignored(self):
        atoms = atoms_channel(det(0, 0, 0, 10, 10), det(0, 8, 0, 18, 10))
        stereos = EntityChannel("stereo", (det(0, 7, 2, 11, 6),))
        bonds = EntityChannel("bond", (det(6, 0, 0, 20, 20),))
        assert assign_stereo(atoms, stereos, bonds) == set()

    def test_unanchored_stereo_box_ignored(self):
        atoms = atoms_channel(det(0, 0, 0, 10, 10))
        stereos = EntityChannel("stereo", (det(0, 50, 50, 54, 54),))
        bonds = EntityChannel("bond", (det(5, 0, 0, 20, 20),))
        assert assign_stereo(atoms, stereos, bonds) == set()


class TestBondEndpoints:
    def test_direct_intersection(self):
        atoms = atoms_channel(det(0, 0, 0, 10, 10), det(0, 30, 0, 40, 10))
        bond = det(1, 8, 2, 32, 8)
        assert bond_endpoints(atoms, bond) == [0, 1]

    def test_growth_until_two(self):
        # gaps of 2px on both sides; one expand step of 5 reaches both atoms
        atoms = atoms_channel(det(0, 0, 0, 10, 10), det(0, 35, 0, 45, 10))
        bond = det(1, 12, 2, 33, 8)
        assert bond_endpoints(atoms, bond) == [0, 1]

    def test_limit_stops_growth(self):
        # gaps of 78px on both sides: the last growth tried is 75px, since
        # growth stops on reaching the 80px limit, so no atom is met
        atoms = atoms_channel(det(0, 0, 0, 10, 10), det(0, 186, 0, 196, 10))
        bond = det(1, 88, 2, 108, 8)
        assert bond_endpoints(atoms, bond) == []

    def test_returns_all_candidates_at_final_size(self):
        atoms = atoms_channel(
            det(0, 0, 0, 10, 10), det(0, 20, 0, 30, 10), det(0, 40, 0, 50, 10))
        bond = det(1, 8, 2, 42, 8)
        assert bond_endpoints(atoms, bond) == [0, 1, 2]


class TestFilterCands:
    def test_horizontal_drops_middle(self):
        atoms = atoms_channel(
            det(0, 0, 0, 10, 10), det(0, 20, 0, 30, 10), det(0, 40, 0, 50, 10))
        pair = filter_cands([0, 1, 2], atoms, BBox(8, 0, 42, 6))
        assert pair == (0, 2)

    def test_vertical_drops_middle(self):
        atoms = atoms_channel(
            det(0, 0, 0, 10, 10), det(0, 0, 20, 10, 30), det(0, 0, 40, 10, 50))
        pair = filter_cands([0, 1, 2], atoms, BBox(0, 8, 6, 42))
        assert pair == (0, 2)

    def test_square_box_main_diagonal(self):
        atoms = atoms_channel(
            det(0, 0, 0, 2, 2), det(0, 8, 8, 10, 10), det(0, 8, 0, 10, 2))
        pair = filter_cands([0, 1, 2], atoms, BBox(0, 0, 10, 10))
        assert pair == (0, 1)

    def test_square_box_anti_diagonal(self):
        atoms = atoms_channel(
            det(0, 0, 8, 2, 10), det(0, 8, 0, 10, 2), det(0, 0, 0, 2, 2))
        pair = filter_cands([0, 1, 2], atoms, BBox(0, 0, 10, 10))
        assert pair == (0, 1)

    def test_shared_extreme_falls_to_next_distinct(self):
        atoms = atoms_channel(
            det(0, 2, 0, 8, 2), det(0, 28, 0, 32, 2), det(0, 50, 0, 56, 2))
        pair = filter_cands([0, 1, 2], atoms, BBox(0, 0, 10, 2))
        assert pair == (0, 1)

    def test_needs_three(self):
        atoms = atoms_channel(det(0, 0, 0, 10, 10), det(0, 20, 0, 30, 10))
        with pytest.raises(ValueError):
            filter_cands([0, 1], atoms, BBox(0, 0, 30, 10))


class TestConstruct:
    def test_ethanol_shape(self):
        es = entity_set(
            atoms=(det(0, 0, 0, 10, 10), det(0, 40, 0, 50, 10),
                   det(3, 80, 0, 90, 10)),
            bonds=(det(1, 8, 2, 42, 8), det(1, 48, 2, 82, 8)),
        )
        g = construct(es)
        assert [a.element for a in g.atoms] == ["C", "C", "O"]
        assert sorted(b.pair for b in g.bonds) == [(0, 1), (1, 2)]
        assert all(b.order == "single" for b in g.bonds)
        assert g.atoms[0].source_box == BBox(0, 0, 10, 10)

    def test_charge_and_stereo_attachment(self):
        es = entity_set(
            atoms=(det(2, 0, 0, 10, 10), det(0, 40, 0, 50, 10)),
            bonds=(det(5, 8, 2, 42, 8),),
            charges=(det(1, 8, 8, 12, 12),),
            stereos=(det(0, 42, 2, 46, 6),),
        )
        g = construct(es)
        assert g.atoms[0].formal_charge == 1
        assert g.atoms[0].element == "N"
        assert not g.atoms[0].is_stereocenter
        assert g.atoms[1].is_stereocenter
        assert g.bonds[0].order == "wedged"

    def test_duplicate_pair_keeps_best_score(self):
        es = entity_set(
            atoms=(det(0, 0, 0, 10, 10), det(0, 40, 0, 50, 10)),
            bonds=(det(1, 8, 2, 42, 8, 0.9), det(2, 8, 2, 42, 8, 0.7)),
        )
        g = construct(es)
        assert len(g.bonds) == 1
        assert g.bonds[0].order == "single"

    def test_duplicate_pair_score_tie_keeps_higher_order(self):
        es = entity_set(
            atoms=(det(0, 0, 0, 10, 10), det(0, 40, 0, 50, 10)),
            bonds=(det(1, 8, 2, 42, 8, 0.9), det(2, 8, 2, 42, 8, 0.9)),
        )
        g = construct(es)
        assert len(g.bonds) == 1
        assert g.bonds[0].order == "double"

    def test_dropped_bond_warnings(self):
        es = entity_set(
            image_id="imgX",
            atoms=(det(0, 0, 0, 10, 10),),
            bonds=(det(1, 300, 300, 320, 306), det(1, 20, 2, 40, 8)),
        )
        warnings: list[DroppedBond] = []
        g = construct(es, warnings=warnings)
        assert len(g.bonds) == 0
        assert [(w.bond_index, w.reason) for w in warnings] == [
            (0, "no_endpoints"), (1, "single_endpoint")]
        assert warnings[0].format() == (
            "WARN imgX dropped_bond 0 reason=no_endpoints")

    def test_no_warning_list_means_silent_drop(self):
        es = entity_set(
            atoms=(det(0, 0, 0, 10, 10),),
            bonds=(det(1, 300, 300, 320, 306),),
        )
        assert len(construct(es).bonds) == 0

    def test_overbonded_result_is_repaired(self):
        # three double bonds on one carbon exceed its valence; the lowest
        # score one is dropped by the repair pass
        center = det(0, 40, 40, 50, 50)
        arms = (det(3, 40, 0, 50, 10), det(3, 40, 80, 50, 90),
                det(3, 80, 40, 90, 50))
        es = entity_set(
            atoms=(center,) + arms,
            bonds=(det(2, 43, 8, 47, 42, 0.9), det(2, 43, 48, 47, 82, 0.9),
                   det(2, 48, 43, 82, 47, 0.2)),
        )
        g = construct(es)
        assert len(g.bonds) == 2
        assert (0, 3) not in {b.pair for b in g.bonds}

    def test_atom_dedup_reindexes_bonds(self):
        # two boxes for the left atom collapse; the bond must attach to the
        # surviving one rather than an off-by-one slot
        es = entity_set(
            atoms=(det(0, 0, 0, 10, 10, 0.4), det(0, 1, 0, 11, 10, 0.9),
                   det(3, 40, 0, 50, 10)),
            bonds=(det(1, 9, 2, 42, 8),),
        )
        g = construct(es)
        assert [a.element for a in g.atoms] == ["C", "O"]
        assert g.bonds[0].pair == (0, 1)
