import math
import random
import signal
from pathlib import Path

import pytest

from detmol import Atom, Bond, MolGraph, RepairError
from detmol.entities import ATOM_CLASSES
from detmol.molgraph import (
    DEFAULT_VALENCES, ORDER_VALUE, WILDCARD, ChemProblem, allowed_valences,
    _search_mapping, detect_problems, implicit_hydrogens, isomorphic,
    match_order, repair,
)
from detmol.smiles import parse
from conftest import brute_force_isomorphic, permute_graph, random_molecule

BENCH = Path(__file__).resolve().parents[1] / "bench"


def chain(*elements, order="single"):
    atoms = tuple(Atom(e) for e in elements)
    bonds = tuple(Bond(i, i + 1, order) for i in range(len(elements) - 1))
    return MolGraph(atoms, bonds)


def reference_implicit_hydrogens(graph: MolGraph, index: int) -> int:
    """implicit_hydrogens for one atom, its bond-order sum taken over a scan
    of every bond.  The oracle for the one-pass version."""
    atom = graph.atoms[index]
    valences = allowed_valences(atom.element, atom.formal_charge)
    if valences is None:
        return 0
    occupied = math.ceil(sum(ORDER_VALUE[b.order] for b in graph.bonds if index in b.pair))
    fitting = [v for v in valences if v >= occupied]
    target = min(fitting) if fitting else max(valences)
    return max(0, target - occupied)


def reference_detect_problems(graph: MolGraph) -> list[ChemProblem]:
    """detect_problems over per-atom lists of Bond objects, with the valence
    verdict written out.  The oracle for the neighbour-row version."""
    problems = []
    for i, atom in enumerate(graph.atoms):
        incident = [b for b in graph.bonds if i in b.pair]
        order_sum = sum(ORDER_VALUE[b.order] for b in incident)
        valences = allowed_valences(atom.element, atom.formal_charge)
        if valences is not None and math.ceil(order_sum) > max(valences):
            problems.append(ChemProblem(i, order_sum, max(valences), "valence"))
            continue
        n_aromatic = sum(1 for b in incident if b.order == "aromatic")
        if n_aromatic == 1:
            problems.append(ChemProblem(i, float(n_aromatic), 2.0, "aromatic"))
    return problems


def overloaded(rng, graph: MolGraph) -> MolGraph:
    """The graph with up to three extra bonds of random order, so that some
    atoms break their valence."""
    present = {b.pair for b in graph.bonds}
    absent = [
        (u, v) for u in range(graph.n_atoms) for v in range(u + 1, graph.n_atoms)
        if (u, v) not in present
    ]
    extra = rng.sample(absent, min(3, len(absent)))
    return MolGraph(graph.atoms, graph.bonds + tuple(
        Bond(u, v, rng.choice(sorted(ORDER_VALUE))) for u, v in extra
    ))


class TestValenceOracles:
    """implicit_hydrogens and detect_problems agree with the reference
    implementations above."""

    CHARGED_AND_WILDCARD = [
        "C[N+](C)(C)C", "C[N+](C)(C)(C)C", "C=[N+](C)C", "CC(=O)[O-]",
        "C[O-]", "C[O+](C)C", "C[P+](C)(C)C", "C[P+](C)(C)(C)(C)(C)C",
        "[O-][N+](=O)c1ccccc1", "C[N-]C", "[P-2](C)C", "*C(*)=O",
        "*c1ccccc1", "C*(C)(C)(C)(C)C", "[N+]#C", "*:C", "O=[N+]=O",
    ]

    @staticmethod
    def check(graph: MolGraph) -> None:
        assert implicit_hydrogens(graph) == [
            reference_implicit_hydrogens(graph, i) for i in range(graph.n_atoms)
        ]
        assert detect_problems(graph) == reference_detect_problems(graph)

    def test_random_molecules_and_permutations(self):
        rng = random.Random(41)
        for _ in range(300):
            g = random_molecule(rng)
            for h in (g, permute_graph(rng, g)[0], overloaded(rng, g)):
                self.check(h)

    def test_bench_molecules(self):
        for name in ("druglike.tsv", "symmetric_salts.tsv"):
            for line in (BENCH / name).read_text(encoding="utf-8").splitlines():
                if line and not line.startswith("#"):
                    self.check(parse(line.split("\t")[1]))

    def test_charged_and_wildcard_atoms(self):
        flagged = 0
        for text in self.CHARGED_AND_WILDCARD:
            g = parse(text)
            self.check(g)
            flagged += bool(detect_problems(g))
        # some of these break their valence, so the verdict is exercised
        assert 0 < flagged < len(self.CHARGED_AND_WILDCARD)


class TestValences:
    def test_defaults(self):
        assert allowed_valences("C", 0) == (4,)
        assert allowed_valences("S", 0) == (2, 4, 6)
        assert allowed_valences("Cl", 0) == (1,)
        assert allowed_valences("*", 0) is None

    def test_cation_shift_nitrogen(self):
        assert allowed_valences("N", 1) == (4,)
        assert allowed_valences("P", 1) == (4, 6)

    def test_cation_does_not_shift_carbon(self):
        assert allowed_valences("C", 1) == (4,)

    def test_anion_lowers(self):
        assert allowed_valences("O", -1) == (1,)
        assert allowed_valences("C", -1) == (3,)
        # floor at zero
        assert allowed_valences("F", -2) == (0,)

    def test_every_atom_class_has_a_valence_entry(self):
        # plant_errors asks allowed_valences about every atom class
        for element in ATOM_CLASSES.values():
            assert element in DEFAULT_VALENCES or element == WILDCARD, element

    def test_unknown_element_has_no_entry(self):
        with pytest.raises(ValueError, match="no valence entry for element 'Xx'"):
            allowed_valences("Xx", 0)


class TestValueChecks:
    """The constructors reject values no graph may hold."""

    def test_atom_charge_out_of_range(self):
        with pytest.raises(ValueError, match="formal charge 7 out of range"):
            Atom("S", 7)

    def test_bond_unknown_order(self):
        with pytest.raises(ValueError, match="unknown bond order 'quadruple'"):
            Bond(0, 1, "quadruple")

    def test_bond_endpoints_must_differ(self):
        with pytest.raises(ValueError, match="bond endpoints must differ"):
            Bond(1, 1, "single")

    def test_graph_bond_to_a_missing_atom(self):
        with pytest.raises(ValueError, match=r"bond \(0, 2\) references a missing atom"):
            MolGraph((Atom("C"), Atom("C")), (Bond(0, 2, "single"),))

    def test_graph_duplicate_bond(self):
        with pytest.raises(ValueError, match=r"duplicate bond between \(0, 1\)"):
            MolGraph((Atom("C"), Atom("C")), (Bond(0, 1, "single"), Bond(1, 0, "double")))


class TestProblems:
    def test_clean_graph(self):
        assert detect_problems(chain("C", "C", "O")) == []

    def test_overbonded_carbon(self):
        atoms = tuple(Atom("C") for _ in range(6))
        bonds = tuple(Bond(0, i, "single") for i in range(1, 6))
        problems = detect_problems(MolGraph(atoms, bonds))
        assert len(problems) == 1
        assert problems[0].atom_index == 0
        assert problems[0].observed == 5.0
        assert problems[0].max_allowed == 4.0

    def test_charge_rescues_nitrogen(self):
        atoms = (Atom("N", 1),) + tuple(Atom("C") for _ in range(4))
        bonds = tuple(Bond(0, i, "single") for i in range(1, 5))
        assert detect_problems(MolGraph(atoms, bonds)) == []

    def test_aromatic_sum_uses_ceiling(self):
        # three aromatic bonds on one carbon: 4.5 -> ceil 5 > 4; the leaf
        # atoms additionally carry lone-aromatic-bond problems
        atoms = tuple(Atom("C") for _ in range(4))
        bonds = tuple(Bond(0, i, "aromatic") for i in range(1, 4))
        problems = detect_problems(MolGraph(atoms, bonds))
        valence = [p for p in problems if p.kind == "valence"]
        assert [(p.atom_index, p.observed) for p in valence] == [(0, 4.5)]
        assert {p.atom_index for p in problems if p.kind == "aromatic"} == {1, 2, 3}

    def test_lone_aromatic_bond_flagged(self):
        g = chain("C", "C", order="aromatic")
        problems = detect_problems(g)
        assert {p.atom_index for p in problems} == {0, 1}
        assert all(p.kind == "aromatic" for p in problems)

    def test_wildcard_unconstrained(self):
        atoms = (Atom("*"),) + tuple(Atom("C") for _ in range(6))
        bonds = tuple(Bond(0, i, "single") for i in range(1, 7))
        assert detect_problems(MolGraph(atoms, bonds)) == []


class TestRepair:
    def test_removes_lowest_scored_bond(self):
        atoms = tuple(Atom("C") for _ in range(6))
        bonds = tuple(
            Bond(0, i, "single", score=s)
            for i, s in zip(range(1, 6), (0.9, 0.8, 0.2, 0.7, 0.6))
        )
        fixed = repair(MolGraph(atoms, bonds))
        assert len(fixed.bonds) == 4
        assert (0, 3) not in {b.pair for b in fixed.bonds}
        assert detect_problems(fixed) == []

    def test_score_tie_drops_higher_order(self):
        # C with two double bonds and one single: 5 > 4; equal scores
        atoms = tuple(Atom("C") for _ in range(4))
        bonds = (Bond(0, 1, "double"), Bond(0, 2, "double"), Bond(0, 3, "single"))
        fixed = repair(MolGraph(atoms, bonds))
        assert len(fixed.bonds) == 2
        orders = sorted(b.order for b in fixed.bonds)
        assert orders == ["double", "single"]

    def test_noop_on_clean_graph(self):
        g = chain("C", "C", "C")
        assert repair(g) is g

    def test_idempotent(self):
        atoms = tuple(Atom("C") for _ in range(6))
        bonds = tuple(Bond(0, i, "single", score=0.1 * i) for i in range(1, 6))
        once = repair(MolGraph(atoms, bonds))
        again = repair(once)
        assert again.bonds == once.bonds

    def test_raises_when_budget_exhausted(self):
        atoms = tuple(Atom("C") for _ in range(6))
        bonds = tuple(Bond(0, i, "single") for i in range(1, 6))
        with pytest.raises(RepairError) as err:
            repair(MolGraph(atoms, bonds), max_iterations=0)
        assert err.value.graph.n_atoms == 6

    def test_lone_aromatic_repaired_by_deleting_aromatic_bond(self):
        g = chain("C", "C", order="aromatic")
        fixed = repair(g)
        assert fixed.bonds == ()


class TestImplicitHydrogens:
    def test_carbon_chain(self):
        g = chain("C", "C", "O")
        assert implicit_hydrogens(g) == [3, 2, 1]

    def test_smallest_fitting_valence(self):
        # S with two single bonds: 2 fits, so no hydrogens
        atoms = (Atom("S"), Atom("C"), Atom("C"))
        bonds = (Bond(0, 1, "single"), Bond(0, 2, "single"))
        assert implicit_hydrogens(MolGraph(atoms, bonds))[0] == 0

    def test_steps_to_next_valence(self):
        # S with three single bonds: 2 < 3 so 4 applies, one H left
        atoms = (Atom("S"), Atom("C"), Atom("C"), Atom("C"))
        bonds = tuple(Bond(0, i, "single") for i in range(1, 4))
        assert implicit_hydrogens(MolGraph(atoms, bonds))[0] == 1

    def test_overflow_clamps_to_zero(self):
        atoms = (Atom("S"),) + tuple(Atom("C") for _ in range(7))
        bonds = tuple(Bond(0, i, "single") for i in range(1, 8))
        assert implicit_hydrogens(MolGraph(atoms, bonds))[0] == 0

    def test_aromatic_carbon(self):
        atoms = tuple(Atom("C") for _ in range(6))
        bonds = tuple(Bond(i, (i + 1) % 6, "aromatic") for i in range(6))
        g = MolGraph(atoms, bonds)
        assert implicit_hydrogens(g)[0] == 1

    def test_charged(self):
        g = MolGraph((Atom("O", -1), Atom("C")), (Bond(0, 1, "single"),))
        assert implicit_hydrogens(g)[0] == 0
        g2 = MolGraph((Atom("N", 1), Atom("C")), (Bond(0, 1, "single"),))
        assert implicit_hydrogens(g2)[0] == 3

    def test_wildcard_never_gets_hydrogens(self):
        g = MolGraph((Atom("*"), Atom("C")), (Bond(0, 1, "single"),))
        assert implicit_hydrogens(g)[0] == 0


class TestMatchOrder:
    def test_wedges_fold_to_single(self):
        assert match_order("wedged") == "single"
        assert match_order("dashed") == "single"
        assert match_order("double") == "double"


class TestIsomorphism:
    def test_element_mismatch(self):
        assert not isomorphic(chain("C", "C", "O"), chain("C", "C", "N"))

    def test_simple_relabel(self):
        g = chain("C", "O", "C")
        h = chain("C", "C", "O")  # same multiset, different topology
        assert not isomorphic(g, h)

    def test_permutation(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_molecule(rng)
            h, _ = permute_graph(rng, g)
            assert isomorphic(g, h)

    def test_wedge_equals_single_by_default(self):
        g = chain("C", "C", order="wedged")
        h = chain("C", "C", order="single")
        assert isomorphic(g, h)

    def test_stereocenter_flags_ignored(self):
        g = MolGraph((Atom("C", 0, True), Atom("C")), (Bond(0, 1, "single"),))
        h = MolGraph((Atom("C"), Atom("C")), (Bond(0, 1, "single"),))
        assert isomorphic(g, h)

    def test_charge_distinguishes(self):
        g = MolGraph((Atom("O", -1),), ())
        h = MolGraph((Atom("O"),), ())
        assert not isomorphic(g, h)

    def test_bond_order_distinguishes(self):
        assert not isomorphic(chain("C", "C"), chain("C", "C", order="double"))

    def test_against_brute_force(self):
        rng = random.Random(21)
        pairs = []
        for _ in range(300):
            a = random_molecule(rng, max_heavy=6)
            if rng.random() < 0.5:
                b, _ = permute_graph(rng, a)
            else:
                b = random_molecule(rng, max_heavy=6)
            pairs.append((a, b))
        # disconnected and symmetric: refinement leaves whole classes tied
        for s, t in [
            ("O.O.O", "O.O.O"),
            ("O.O.O", "O.O.[O-]"),
            ("C1CC1.C1CC1.[Cl-]", "C1CCCCC1.[Cl-]"),
            ("C1CC1.C1CC1.[Cl-]", "[Cl-].C1CC1.C1CC1"),
            ("CC.CC.[Cl-].[Cl-]", "[Cl-].CC.[Cl-].CC"),
            # equal element and bond-order histograms
            ("CC(C)CC", "CCCCC"),
            ("C1CC1C", "C1CCC1"),
            ("CC(C)(C)C", "CCC(C)C"),
        ]:
            pairs.append((parse(s), permute_graph(rng, parse(t))[0]))
        for a, b in pairs:
            assert isomorphic(a, b) == brute_force_isomorphic(a, b)
        # copies with one bond's endpoint moved keep both histograms too;
        # both verdicts must occur among them.  The budget-0 search is checked
        # on its own as well, since refinement turns most negatives away first
        verdicts = []
        while len(verdicts) < 150:
            a = random_molecule(rng, max_heavy=6)
            if not a.bonds:
                continue
            bonds = list(a.bonds)
            k = rng.randrange(len(bonds))
            u = bonds[k].u
            held = {b.pair for b in bonds}
            free = [w for w in range(a.n_atoms)
                    if w != u and (min(u, w), max(u, w)) not in held]
            if not free:
                continue
            bonds[k] = Bond(u, rng.choice(free), bonds[k].order)
            b, _ = permute_graph(rng, MolGraph(a.atoms, tuple(bonds)))
            verdicts.append(brute_force_isomorphic(a, b))
            assert isomorphic(a, b) == verdicts[-1]
            assert (_search_mapping(a, b, 0) is not None) == verdicts[-1]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_wrong_isomer_beside_symmetric_groups_is_fast(self):
        # each CF3CH2CF3 has 72 automorphisms; with element labels the search
        # finds the difference in the last component only after about
        # 3! * 72**3 mappings of the others, while refinement rejects the
        # pair at once
        u = "FC(F)(F)CC(F)(F)F"
        a = parse(".".join([u] * 3 + ["CCCC(C)C"]))
        b = parse(".".join([u] * 3 + ["CCC(C)CC"]))

        def too_slow(signum, frame):
            raise TimeoutError("isomorphic took more than 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            assert not isomorphic(a, b)
            assert isomorphic(a, permute_graph(random.Random(3), a)[0])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_regular_graphs_need_backtracking(self):
        # two 3-cycles vs one 6-cycle: identical degree/label refinement
        atoms6 = tuple(Atom("C") for _ in range(6))
        two_triangles = MolGraph(atoms6, (
            Bond(0, 1, "single"), Bond(1, 2, "single"), Bond(0, 2, "single"),
            Bond(3, 4, "single"), Bond(4, 5, "single"), Bond(3, 5, "single"),
        ))
        hexagon = MolGraph(atoms6, tuple(
            Bond(i, (i + 1) % 6, "single") for i in range(6)
        ))
        assert not isomorphic(two_triangles, hexagon)
        assert isomorphic(two_triangles, two_triangles)
