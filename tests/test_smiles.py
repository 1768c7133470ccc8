import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import detmol
from detmol import (
    Atom, Bond, MolGraph, SmilesError, canonical_ranks, isomorphic, parse, write,
)
from detmol.entities import ATOM_CLASSES
from detmol.molgraph import atom_invariants, dense_rank, match_order, neighbours, refine
from conftest import permute_graph, random_molecule

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Canonical output pinned on symmetric, disconnected and aromatic inputs:
# a change to the refinement or to the search order shows up here.
GOLDEN_WRITE = [
    ('O.O.O', 'O.O.O'),
    ('O.O.O.O.O.O', 'O.O.O.O.O.O'),
    ('CC(=O)[O-].[NH4+]', 'CC([O-])=O.[N+]'),
    ('C[N+](C)(C)C.[Cl-]', 'C[N+](C)(C)C.[Cl-]'),
    ('CC(C)(C)C', 'CC(C)(C)C'),
    ('FC(F)(F)c1ccccc1', 'c1ccc(cc1)C(F)(F)F'),
    ('FC(F)(F)C(F)(F)F', 'C(C(F)(F)F)(F)(F)F'),
    ('CC(C)(C)c1ccc(cc1)C(C)(C)C', 'CC(C)(C)c1ccc(cc1)C(C)(C)C'),
    ('c1ccccc1', 'c1ccccc1'),
    ('c1ccccc1.c1ccccc1', 'c1ccccc1.c1ccccc1'),
    ('C1CC1.C1CC1', 'C1CC1.C1CC1'),
    ('C1CCCCC1', 'C1CCCCC1'),
    ('OC(=O)C(F)(F)F', 'C(C(F)(F)F)(O)=O'),
    ('[Br-].[Br-].C[N+](C)(C)CC[N+](C)(C)C', '[Br-].[Br-].C[N+](C)(C)CC[N+](C)(C)C'),
    ('Oc1ccc(O)cc1', 'c1cc(ccc1O)O'),
    ('ClC(Cl)(Cl)Cl', 'C(Cl)(Cl)(Cl)Cl'),
    ('NC(N)=O.O', 'C(N)(N)=O.O'),
    ('FC(F)(F)C(O)(C(F)(F)F)C(F)(F)F', 'C(C(F)(F)F)(C(F)(F)F)(C(F)(F)F)O'),
    ('C1CC2CCC1CC2', 'C1CC2CCC1CC2'),
    ('[O-]S(=O)(=O)[O-].[NH4+].[NH4+]', '[N+].[N+].[O-]S([O-])(=O)=O'),
    ('CC.CC.CC', 'CC.CC.CC'),
    ('Cc1ccccc1C', 'Cc1ccccc1C'),
]

# write(random_molecule(random.Random(seed))) for seed 0, 1, ...
GOLDEN_RANDOM = [
    'CN1C=C1O[Sn]CI',
    'CCNI',
    'Cc1ccc(cc1)O',
    'CCS[Si]C',
    'C=Cc1cc(cc(c1[3H])F)S',
    '*(c1c(C)cccc1O[N+])=N',
    'CC(C(CNC)[Si](N)[Sn]#N)[2H]',
    '[Al](=C(C1C#C1)F)Cl',
    'CSCCS',
    'CCC(C(=C)I)[N+](C)S',
    'Cc1c2ccc(C[Se]2N)c1S',
    '*=CB(C(C)C#CB)I',
    '*c1cc(ccc1S)[Se]',
    'c1ccccc1',
    '*(N)N',
    'CNCc1cc(ccc1N)S',
    'BrN(I)OONC',
    '[2H]S(I)(=O)=O',
    'Cc1ccc(cc1C)[O-]',
    'Cc1cc(cc(c1[Te]=N)NC)F',
    'CC(C[Te])C(=C(OC)[Si](C)N)N',
    'IN(N)[Si]',
    'C1c2cc(c(c(c2)O1)I)Cl',
    '*=C(CC)C=C',
    '[As]C=C(C)CNC[Sn]',
    'COC1(C[Ge]C#C1)F',
    'Cl[2H]',
    '*ON(N=NI)N(C)C(OC)=[Se]',
    'C=C[2H]',
    'Cc1ccc(c(C)c1N)O',
    'B(=C)C#CS(N)=NC(Cl)[N+]',
    'CF',
    'CCO',
    '*(c1c(ccc(C)c1C)[H])[Te]',
    'CC1C(C(=[Ge]=O)SOS1)=O',
    '*N=Cc1ccc(C)cc1',
    'C1c2ccc1cc2',
    '*C1(C(C)Cl)C([Ge]1(C)S)N([Al])F',
    '[Al]1=C(CCl)S1(C(=C)[O-])N(C[H])Cl',
    'c1cc-2cc2c1',
    '*(Br)(CC)(CO)(O[Ge])=P',
    'Cc1cccc(c1)N',
    'Cc1cc(C=C)c(c(c1)[2H])N[2H]',
    'Cc1ccc(C)c(c1)C(C[3H])S',
    'CC(=C([Ge]S)OC)O',
    'C#CNN=C=N',
    'C=C[Te]',
    'c1ccc(cc1)[3H]',
    '[Al]c1ccc(C)c(c1[H])Cl',
    'c1ccccc1',
]


def exhaustive_ranks(graph: MolGraph) -> dict[int, int]:
    """canonical_ranks without pruning: every member of every lowest tied
    class is individualised and refined, and the colours of the first leaf,
    in depth-first order, with the least certificate are the ranks.  The
    oracle for the pruned search; it takes time factorial in the ties."""
    n = graph.n_atoms
    if n == 0:
        return {}
    nbrs = neighbours(graph)
    labels = [(a.element, a.formal_charge) for a in graph.atoms]
    edges = [(b.u, b.v, match_order(b.order)) for b in graph.bonds]

    def certificate(colors):
        atom_part = tuple(lab for _, lab in sorted(zip(colors, labels)))
        edge_part = tuple(sorted(
            (min(colors[u], colors[v]), max(colors[u], colors[v]), code)
            for u, v, code in edges
        ))
        return (atom_part, edge_part)

    best_cert, best = (), None
    # children are pushed in reverse so they pop in member order
    pending = [refine(nbrs, dense_rank(atom_invariants(graph, nbrs)))]
    while pending:
        colors = pending.pop()
        classes = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        tied = [c for c, members in classes.items() if len(members) > 1]
        if not tied:
            cert = certificate(colors)
            if best is None or cert < best_cert:
                best_cert, best = cert, colors
            continue
        pending.extend(reversed([
            refine(nbrs, dense_rank([(colors[i], i != member) for i in range(n)]))
            for member in classes[min(tied)]
        ]))
    return dict(enumerate(best))


# The character-at-a-time parser that the token scan in `parse` replaced,
# kept verbatim with the tables it reads: the oracle for the scan.
AROMATIC_LETTERS = {"b": "B", "c": "C", "n": "N", "o": "O", "s": "S", "p": "P"}

_BOND_SYMBOLS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
                 "/": "single", "\\": "single"}
_ELEMENTS = set(ATOM_CLASSES.values()) - {"D", "T"}

_BRACKET = re.compile(
    r"(?P<isotope>\d+)?"
    r"(?P<element>\*|[A-Za-z][a-z]?)"
    r"(?P<stereo>@@|@)?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>[+-]\d+|[+-]+)?"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[Atom] = []
        self.aromatic: list[bool] = []
        self.bonds: dict[tuple[int, int], Bond] = {}
        self.anchor: int | None = None
        self.branch_stack: list[int | None] = []
        self.pending_order: str | None = None
        self.pending_order_pos = 0
        self.open_rings: dict[int, tuple[int, str | None]] = {}

    def error(self, message: str, offset: int | None = None) -> SmilesError:
        return SmilesError(message, self.pos if offset is None else offset)

    def add_atom(self, element: str, charge: int, stereo: bool, aromatic: bool) -> None:
        try:
            atom = Atom(element, charge, stereo)
        except ValueError as exc:
            raise self.error(str(exc))
        index = len(self.atoms)
        self.atoms.append(atom)
        self.aromatic.append(aromatic)
        if self.anchor is not None:
            order = self.pending_order
            if order is None:
                order = "aromatic" if self.aromatic[self.anchor] and aromatic else "single"
            self.add_bond(self.anchor, index, order)
        elif self.pending_order is not None:
            raise self.error("bond symbol without a preceding atom",
                             self.pending_order_pos)
        self.pending_order = None
        self.anchor = index

    def add_bond(self, u: int, v: int, order: str) -> None:
        if u == v:
            raise self.error("ring bond closes onto its own atom")
        key = (min(u, v), max(u, v))
        if key in self.bonds:
            raise self.error(f"duplicate bond between atoms {u} and {v}")
        self.bonds[key] = Bond(u, v, order)

    def ring_closure(self, number: int) -> None:
        if self.anchor is None:
            raise self.error("ring closure before any atom")
        if number in self.open_rings:
            partner, opening_order = self.open_rings.pop(number)
            order = self.pending_order
            if order is not None and opening_order is not None and order != opening_order:
                raise self.error(f"ring bond {number} declared with two orders")
            order = order or opening_order
            if order is None:
                both_aromatic = self.aromatic[partner] and self.aromatic[self.anchor]
                order = "aromatic" if both_aromatic else "single"
            self.add_bond(partner, self.anchor, order)
        else:
            self.open_rings[number] = (self.anchor, self.pending_order)
        self.pending_order = None

    def parse_bracket(self) -> None:
        start = self.pos
        end = self.text.find("]", start)
        if end < 0:
            raise self.error("unterminated bracket atom", start)
        body = self.text[start + 1:end]
        match = _BRACKET.fullmatch(body)
        if not match or not body:
            raise self.error(f"malformed bracket atom [{body}]", start)
        isotope, element = match.group("isotope"), match.group("element")
        if isotope is not None:
            if element != "H" or isotope not in ("2", "3"):
                raise self.error(f"unsupported isotope [{body}]", start)
            element = "D" if isotope == "2" else "T"
        elif element in AROMATIC_LETTERS:
            element = AROMATIC_LETTERS[element]
        elif element == "*":
            pass
        elif element not in _ELEMENTS:
            raise self.error(f"unknown element {element!r}", start)
        hcount = match.group("hcount")
        if hcount is not None and element in ("H", "D", "T"):
            raise self.error("hydrogen atom with a hydrogen count", start)
        charge = self._parse_charge(match.group("charge"), start)
        aromatic = match.group("element") in AROMATIC_LETTERS
        # Explicit hydrogen counts are accepted but re-derived from valence.
        self.add_atom(element, charge, match.group("stereo") is not None, aromatic)
        self.pos = end + 1

    def _parse_charge(self, token: str | None, offset: int) -> int:
        if token is None:
            return 0
        sign = 1 if token[0] == "+" else -1
        digits = token.lstrip("+-")
        if digits:
            if len(set(token[:len(token) - len(digits)])) != 1:
                raise self.error(f"bad charge {token!r}", offset)
            magnitude = int(digits)
        else:
            if len(set(token)) != 1:
                raise self.error(f"bad charge {token!r}", offset)
            magnitude = len(token)
        charge = sign * magnitude
        if not -2 <= charge <= 6:
            raise self.error(f"charge {charge:+d} outside the supported range", offset)
        return charge

    def run(self) -> MolGraph:
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "[":
                self.parse_bracket()
            elif text.startswith(("Cl", "Br"), self.pos):
                self.add_atom(text[self.pos:self.pos + 2], 0, False, False)
                self.pos += 2
            elif ch in "BCNOSPFI":
                self.add_atom(ch, 0, False, False)
                self.pos += 1
            elif ch in AROMATIC_LETTERS:
                self.add_atom(AROMATIC_LETTERS[ch], 0, False, True)
                self.pos += 1
            elif ch == "*":
                self.add_atom("*", 0, False, False)
                self.pos += 1
            elif ch in _BOND_SYMBOLS:
                if self.pending_order is not None:
                    raise self.error("two bond symbols in a row")
                if self.anchor is None:
                    raise self.error("bond symbol without a preceding atom")
                self.pending_order = _BOND_SYMBOLS[ch]
                self.pending_order_pos = self.pos
                self.pos += 1
            elif ch.isdigit():
                self.ring_closure(int(ch))
                self.pos += 1
            elif ch == "%":
                digits = text[self.pos + 1:self.pos + 3]
                if len(digits) != 2 or not digits.isdigit():
                    raise self.error("'%' needs two digits")
                self.ring_closure(int(digits))
                self.pos += 3
            elif ch == "(":
                if self.anchor is None:
                    raise self.error("branch before any atom")
                if self.pending_order is not None:
                    raise self.error("bond symbol before a branch open")
                self.branch_stack.append(self.anchor)
                self.pos += 1
            elif ch == ")":
                if not self.branch_stack:
                    raise self.error("unbalanced ')'")
                if self.pending_order is not None:
                    raise self.error("dangling bond symbol before ')'")
                self.anchor = self.branch_stack.pop()
                self.pos += 1
            elif ch == ".":
                if self.pending_order is not None:
                    raise self.error("bond symbol before '.'")
                if self.anchor is None:
                    raise self.error("'.' before any atom")
                self.anchor = None
                self.pos += 1
            else:
                raise self.error(f"unexpected character {ch!r}")
        if self.branch_stack:
            raise self.error("unbalanced '('")
        if self.pending_order is not None:
            raise self.error("dangling bond symbol", self.pending_order_pos)
        if self.open_rings:
            number = min(self.open_rings)
            raise self.error(f"ring bond {number} never closed")
        if not self.atoms:
            raise self.error("empty SMILES", 0)
        return MolGraph(tuple(self.atoms), tuple(self.bonds.values()))


def reading(parser, text: str) -> tuple:
    """The atoms and bonds, in order, that `parser` reads from `text`, or
    its error's message and offset."""
    try:
        g = parser(text)
    except SmilesError as exc:
        return ("error", str(exc), exc.offset)
    return (g.atoms, tuple((b.u, b.v, b.order) for b in g.bonds))


def assert_reads_as_oracle(text: str) -> None:
    assert reading(parse, text) == reading(lambda t: _Parser(t).run(), text), text


def bench_smiles() -> list[str]:
    return [
        line.split("\t")[1]
        for name in ("druglike.tsv", "symmetric_salts.tsv")
        for line in (BENCH / name).read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


# the ASCII characters and tokens of SMILES, drawn from to build random
# strings and mutations
SMILES_ALPHABET = list("CNOSPFIBrlcnospb*[]()=#:/\\-+.%0123456789@H") + [
    "Cl", "Br", "[nH]", "[O-]", "%12", "[2H]", "[Se]", "[C@@H]", "[N+]", "X",
]


class TestParseBasics:
    def test_linear(self):
        g = parse("CCO")
        assert [a.element for a in g.atoms] == ["C", "C", "O"]
        assert [(b.u, b.v, b.order) for b in g.bonds] == [
            (0, 1, "single"), (1, 2, "single")]

    def test_branch(self):
        g = parse("CC(C)C")
        assert sum(1 in b.pair for b in g.bonds) == 3

    def test_nested_branches(self):
        g = parse("CC(C(C)C)C")
        assert g.n_atoms == 6
        assert [sum(i in b.pair for b in g.bonds) for i in (1, 2)] == [3, 3]

    def test_double_and_triple(self):
        g = parse("C=C")
        assert g.bonds[0].order == "double"
        assert parse("C#N").bonds[0].order == "triple"

    def test_two_letter_elements(self):
        g = parse("ClCBr")
        assert [a.element for a in g.atoms] == ["Cl", "C", "Br"]

    def test_ring_closure(self):
        g = parse("C1CCCCC1")
        assert len(g.bonds) == 6
        assert (0, 5) in {b.pair for b in g.bonds}

    def test_ring_bond_order_on_either_side(self):
        for s in ("C=1CCCCC=1", "C=1CCCCC1", "C1CCCCC=1"):
            g = parse(s)
            assert {b.pair: b.order for b in g.bonds}[(0, 5)] == "double"

    def test_percent_ring_number(self):
        g = parse("C%12CCCCC%12")
        assert (0, 5) in {b.pair for b in g.bonds}

    def test_aromatic_ring(self):
        g = parse("c1ccccc1")
        assert all(b.order == "aromatic" for b in g.bonds)
        assert len(g.bonds) == 6

    def test_aromatic_implicit_bond_needs_both_lowercase(self):
        g = parse("Cc1ccccc1")
        orders = {b.order for b in g.bonds}
        assert "single" in orders and "aromatic" in orders
        assert {b.pair: b.order for b in g.bonds}[(0, 1)] == "single"

    def test_slash_bonds_are_single(self):
        g = parse("C/C=C/C")
        assert [b.order for b in g.bonds] == ["single", "double", "single"]

    @pytest.mark.parametrize("text", ["C/1CCC1", "F/C=C/F"])
    def test_slash_bonds_flag_no_atom(self, text):
        # '/' and '\' mark double-bond geometry, not a tetrahedral centre
        assert not any(atom.is_stereocenter for atom in parse(text).atoms)

    def test_dot_splits_components(self):
        g = parse("CC.O")
        assert g.n_atoms == 3
        assert len(g.bonds) == 1

    def test_explicit_aromatic_bond_symbol(self):
        g = parse("C:C")
        assert g.bonds[0].order == "aromatic"


class TestBrackets:
    def test_charges(self):
        assert parse("[O-]").atoms[0].formal_charge == -1
        assert parse("[N+]").atoms[0].formal_charge == 1
        assert parse("[S+2]").atoms[0].formal_charge == 2
        assert parse("[O--]").atoms[0].formal_charge == -2
        assert parse("[N++]").atoms[0].formal_charge == 2

    def test_deuterium_tritium(self):
        assert parse("[2H]").atoms[0].element == "D"
        assert parse("[3H]").atoms[0].element == "T"
        assert parse("[H]").atoms[0].element == "H"

    def test_stereo_marker_sets_flag(self):
        g = parse("C[C@H](N)O")
        assert g.atoms[1].is_stereocenter
        g2 = parse("C[C@@H](N)O")
        assert g2.atoms[1].is_stereocenter

    def test_hydrogen_count_is_dropped(self):
        # implicit hydrogens are recomputed from valence instead
        g = parse("[CH3]C")
        assert g.n_atoms == 2
        assert g.atoms[0].element == "C"

    def test_wildcard(self):
        assert parse("[*]").atoms[0].element == "*"
        assert parse("*C").atoms[0].element == "*"

    def test_aromatic_bracket_atom(self):
        g = parse("c1ccc[nH]c1".replace("[nH]", "n"))
        assert g.atoms[4].element == "N"

    def test_charge_range_enforced(self):
        with pytest.raises(SmilesError):
            parse("[O-3]")
        with pytest.raises(SmilesError):
            parse("[S+7]")

    def test_isotope_only_for_hydrogen(self):
        with pytest.raises(SmilesError):
            parse("[13C]")
        with pytest.raises(SmilesError):
            parse("[4H]")

    def test_hcount_on_explicit_hydrogen_rejected(self):
        with pytest.raises(SmilesError):
            parse("[HH]")


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "", "C(", "C)", "C(C", "C1CC", "C=", "=C", "C..C", "C%1C",
        "[Q]", "[C", "C1CC=1=", "Xx", "99",
    ])
    def test_rejects(self, text):
        with pytest.raises(SmilesError):
            parse(text)

    def test_redundant_branch_nesting_is_tolerated(self):
        # parens balance, so this is not an error; both branches hang off C0
        assert isomorphic(parse("C((C))C"), parse("C(C)C"))

    def test_offset_reported(self):
        with pytest.raises(SmilesError) as err:
            parse("CC)")
        assert "offset 2" in str(err.value)

    def test_ring_self_loop(self):
        with pytest.raises(SmilesError):
            parse("C11")

    def test_duplicate_ring_bond(self):
        with pytest.raises(SmilesError):
            parse("C12C12")

    def test_conflicting_ring_orders(self):
        with pytest.raises(SmilesError):
            parse("C=1CCCCC#1")

    def test_dot_then_bond_rejected(self):
        with pytest.raises(SmilesError):
            parse("C.=C")


class TestTokenScanOracle:
    """`parse` reads every string as the replaced `_Parser` did: the same
    atoms and bonds in the same order, or the same message at the same
    offset."""

    def test_bench_smiles(self):
        for text in bench_smiles():
            assert_reads_as_oracle(text)

    def test_random_strings(self):
        rng = random.Random(41)
        for _ in range(20_000):
            text = "".join(rng.choice(SMILES_ALPHABET) for _ in range(rng.randint(0, 14)))
            assert_reads_as_oracle(text)

    def test_mutated_smiles(self):
        rng = random.Random(43)
        valid = bench_smiles() + [
            write(random_molecule(random.Random(seed))) for seed in range(200)
        ]
        for _ in range(5_000):
            chars = list(rng.choice(valid))
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(chars) + 1)
                kind = rng.randrange(3)
                if kind == 0:
                    chars.insert(i, rng.choice(SMILES_ALPHABET))
                elif i < len(chars):
                    chars[i:i + 1] = [] if kind == 1 else [rng.choice(SMILES_ALPHABET)]
            text = "".join(chars)
            assert_reads_as_oracle(text)

    @pytest.mark.parametrize("text, offset, message", [
        ("", 0, "empty SMILES"),
        ("C[C", 1, "unterminated bracket atom"),
        ("[]", 0, "malformed bracket atom []"),
        ("[13C]", 0, "unsupported isotope [13C]"),
        ("[Q]", 0, "unknown element 'Q'"),
        ("[HH]", 0, "hydrogen atom with a hydrogen count"),
        ("[C+-]", 0, "bad charge '+-'"),
        ("C[S+7]", 1, "charge +7 outside the supported range"),
        ("[O-3]", 0, "charge -3 outside the supported range"),
        ("C==C", 2, "two bond symbols in a row"),
        ("=C", 0, "bond symbol without a preceding atom"),
        ("1C", 0, "ring closure before any atom"),
        ("C=1CCCCC#1", 9, "ring bond 1 declared with two orders"),
        ("C11", 2, "ring bond closes onto its own atom"),
        ("C12C12", 4, "duplicate bond between atoms 0 and 1"),
        ("C%1C", 1, "'%' needs two digits"),
        ("(C)", 0, "branch before any atom"),
        ("C=(C)", 2, "bond symbol before a branch open"),
        ("CC)", 2, "unbalanced ')'"),
        ("C(C=)", 4, "dangling bond symbol before ')'"),
        ("C=.C", 2, "bond symbol before '.'"),
        (".C", 0, "'.' before any atom"),
        ("CXx", 1, "unexpected character 'X'"),
        # a digit that is not a decimal digit is no ring number
        ("C²", 1, "unexpected character '²'"),
        # ring numbers, charges and '%' numbers are ASCII digits only
        ("C٣CC٣", 1, "unexpected character '٣'"),
        ("[C+٣]", 0, "malformed bracket atom [C+٣]"),
        ("C%1٣C", 1, "'%' needs two digits"),
        ("C(C", 3, "unbalanced '('"),
        ("CC=", 2, "dangling bond symbol"),
        ("C1CC", 4, "ring bond 1 never closed"),
    ])
    def test_error_message_and_offset(self, text, offset, message):
        with pytest.raises(SmilesError) as err:
            parse(text)
        assert str(err.value) == f"offset {offset}: {message}"
        assert err.value.offset == offset


class TestWriter:
    def test_empty_graph(self):
        assert write(MolGraph((), ())) == ""

    def test_single_atom(self):
        assert write(parse("C")) == "C"
        assert write(parse("[O-]")) == "[O-]"

    def test_deterministic_across_permutation(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_molecule(rng)
            h, _ = permute_graph(rng, g)
            assert write(g) == write(h)

    def test_isotopes_roundtrip(self):
        s = write(parse("[2H]O[3H]"))
        assert "[2H]" in s and "[3H]" in s
        assert isomorphic(parse(s), parse("[2H]O[3H]"))

    def test_aromatic_ring_emitted_lowercase(self):
        s = write(parse("c1ccccc1"))
        assert "c" in s and "C" not in s

    def test_single_bond_between_aromatic_systems_is_explicit(self):
        g = parse("c1ccccc1-c1ccccc1")
        s = write(g)
        assert isomorphic(parse(s), g)
        # without the explicit single bond the rings would fuse aromatically
        assert "-" in s

    def test_lone_aromatic_bond_emits_colon(self):
        # chemically invalid but representable; the writer must not lose it
        g = MolGraph((Atom("C"), Atom("C")), (Bond(0, 1, "aromatic"),))
        s = write(g)
        assert ":" in s
        assert isomorphic(parse(s), g)

    def test_components_joined_by_dot(self):
        g = parse("CCO.CC")
        s = write(g)
        assert s.count(".") == 1
        assert isomorphic(parse(s), g)

    def test_wedges_written_as_single(self):
        g = MolGraph((Atom("C"), Atom("C")), (Bond(0, 1, "wedged"),))
        assert write(g) == "CC"

    def test_charge_tokens(self):
        assert write(MolGraph((Atom("S", 2),), ())) == "[S+2]"
        assert write(MolGraph((Atom("O", -2),), ())) == "[O-2]"
        assert write(MolGraph((Atom("Sn"),), ())) == "[Sn]"

    def test_golden_strings(self):
        rng = random.Random(5)
        for text, expected in GOLDEN_WRITE:
            g = parse(text)
            assert write(g) == expected, text
            assert write(permute_graph(rng, g)[0]) == expected, text
        for seed, expected in enumerate(GOLDEN_RANDOM):
            assert write(random_molecule(random.Random(seed))) == expected, seed

    def test_long_chain_within_a_low_recursion_limit(self):
        # a fresh interpreter, so no earlier call can have raised the limit
        script = (
            "import sys\n"
            "from detmol import (\n"
            "    canonical_ranks, edit_correct, isomorphic, parse, plant_errors, write,\n"
            ")\n"
            "sys.setrecursionlimit(250)\n"
            "g = parse('C' * 300)\n"
            "assert write(g) == 'C' * 300\n"
            "assert sorted(canonical_ranks(g).values()) == list(range(300))\n"
            "assert isomorphic(g, g)\n"
            "plant_errors(g, 0, 1)\n"
            "assert edit_correct(g, g, 0).script.cost == 0\n"
            "assert sys.getrecursionlimit() == 250\n"
        )
        src = str(Path(detmol.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], env={"PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_many_rings_use_percent_markers(self):
        # a wheel with 11 spokes plus rim closures forces ring ids >= 10
        n = 12
        atoms = tuple(Atom("*") for _ in range(n))
        bonds = tuple(Bond(0, i, "single") for i in range(1, n)) + tuple(
            Bond(i, i + 1, "single") for i in range(1, n - 1)
        ) + (Bond(1, n - 1, "single"),)
        g = MolGraph(atoms, bonds)
        s = write(g)
        assert "%" in s
        assert isomorphic(parse(s), g)


class TestCanonicalRanks:
    """The pruned search returns the exhaustive search's ranks, dict for dict."""

    def test_random_molecules_and_permutations(self):
        rng = random.Random(17)
        for seed in range(300):
            g = random_molecule(random.Random(seed))
            for h in (g, permute_graph(rng, g)[0]):
                assert canonical_ranks(h) == exhaustive_ranks(h), seed

    def test_bench_molecules(self):
        for name in ("druglike.tsv", "symmetric_salts.tsv"):
            for line in (BENCH / name).read_text(encoding="utf-8").splitlines():
                if line and not line.startswith("#"):
                    g = parse(line.split("\t")[1])
                    assert canonical_ranks(g) == exhaustive_ranks(g), line

    def test_small_symmetric_inputs(self):
        texts = [".".join("C" * k) for k in range(1, 8)] + [
            "C" + "C(C(F)(F)F)" * k + "C" for k in range(1, 4)
        ] + ["O.O.O.O.O.O", "C1CC1.C1CC1", "C1CCCCC1"]
        rng = random.Random(29)
        for text in texts:
            g = parse(text)
            for h in (g, permute_graph(rng, g)[0]):
                assert canonical_ranks(h) == exhaustive_ranks(h), text
        # colour refinement cannot tell two triangles from a hexagon, so the
        # search meets ties that are not orbits; each order of the atoms
        # takes another path through them
        g = parse("C1CC1.C1CC1.C1CCCCC1")
        for h in [g] + [permute_graph(rng, g)[0] for _ in range(4)]:
            assert canonical_ranks(h) == exhaustive_ranks(h)

    def test_symmetric_worst_cases_in_bounded_time(self):
        # the exhaustive search tries every order of each tied class: 14!
        # leaves for the stripped anthracene, so only pruning ends in time
        script = (
            "import random\n"
            "from conftest import permute_graph\n"
            "from detmol import MolGraph, canonical_ranks, isomorphic, parse, write\n"
            "cases = [\n"
            "    parse('.'.join('C' * 50)),\n"
            "    parse('C' + 'C(C(F)(F)F)' * 20 + 'C'),\n"
            "    MolGraph(parse('c1ccc2cc3ccccc3cc2c1').atoms, ()),\n"
            "]\n"
            "rng = random.Random(3)\n"
            "for g in cases:\n"
            "    assert sorted(canonical_ranks(g).values()) == list(range(g.n_atoms))\n"
            "    s = write(g)\n"
            "    assert write(permute_graph(rng, g)[0]) == s\n"
            "    assert isomorphic(parse(s), g)\n"
        )
        here = Path(__file__).resolve().parent
        src = str(Path(detmol.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": f"{src}:{here}"},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_parse_write_isomorphic(self, seed):
        g = random_molecule(random.Random(seed))
        assert isomorphic(parse(write(g)), g)

    def test_known_molecules(self):
        for s in [
            "CCO", "c1ccccc1", "CC(=O)N", "C[N+](C)(C)C", "O=C=O",
            "C[C@H](N)C(=O)O", "CC(C)(C)c1ccc(O)cc1", "[2H]OC", "*CC*",
            "N#Cc1ccccc1", "C1CC1.C1CCC1", "[O-]S(=O)(=O)[O-]",
            "FC(F)(F)c1ccccc1", "[Se]1CCCC1", "B(O)(O)c1ccccc1",
        ]:
            g = parse(s)
            assert isomorphic(parse(write(g)), g), s

    def test_write_stable_under_reparse(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_molecule(rng)
            s = write(g)
            assert write(parse(s)) == s

    @pytest.mark.parametrize("element", ["Se", "Si", "Te", "Ge", "As", "*"])
    def test_aromatic_ring_with_an_uppercase_atom(self, element):
        # the element has no aromatic letter, so its aromatic bonds are
        # written as ':' rather than left to read as single
        atoms = tuple(Atom(e) for e in ("C", "C", "C", "C", element))
        g = MolGraph(atoms, tuple(Bond(i, (i + 1) % 5, "aromatic") for i in range(5)))
        assert isomorphic(parse(write(g)), g), write(g)
