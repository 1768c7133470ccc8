"""SMILES parsing and deterministic, canonical-order writing."""

from __future__ import annotations

import re

from .entities import ATOM_CLASSES
from .molgraph import (
    Atom, Bond, MolGraph, _labels, atom_invariants, dense_rank, match_order,
    neighbours, refine,
)

ORGANIC_SUBSET = ("Cl", "Br", "B", "C", "N", "O", "S", "P", "F", "I")
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


class SmilesError(ValueError):
    """Syntax or vocabulary error; `.offset` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


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
        self.pending_stereo = False
        self.open_rings: dict[int, tuple[int, str | None]] = {}

    def error(self, message: str, offset: int | None = None) -> SmilesError:
        return SmilesError(message, self.pos if offset is None else offset)

    def add_atom(self, element: str, charge: int, stereo: bool, aromatic: bool) -> None:
        if self.pending_stereo:
            stereo = True
            self.pending_stereo = False
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
                if ch in "/\\":
                    self.pending_stereo = True
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


def parse(text: str) -> MolGraph:
    """Parse a SMILES string into a molecular graph.

    Organic-subset atoms, bracket atoms with charge and hydrogen counts,
    aromatic lowercase forms, branches, ring closures (including %nn) and
    dot-separated fragments are supported.  Stereo markers are accepted and
    reduced to per-atom stereocenter flags; hydrogen counts are re-derived
    from valence rather than stored.
    """
    return _Parser(text).run()


def _merge_orbits(roots: dict[int, int], cell: list[int], gamma: list[int]) -> None:
    """Join the orbits of `roots` (a union-find forest whose roots are the
    least members) along the cycles of `gamma`, which maps `cell` onto itself."""

    def find(i: int) -> int:
        while roots[i] != i:
            roots[i] = i = roots[roots[i]]
        return i

    for i in cell:
        a, b = find(i), find(gamma[i])
        if a != b:
            roots[max(a, b)] = min(a, b)


def canonical_ranks(graph: MolGraph) -> dict[int, int]:
    """Stable atom ranks: colour refinement plus a search that individualises
    tied atoms, pruned by the automorphisms it finds.

    Ranks are a permutation of 0..n-1: the colours of the first leaf, in
    depth-first order, whose certificate (atom labels and bonds read in
    colour order) is the least.  A node's children individualise, in
    ascending index, each member of its lowest tied colour class; a child is
    refined only when it is visited.  A leaf whose certificate equals the
    first leaf's or the best leaf's yields an automorphism, and the search
    jumps back to where the two leaves' paths part (McKay & Piperno,
    "Practical graph isomorphism II", 2014).  A child in the orbit of an
    earlier sibling, under the automorphisms found so far that fix the
    node's path, is skipped.  Each pruned subtree is the image of an earlier
    one under an automorphism, so it holds no leaf with a smaller
    certificate that comes first: the ranks are those of the exhaustive
    search, and automorphic atoms never change the written SMILES.
    """
    n = graph.n_atoms
    if n == 0:
        return {}
    nbrs = neighbours(graph)
    labels = _labels(graph)
    edges = [(b.u, b.v, match_order(b.order)) for b in graph.bonds]

    def certificate(colors: list[int]) -> tuple:
        atom_part = tuple(lab for _, lab in sorted(zip(colors, labels)))
        edge_part = tuple(sorted(
            (min(colors[u], colors[v]), max(colors[u], colors[v]), code)
            for u, v, code in edges
        ))
        return (atom_part, edge_part)

    def target_cell(colors: list[int]) -> list[int]:
        """Members of the lowest tied colour, ascending; [] at a leaf."""
        counts = [0] * n
        for c in colors:
            counts[c] += 1
        tied = next((c for c, k in enumerate(counts) if k > 1), None)
        return [] if tied is None else [i for i, c in enumerate(colors) if c == tied]

    root = refine(nbrs, dense_rank(atom_invariants(graph, nbrs)))
    cell = target_cell(root)
    if not cell:
        return dict(enumerate(root))
    first = best = None  # (certificate, colours, path) of a leaf
    automorphisms: list[list[int]] = []
    # stack[d] is the node reached by individualising path[:d]; a frame is
    # [colours, target cell, next member to try, orbit roots over the cell
    # (each the least member of its orbit), automorphisms merged into them]
    stack = [[root, cell, 0, None, 0]]
    path: list[int] = []
    while stack:
        frame = stack[-1]
        colors, cell, k, roots, merged = frame
        if k:
            if roots is None:
                roots = frame[3] = {i: i for i in cell}
            for gamma in automorphisms[merged:]:
                # one that fixes the path maps the cell onto itself
                if all(gamma[v] == v for v in path):
                    _merge_orbits(roots, cell, gamma)
            frame[4] = len(automorphisms)
            # skip members whose orbit holds an earlier member, already tried
            while k < len(cell) and roots[cell[k]] != cell[k]:
                k += 1
        if k == len(cell):
            stack.pop()
            if path:
                path.pop()
            continue
        frame[2] = k + 1
        member = cell[k]
        path.append(member)
        child = refine(nbrs, dense_rank([(colors[i], i != member) for i in range(n)]))
        cell = target_cell(child)
        if cell:
            stack.append([child, cell, 0, None, 0])
            continue
        cert = certificate(child)
        ref = None
        if first is None:
            first = best = (cert, child, path[:])
        elif cert == first[0]:
            ref = first
        elif cert == best[0]:
            ref = best
        elif cert < best[0]:
            best = (cert, child, path[:])
        if ref is None:
            path.pop()
            continue
        # atom i maps to the atom that holds its colour in the reference leaf
        atom_of = [0] * n
        for i, c in enumerate(ref[1]):
            atom_of[c] = i
        automorphisms.append([atom_of[c] for c in child])
        # jump back to the node where this path left the reference leaf's
        split = 0
        while path[split] == ref[2][split]:
            split += 1
        del stack[split + 1:]
        del path[split:]
    return dict(enumerate(best[1]))


def _atom_token(atom: Atom, aromatic: bool) -> str:
    if atom.element == "D":
        symbol, bracket = "2H", True
    elif atom.element == "T":
        symbol, bracket = "3H", True
    elif atom.element == "H":
        symbol, bracket = "H", True
    else:
        lower = aromatic and atom.element in AROMATIC_LETTERS.values()
        symbol = atom.element.lower() if lower else atom.element
        bracket = atom.element not in ORGANIC_SUBSET and atom.element != "*"
    if atom.formal_charge != 0:
        sign = "+" if atom.formal_charge > 0 else "-"
        magnitude = abs(atom.formal_charge)
        symbol += sign + (str(magnitude) if magnitude > 1 else "")
        bracket = True
    return f"[{symbol}]" if bracket else symbol


def write(graph: MolGraph) -> str:
    """Emit a deterministic SMILES string; the empty graph writes as ''.

    Output is invariant under atom reordering: traversal starts from the
    minimal canonical rank and visits neighbors in rank order.  Wedged and
    dashed bonds are written as plain single bonds; disconnected components
    are dot-separated.
    """
    n = graph.n_atoms
    if n == 0:
        return ""
    ranks = canonical_ranks(graph)
    nbrs = neighbours(graph)
    aromatic = [sum(code == "aromatic" for _, code in row) >= 2 for row in nbrs]

    def bond_symbol(u: int, v: int, code: str) -> str:
        if code == "single":
            return "-" if aromatic[u] and aromatic[v] else ""
        if code == "aromatic":
            return "" if aromatic[u] and aromatic[v] else ":"
        return {"double": "=", "triple": "#"}[code]

    def by_rank(node: int) -> list[tuple[int, str]]:
        return sorted(nbrs[node], key=lambda row: ranks[row[0]])

    # depth-first spanning forest; a frame is (atom, the atom it was reached
    # from, its neighbours not yet looked at, in rank order).  A child is
    # kept as (atom, bond symbol), a ring closure also with the bond's pair.
    visited = [False] * n
    children: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    closures: list[list[tuple[int, str, tuple[int, int]]]] = [[] for _ in range(n)]
    back_pairs: set[tuple[int, int]] = set()
    component_roots: list[int] = []
    for root in sorted(range(n), key=lambda i: ranks[i]):
        if visited[root]:
            continue
        component_roots.append(root)
        visited[root] = True
        stack = [(root, -1, iter(by_rank(root)))]
        while stack:
            node, parent, rest = stack[-1]
            for other, code in rest:
                if other == parent:
                    continue
                symbol = bond_symbol(node, other, code)
                if not visited[other]:
                    visited[other] = True
                    children[node].append((other, symbol))
                    stack.append((other, node, iter(by_rank(other))))
                    break
                pair = (min(node, other), max(node, other))
                if pair not in back_pairs:
                    back_pairs.add(pair)
                    closures[node].append((other, symbol, pair))
                    closures[other].append((node, symbol, pair))
            else:
                stack.pop()

    marker_of: dict[tuple[int, int], int] = {}
    free = list(range(1, 100))
    emitted: list[str] = []

    def digit_token(number: int) -> str:
        return str(number) if number < 10 else f"%{number:02d}"

    for k, root in enumerate(component_roots):
        if k:
            emitted.append(".")
        # pending output in reverse: an int is an atom still to emit with its
        # subtree, a str is literal text
        work: list[int | str] = [root]
        while work:
            node = work.pop()
            if isinstance(node, str):
                emitted.append(node)
                continue
            emitted.append(_atom_token(graph.atoms[node], aromatic[node]))
            for other, symbol, pair in sorted(closures[node], key=lambda c: ranks[c[0]]):
                if pair not in marker_of:
                    if not free:
                        raise ValueError("more than 99 concurrent ring closures")
                    marker_of[pair] = free.pop(0)
                    emitted.append(symbol + digit_token(marker_of[pair]))
                else:
                    number = marker_of.pop(pair)
                    free.append(number)
                    free.sort()
                    emitted.append(digit_token(number))
            kids = children[node]
            subtree: list[int | str] = []
            for other, symbol in kids[:-1]:
                subtree += ["(" + symbol, other, ")"]
            for other, symbol in kids[-1:]:
                subtree += [symbol, other]
            work.extend(reversed(subtree))
    return "".join(emitted)
