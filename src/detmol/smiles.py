"""SMILES parsing and deterministic, canonical-order writing."""

from __future__ import annotations

import re

from .entities import ATOM_CLASSES
from .molgraph import (
    MAX_CHARGE, MIN_CHARGE, Atom, Bond, MolGraph, _labels, atom_invariants,
    dense_rank, match_order, neighbours, refine,
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
    r"(?P<charge>[+-]\d+|[+-]+)?",
    re.ASCII,
)


class SmilesError(ValueError):
    """Syntax or vocabulary error; `.offset` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


# the atom that each symbol outside brackets spells, and whether the symbol
# is an aromatic letter; atoms are immutable, so every parse shares these
_BARE_ATOMS = {symbol: (Atom(symbol), False) for symbol in ORGANIC_SUBSET + ("*",)}
_BARE_ATOMS.update(
    (letter, (Atom(element), True)) for letter, element in AROMATIC_LETTERS.items()
)


def _alternatives(symbols) -> str:
    return "|".join(map(re.escape, sorted(symbols, key=len, reverse=True)))


# One named alternative per token kind.  The last matches any one character,
# so the scan skips no text: it takes an unterminated '[', a '%' without two
# digits or an unexpected character.
_TOKEN = re.compile(
    r"(?P<bracket>\[[^\]]*\])"
    f"|(?P<bare>{_alternatives(_BARE_ATOMS)})"
    f"|(?P<bond>{_alternatives(_BOND_SYMBOLS)})"
    r"|(?P<ring>\d|%\d\d)"
    r"|(?P<open>\()|(?P<close>\))|(?P<dot>\.)"
    r"|(?P<other>.)",
    re.DOTALL | re.ASCII,
)


def _charge(token: str | None, offset: int) -> int:
    """The formal charge of a bracket atom's charge token: '+', '--', '-2'."""
    if token is None:
        return 0
    digits = token.lstrip("+-")
    if not digits and len(set(token)) != 1:
        raise SmilesError(f"bad charge {token!r}", offset)
    charge = (1 if token[0] == "+" else -1) * (int(digits) if digits else len(token))
    if not MIN_CHARGE <= charge <= MAX_CHARGE:
        raise SmilesError(f"charge {charge:+d} outside the supported range", offset)
    return charge


def _bracket_atom(body: str, offset: int) -> tuple[Atom, bool]:
    """The atom that `[body]` at `offset` spells, and whether it is written
    as an aromatic letter.  An explicit hydrogen count is accepted but
    re-derived from valence."""
    match = _BRACKET.fullmatch(body)
    if not match:
        raise SmilesError(f"malformed bracket atom [{body}]", offset)
    isotope, symbol = match.group("isotope"), match.group("element")
    element = AROMATIC_LETTERS.get(symbol, symbol)
    if isotope is not None:
        if symbol != "H" or isotope not in ("2", "3"):
            raise SmilesError(f"unsupported isotope [{body}]", offset)
        element = "D" if isotope == "2" else "T"
    elif element not in _ELEMENTS:
        raise SmilesError(f"unknown element {symbol!r}", offset)
    if match.group("hcount") is not None and element in ("H", "D", "T"):
        raise SmilesError("hydrogen atom with a hydrogen count", offset)
    charge = _charge(match.group("charge"), offset)
    atom = Atom(element, charge, match.group("stereo") is not None)
    return atom, symbol in AROMATIC_LETTERS


def parse(text: str) -> MolGraph:
    """Parse a SMILES string into a molecular graph.

    One pass over the tokens of `_TOKEN`.  Organic-subset atoms, bracket
    atoms with charge and hydrogen counts, aromatic lowercase forms,
    branches, ring closures (including %nn) and dot-separated fragments are
    supported.  A bond with no symbol, in a chain or at a ring closure, is
    aromatic between two aromatic letters and single otherwise.  Stereo
    markers are accepted and reduced to per-atom stereocenter flags; a '/'
    or '\\' bond is single and flags no atom.  Hydrogen counts are
    re-derived from valence rather than stored.
    """
    atoms: list[Atom] = []
    aromatic: list[bool] = []
    bonds: dict[tuple[int, int], Bond] = {}
    anchor: int | None = None  # the atom the next chain bond starts from
    branches: list[int] = []  # the anchors to return to at each ')'
    order: str | None = None  # the order of a bond symbol not yet used
    order_at = 0
    rings: dict[int, tuple[int, str | None]] = {}  # open number: (atom, order)

    def add_bond(u: int, v: int, order: str | None, offset: int) -> None:
        if order is None:
            order = "aromatic" if aromatic[u] and aromatic[v] else "single"
        if u == v:
            raise SmilesError("ring bond closes onto its own atom", offset)
        key = (min(u, v), max(u, v))
        if key in bonds:
            raise SmilesError(f"duplicate bond between atoms {u} and {v}", offset)
        bonds[key] = Bond(u, v, order)

    for match in _TOKEN.finditer(text):
        kind, token, at = match.lastgroup, match.group(), match.start()
        if kind in ("bare", "bracket"):
            if kind == "bare":
                atom, lower = _BARE_ATOMS[token]
            else:
                atom, lower = _bracket_atom(token[1:-1], at)
            atoms.append(atom)
            aromatic.append(lower)
            if anchor is not None:
                add_bond(anchor, len(atoms) - 1, order, at)
            anchor, order = len(atoms) - 1, None
        elif kind == "bond":
            if order is not None:
                raise SmilesError("two bond symbols in a row", at)
            if anchor is None:
                raise SmilesError("bond symbol without a preceding atom", at)
            order, order_at = _BOND_SYMBOLS[token], at
        elif kind == "ring":
            if anchor is None:
                raise SmilesError("ring closure before any atom", at)
            number = int(token.lstrip("%"))
            if number in rings:
                partner, opened = rings.pop(number)
                if order and opened and order != opened:
                    raise SmilesError(f"ring bond {number} declared with two orders", at)
                add_bond(partner, anchor, order or opened, at)
            else:
                rings[number] = (anchor, order)
            order = None
        elif kind == "open":
            if anchor is None:
                raise SmilesError("branch before any atom", at)
            if order is not None:
                raise SmilesError("bond symbol before a branch open", at)
            branches.append(anchor)
        elif kind == "close":
            if not branches:
                raise SmilesError("unbalanced ')'", at)
            if order is not None:
                raise SmilesError("dangling bond symbol before ')'", at)
            anchor = branches.pop()
        elif kind == "dot":
            if order is not None:
                raise SmilesError("bond symbol before '.'", at)
            if anchor is None:
                raise SmilesError("'.' before any atom", at)
            anchor = None
        elif token == "[":
            raise SmilesError("unterminated bracket atom", at)
        elif token == "%":
            raise SmilesError("'%' needs two digits", at)
        else:
            raise SmilesError(f"unexpected character {token!r}", at)
    if branches:
        raise SmilesError("unbalanced '('", len(text))
    if order is not None:
        raise SmilesError("dangling bond symbol", order_at)
    if rings:
        raise SmilesError(f"ring bond {min(rings)} never closed", len(text))
    if not atoms:
        raise SmilesError("empty SMILES", 0)
    return MolGraph(tuple(atoms), tuple(bonds.values()))


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


def _atom_token(atom: Atom, lower: bool) -> str:
    if atom.element == "D":
        symbol, bracket = "2H", True
    elif atom.element == "T":
        symbol, bracket = "3H", True
    elif atom.element == "H":
        symbol, bracket = "H", True
    else:
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
    # an atom with two aromatic bonds is spelled as an aromatic letter when
    # it has one; parse reads a bond with no symbol between two such letters
    # as aromatic, and any other as single
    lower = [
        sum(code == "aromatic" for _, code in row) >= 2
        and atom.element in AROMATIC_LETTERS.values()
        for atom, row in zip(graph.atoms, nbrs)
    ]

    def bond_symbol(u: int, v: int, code: str) -> str:
        if code == "single":
            return "-" if lower[u] and lower[v] else ""
        if code == "aromatic":
            return "" if lower[u] and lower[v] else ":"
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
            emitted.append(_atom_token(graph.atoms[node], lower[node]))
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
