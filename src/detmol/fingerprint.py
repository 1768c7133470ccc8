"""Circular fingerprints over molecular graphs and Tanimoto similarity."""

from __future__ import annotations

from dataclasses import dataclass

from .entities import ATOM_CLASSES
from .molgraph import MolGraph, atom_invariants, implicit_hydrogens, neighbours

_M64 = (1 << 64) - 1
_SEED = 0x5D70C1E3A9F4B827

_ELEMENT_IDS = {symbol: i for i, symbol in ATOM_CLASSES.items()}
_ORDER_IDS = {"single": 1, "double": 2, "triple": 3, "aromatic": 4}


def _mix(x: int) -> int:
    # splitmix64 finalizer; fixed constants keep results platform-stable.
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _hash_ints(values: tuple[int, ...]) -> int:
    h = _SEED
    for v in values:
        h = _mix(h ^ (v & _M64))
    return h


@dataclass(frozen=True)
class FpParams:
    radius: int = 3
    nbits: int = 2048

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.nbits <= 0 or self.nbits & (self.nbits - 1):
            raise ValueError("nbits must be a positive power of two")


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-width bitset; bit i is bit i of the `bits` integer."""

    bits: int
    nbits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.nbits:
            raise ValueError("bits outside the declared width")

    @classmethod
    def from_on_bits(cls, on_bits, nbits: int) -> "Fingerprint":
        value = 0
        for b in on_bits:
            if not 0 <= b < nbits:
                raise ValueError(f"bit {b} outside width {nbits}")
            value |= 1 << b
        return cls(value, nbits)

    def on_bits(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.nbits) if self.bits >> i & 1)

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def to_hex(self) -> str:
        """Big-endian hex, nbits/4 characters; leftmost covers the top bits."""
        return format(self.bits, f"0{self.nbits // 4}x")

    @classmethod
    def from_hex(cls, text: str, nbits: int) -> "Fingerprint":
        if len(text) != nbits // 4:
            raise ValueError(f"expected {nbits // 4} hex characters")
        return cls(int(text, 16), nbits)


def ecfp(graph: MolGraph, params: FpParams = FpParams()) -> Fingerprint:
    """Circular environment fingerprint (radius rounds, set semantics).

    Every atom starts from a hash of (element, charge, degree, rounded bond
    order sum, implicit hydrogen count); each round rehashes it with the
    sorted (bond order, neighbor id) list.  Identifiers from every round set
    bit id mod nbits.
    """
    nbrs = neighbours(graph)
    ids = [
        _hash_ints((_ELEMENT_IDS[element], charge + 16, degree, occupied, hydrogens))
        for (element, charge, degree, occupied), hydrogens in zip(
            atom_invariants(graph, nbrs), implicit_hydrogens(graph)
        )
    ]
    bits = 0
    for i in ids:
        bits |= 1 << (i % params.nbits)
    for _ in range(params.radius):
        new_ids = []
        for i, row in enumerate(nbrs):
            env = sorted((_ORDER_IDS[code], ids[j]) for j, code in row)
            flat: list[int] = [ids[i]]
            for order_id, neighbor_id in env:
                flat.append(order_id)
                flat.append(neighbor_id)
            new_ids.append(_hash_ints(tuple(flat)))
        ids = new_ids
        for i in ids:
            bits |= 1 << (i % params.nbits)
    return Fingerprint(bits, params.nbits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a & b| / |a | b|; two empty fingerprints count as identical (1.0)."""
    if a.nbits != b.nbits:
        raise ValueError(f"width mismatch: {a.nbits} vs {b.nbits}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
