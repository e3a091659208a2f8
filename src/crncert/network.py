"""Reaction network model and the line-oriented ``.crn`` text format.

Grammar (one reaction per line, ``#`` starts a comment)::

    <complex> -> <complex> ; k=<rate>
    <complex> <-> <complex> ; kf=<rate>, kr=<rate>

A complex is a ``+``-separated list of terms ``[<int>]<species>``
(``2A + C``), or ``0`` for the empty complex.  Species names match
``[A-Za-z][A-Za-z0-9_]*`` and are indexed in order of first appearance.
A reversible arrow expands into two directed reactions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

MAX_COEFF = 2**31 - 1

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_TERM_RE = re.compile(r"\s*(\d+)?\s*([A-Za-z][A-Za-z0-9_]*)\s*$")
_RATE_ONEWAY_RE = re.compile(r"\s*k\s*=\s*(\S+)\s*$")
_RATE_TWOWAY_RE = re.compile(r"\s*kf\s*=\s*(\S+?)\s*,\s*kr\s*=\s*(\S+)\s*$")


class ParseError(ValueError):
    """Syntax or consistency error in network text, with 1-based position."""

    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass(frozen=True)
class Species:
    name: str
    index: int

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid species name {self.name!r}")
        if self.index < 0:
            raise ValueError("species index must be nonnegative")


@dataclass(frozen=True)
class Complex:
    """Multiset of species, stored as sorted (index, multiplicity) pairs.

    Multiplicities are strictly positive; the empty complex is ``Complex(())``.
    Complexes key the dictionaries and sets that index a network, so the
    hash of ``terms`` is computed once, here, not on every lookup.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        indices = [i for i, _ in self.terms]
        if sorted(set(indices)) != indices:
            raise ValueError("complex terms must be sorted by species index, without repeats")
        for i, k in self.terms:
            if i < 0:
                raise ValueError("negative species index")
            if not 0 < k <= MAX_COEFF:
                raise ValueError(f"multiplicity {k} out of range")
        object.__setattr__(self, "_hash", hash(self.terms))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "Complex":
        return cls(tuple(sorted((i, k) for i, k in coeffs.items() if k != 0)))

    @property
    def is_empty(self) -> bool:
        return not self.terms

    @cached_property
    def indices(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.terms)

    def format(self, names: tuple[str, ...] | list[str]) -> str:
        if self.is_empty:
            return "0"
        parts = [f"{k}{names[i]}" if k > 1 else names[i] for i, k in self.terms]
        return " + ".join(parts)


@dataclass(frozen=True)
class Reaction:
    source: Complex
    product: Complex
    rate: float

    def __post_init__(self):
        if self.source == self.product:
            raise ValueError("reaction source and product complexes are identical")
        if not (self.rate > 0) or self.rate != self.rate or self.rate == float("inf"):
            raise ValueError(f"rate must be a positive finite number, got {self.rate}")


class NumericForm(NamedTuple):
    """Float arrays of a network, shared read-only by every numeric routine.

    Rows of ``complex_matrix`` follow ``ReactionNetwork.complexes``; reaction r
    runs from complex ``source[r]`` to ``product[r]`` at ``rates[r]``.
    """

    complex_matrix: np.ndarray
    source: np.ndarray
    product: np.ndarray
    rates: np.ndarray
    exponents: np.ndarray
    stoichiometry: np.ndarray


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[Species, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise ValueError("duplicate species names")
        if [s.index for s in self.species] != list(range(len(self.species))):
            raise ValueError("species indices must be contiguous from 0")
        if not self.reactions:
            raise ValueError("network must contain at least one reaction")
        seen: set[tuple[Complex, Complex]] = set()
        used: set[int] = set()
        for r in self.reactions:
            key = (r.source, r.product)
            if key in seen:
                raise ValueError("duplicate reaction")
            seen.add(key)
            used |= r.source.indices | r.product.indices
        if max(used, default=-1) >= len(self.species):
            raise ValueError("complex references unknown species index")
        if used != set(range(len(self.species))):
            raise ValueError("every species must appear in at least one complex")

    @property
    def num_species(self) -> int:
        return len(self.species)

    @cached_property
    def species_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)

    @cached_property
    def complexes(self) -> tuple[Complex, ...]:
        """All source and product complexes, deduplicated, in first-appearance order."""
        return tuple(self.complex_index)

    @cached_property
    def complex_index(self) -> dict[Complex, int]:
        """Each complex's position in :attr:`complexes`."""
        index: dict[Complex, int] = {}
        for r in self.reactions:
            index.setdefault(r.source, len(index))
            index.setdefault(r.product, len(index))
        return index

    @cached_property
    def numeric(self) -> NumericForm:
        """The network as float arrays, built once per object and freed with it."""
        y = np.zeros((len(self.complexes), self.num_species))
        for row, c in enumerate(self.complexes):
            for i, k in c.terms:
                y[row, i] = k
        source = np.array([self.complex_index[r.source] for r in self.reactions])
        product = np.array([self.complex_index[r.product] for r in self.reactions])
        rates = np.array([r.rate for r in self.reactions])
        form = NumericForm(y, source, product, rates, y[source], y[product] - y[source])
        for a in form:
            a.setflags(write=False)
        return form

    @cached_property
    def structure(self) -> StructureReport:
        """The exact structure report, built once per object and freed with it."""
        return _build_report(self)


def reaction_vector(reaction: Reaction, num_species: int) -> tuple[int, ...]:
    """Dense net stoichiometry of one reaction: product minus source."""
    v = [0] * num_species
    for i, k in reaction.source.terms:
        v[i] -= k
    for i, k in reaction.product.terms:
        v[i] += k
    return tuple(v)


def _parse_complex(
    text: str, line_no: int, col_base: int, index_of: dict[str, int], parsed: dict[str, Complex]
) -> Complex:
    """The complex ``text`` denotes, parsed once per stripped text into ``parsed``.

    New species enter ``index_of`` in order of first appearance.  A failed
    parse raises and is never stored, so every error keeps its position.
    """
    stripped = text.strip()
    if stripped in parsed:
        return parsed[stripped]
    if not stripped:
        raise ParseError("missing complex expression", line_no, col_base + 1)
    if stripped == "0":
        complex_ = parsed[stripped] = Complex(())
        return complex_
    coeffs: dict[int, int] = {}
    offset = 0
    for part in text.split("+"):
        col = col_base + offset + (len(part) - len(part.lstrip()))
        m = _TERM_RE.match(part)
        if not m:
            raise ParseError(f"unrecognized token {part.strip()!r} in complex", line_no, col + 1)
        coeff_text, name = m.group(1), m.group(2)
        coeff = int(coeff_text) if coeff_text else 1
        if coeff == 0:
            raise ParseError("zero stoichiometric coefficient", line_no, col + 1)
        if coeff > MAX_COEFF:
            raise ParseError(f"stoichiometric coefficient {coeff} exceeds 32-bit range", line_no, col + 1)
        idx = index_of.setdefault(name, len(index_of))
        coeffs[idx] = coeffs.get(idx, 0) + coeff
        offset += len(part) + 1
    complex_ = parsed[stripped] = Complex.from_dict(coeffs)
    return complex_


def _parse_rate(text: str, line_no: int, col_base: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"malformed rate constant {text!r}", line_no, col_base) from None
    if not (value > 0) or value != value or value == float("inf"):
        raise ParseError(f"rate must be positive, got {text}", line_no, col_base)
    return value


def parse_network(text: str) -> ReactionNetwork:
    """Parse network text into a validated :class:`ReactionNetwork`."""
    index_of: dict[str, int] = {}
    parsed: dict[str, Complex] = {}
    reactions: list[Reaction] = []
    seen_pairs: dict[tuple[Complex, Complex], int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        line = raw[:hash_pos] if hash_pos >= 0 else raw
        if not line.strip():
            continue
        semi = line.find(";")
        if semi < 0:
            raise ParseError("missing ';' before rate constants", line_no, len(line.rstrip()) + 1)
        head, rates = line[:semi], line[semi + 1 :]
        reversible = "<->" in head
        arrow = "<->" if reversible else "->"
        arrow_pos = head.find(arrow)
        if arrow_pos < 0:
            raise ParseError("missing reaction arrow '->' or '<->'", line_no, 1)
        if head.find(arrow, arrow_pos + len(arrow)) >= 0:
            raise ParseError("more than one reaction arrow on a line", line_no, arrow_pos + len(arrow) + 1)
        lhs_text = head[:arrow_pos]
        rhs_text = head[arrow_pos + len(arrow) :]
        source = _parse_complex(lhs_text, line_no, 0, index_of, parsed)
        product = _parse_complex(rhs_text, line_no, arrow_pos + len(arrow), index_of, parsed)
        if source == product:
            raise ParseError("reaction source and product complexes are identical", line_no, 1)

        pairs: list[tuple[Complex, Complex, float]]
        if reversible:
            m = _RATE_TWOWAY_RE.match(rates)
            if not m:
                raise ParseError("reversible reaction needs 'kf=<rate>, kr=<rate>'", line_no, semi + 2)
            kf = _parse_rate(m.group(1), line_no, semi + 2)
            kr = _parse_rate(m.group(2), line_no, semi + 2)
            pairs = [(source, product, kf), (product, source, kr)]
        else:
            m = _RATE_ONEWAY_RE.match(rates)
            if not m:
                raise ParseError("reaction needs 'k=<rate>'", line_no, semi + 2)
            k = _parse_rate(m.group(1), line_no, semi + 2)
            pairs = [(source, product, k)]

        for src, prod, rate in pairs:
            key = (src, prod)
            if key in seen_pairs:
                raise ParseError(
                    f"duplicate reaction (already given on line {seen_pairs[key]})", line_no, 1
                )
            seen_pairs[key] = line_no
            reactions.append(Reaction(src, prod, rate))

    if not reactions:
        raise ParseError("no reactions found", max(1, text.count("\n") + 1))
    species = tuple(Species(name, i) for i, name in enumerate(index_of))
    return ReactionNetwork(species, tuple(reactions))


def parse_network_file(path) -> ReactionNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def serialize_network(net: ReactionNetwork) -> str:
    """Render the network in the ``.crn`` format, one directed reaction per line."""
    names = net.species_names
    lines = [
        f"{r.source.format(names)} -> {r.product.format(names)} ; k={r.rate!r}"
        for r in net.reactions
    ]
    return "\n".join(lines) + "\n"


# The structure module imports this one, so it is imported last.
from .structure import StructureReport, _build_report  # noqa: E402
