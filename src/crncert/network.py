"""Reaction network model and the line-oriented ``.crn`` text format.

Grammar (one reaction per line, ``#`` starts a comment)::

    <complex> -> <complex> ; k=<rate>
    <complex> <-> <complex> ; kf=<rate>, kr=<rate>

A complex is a ``+``-separated list of terms ``[<int>]<species>``
(``2A + C``), or ``0`` for the empty complex.  Species names match
``[A-Za-z][A-Za-z0-9_]*`` and are indexed in order of first appearance.
A reversible arrow expands into two directed reactions.

This module is exact and imports no numpy: a network's compiled numeric
form belongs to ``dynamics``, which ``ReactionNetwork.numeric`` imports on
first use, so parsing, analysis and certification never load it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .structure import StructureReport, _build_report

if TYPE_CHECKING:
    from .dynamics import NumericForm

MAX_COEFF = 2**31 - 1
_COEFF_DIGITS = len(str(MAX_COEFF))

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
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
    """A named species; its index is its position in ``ReactionNetwork.species``."""

    name: str

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid species name {self.name!r}")


@dataclass(frozen=True)
class Complex:
    """Multiset of species, stored as sorted (index, multiplicity) pairs.

    Multiplicities are strictly positive; the empty complex is ``Complex(())``.
    Complexes key the dictionaries and sets that index a network, so the
    hash of ``terms`` is computed once, here, not on every lookup.
    ``indices``, the species indices as a frozenset, is recorded in the one
    pass that checks the terms, which raises at the first faulty term.
    """

    terms: tuple[tuple[int, int], ...]
    indices: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indices = [-1]  # below every valid index, so the first test needs no branch
        for i, k in self.terms:
            if i <= indices[-1]:
                if i < 0:
                    raise ValueError("negative species index")
                raise ValueError("complex terms must be sorted by species index, without repeats")
            if not 0 < k <= MAX_COEFF:
                raise ValueError(f"multiplicity {k} out of range")
            indices.append(i)
        object.__setattr__(self, "indices", frozenset(indices[1:]))
        object.__setattr__(self, "_hash", hash(self.terms))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_empty(self) -> bool:
        return not self.terms

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
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be a positive finite number, got {self.rate}")


@dataclass(frozen=True)
class ReactionNetwork:
    """Species and directed reactions, validated on construction.

    The walk over the reactions that checks them also builds the index
    tables, as plain attributes: ``species_names``; ``complexes``, every
    source and product complex once, in first-appearance order; and
    ``complex_index``, each complex's position in ``complexes``.  The
    compiled numeric form (``numeric``, built by ``dynamics.numeric_form``)
    and the exact structure report (``structure``) are built on first use
    and kept on the object.
    """

    species: tuple[Species, ...]
    reactions: tuple[Reaction, ...]
    species_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    complexes: tuple[Complex, ...] = field(init=False, repr=False, compare=False)
    complex_index: dict[Complex, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(s.name for s in self.species)
        if len(set(names)) != len(names):
            raise ValueError("duplicate species names")
        if not self.reactions:
            raise ValueError("network must contain at least one reaction")
        pairs: set[tuple[Complex, Complex]] = set()
        index: dict[Complex, int] = {}
        for r in self.reactions:
            pairs.add((r.source, r.product))
            index.setdefault(r.source, len(index))
            index.setdefault(r.product, len(index))
        if len(pairs) != len(self.reactions):
            raise ValueError("duplicate reaction")
        used = frozenset().union(*(c.indices for c in index))
        if used != set(range(len(self.species))):
            if max(used, default=-1) >= len(self.species):
                raise ValueError("complex references unknown species index")
            raise ValueError("every species must appear in at least one complex")
        object.__setattr__(self, "species_names", names)
        object.__setattr__(self, "complexes", tuple(index))
        object.__setattr__(self, "complex_index", index)

    @property
    def num_species(self) -> int:
        return len(self.species)

    @cached_property
    def numeric(self) -> NumericForm:
        """The network's compiled numeric form, built once per object and freed with it."""
        from .dynamics import numeric_form

        return numeric_form(self)

    @cached_property
    def structure(self) -> StructureReport:
        """The exact structure report, built once per object and freed with it."""
        return _build_report(self)


def _coefficient(text: str, line_no: int, col: int) -> int:
    """The value of a coefficient's digits, refused above ``MAX_COEFF``.

    ``int`` refuses more than 4300 digits with a plain ``ValueError``, so a
    long coefficient is refused first by its count of significant digits,
    which the message gives instead of the digits.  ``\\d`` matches the
    decimal digits of any script, so each digit is read by value before the
    leading zeros go.
    """
    if len(text) > _COEFF_DIGITS:
        text = "".join(str(int(c)) for c in text).lstrip("0") or "0"
        if len(text) > _COEFF_DIGITS:
            message = f"stoichiometric coefficient of {len(text)} digits exceeds 32-bit range"
            raise ParseError(message, line_no, col)
    value = int(text)
    if value > MAX_COEFF:
        raise ParseError(f"stoichiometric coefficient {value} exceeds 32-bit range", line_no, col)
    return value


def _parse_complex(text: str, line_no: int, col_base: int, index_of: dict[str, int]) -> Complex:
    """The complex ``text`` denotes; new species enter ``index_of`` in order of first appearance."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("missing complex expression", line_no, col_base + 1)
    if stripped == "0":
        return Complex(())
    coeffs: dict[int, int] = {}
    offset = 0
    for part in text.split("+"):
        col = col_base + offset + (len(part) - len(part.lstrip()))
        m = _TERM_RE.match(part)
        if not m:
            raise ParseError(f"unrecognized token {part.strip()!r} in complex", line_no, col + 1)
        coeff_text, name = m.group(1), m.group(2)
        coeff = _coefficient(coeff_text, line_no, col + 1) if coeff_text else 1
        if coeff == 0:
            raise ParseError("zero stoichiometric coefficient", line_no, col + 1)
        idx = index_of.setdefault(name, len(index_of))
        coeffs[idx] = coeffs.get(idx, 0) + coeff
        if coeffs[idx] > MAX_COEFF:
            message = f"coefficients of {name} sum to {coeffs[idx]}, which exceeds 32-bit range"
            raise ParseError(message, line_no, col + 1)
        offset += len(part) + 1
    return Complex(tuple(sorted(coeffs.items())))


def _parse_rate(text: str, line_no: int, col_base: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"malformed rate constant {text!r}", line_no, col_base) from None
    if not 0 < value < math.inf:
        raise ParseError(
            f"rate must be positive and finite, got {text}, which parses to {value!r}",
            line_no,
            col_base,
        )
    return value


def parse_network(text: str) -> ReactionNetwork:
    """Parse network text into a validated :class:`ReactionNetwork`.

    Each distinct complex text, stripped, is parsed once and then looked up.
    A failed parse raises and is never stored, so every error keeps its
    position.
    """
    index_of: dict[str, int] = {}
    parsed: dict[str, Complex] = {}
    reactions: list[Reaction] = []
    seen_pairs: dict[tuple[Complex, Complex], int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if not line or line.isspace():
            continue
        head, semi, rates = line.partition(";")
        if not semi:
            raise ParseError("missing ';' before rate constants", line_no, len(line.rstrip()) + 1)
        rate_col = len(head) + 2
        reversible = "<->" in head
        arrow = "<->" if reversible else "->"
        lhs_text, found, rhs_text = head.partition(arrow)
        if not found:
            raise ParseError("missing reaction arrow '->' or '<->'", line_no, 1)
        rhs_col = len(lhs_text) + len(arrow)
        # Each arrow, '->' or '<->', holds one '->', so a line has a second
        # arrow of either kind exactly when a second '->' follows the first.
        if "->" in rhs_text or reversible and "->" in lhs_text:
            second = head.find("->", head.find("->") + 2)
            col = second if head[second - 1] == "<" else second + 1
            raise ParseError("more than one reaction arrow on a line", line_no, col)
        lhs_key, rhs_key = lhs_text.strip(), rhs_text.strip()
        source = parsed.get(lhs_key)
        if source is None:
            source = parsed[lhs_key] = _parse_complex(lhs_text, line_no, 0, index_of)
        product = parsed.get(rhs_key)
        if product is None:
            product = parsed[rhs_key] = _parse_complex(rhs_text, line_no, rhs_col, index_of)
        if source == product:
            raise ParseError("reaction source and product complexes are identical", line_no, 1)

        pairs: list[tuple[Complex, Complex, float]]
        if reversible:
            m = _RATE_TWOWAY_RE.match(rates)
            if not m:
                message = "reversible reaction needs 'kf=<rate>, kr=<rate>'"
                raise ParseError(message, line_no, rate_col)
            kf = _parse_rate(m.group(1), line_no, rate_col)
            kr = _parse_rate(m.group(2), line_no, rate_col)
            pairs = [(source, product, kf), (product, source, kr)]
        else:
            m = _RATE_ONEWAY_RE.match(rates)
            if not m:
                raise ParseError("reaction needs 'k=<rate>'", line_no, rate_col)
            pairs = [(source, product, _parse_rate(m.group(1), line_no, rate_col))]

        for src, prod, rate in pairs:
            # The two directions of one line differ, so only an earlier line can repeat a pair.
            first = seen_pairs.setdefault((src, prod), line_no)
            if first != line_no:
                raise ParseError(f"duplicate reaction (already given on line {first})", line_no, 1)
            reactions.append(Reaction(src, prod, rate))

    if not reactions:
        raise ParseError("no reactions found", max(1, text.count("\n") + 1))
    species = tuple(Species(name) for name in index_of)
    return ReactionNetwork(species, tuple(reactions))


def parse_network_file(path) -> ReactionNetwork:
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading byte-order mark
        return parse_network(fh.read())
