import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crncert import (
    Complex,
    ParseError,
    Reaction,
    ReactionNetwork,
    parse_network,
    parse_network_file,
)
from crncert.structure import _label

from conftest import reaction_vector, serialize_network


def test_minimal_network():
    net = parse_network("A -> B ; k=1")
    assert net.species == ("A", "B")
    assert len(net.reactions) == 1
    source, product, rate = net.reactions[0]
    assert source == ((0, 1),)
    assert product == ((1, 1),)
    assert rate == 1.0


def test_reversible_expands_to_two_reactions():
    net = parse_network("2A + C <-> A + D ; kf=1, kr=1")
    assert len(net.reactions) == 2
    (fwd_source, fwd_product, _), (rev_source, rev_product, _) = net.reactions
    assert fwd_source == rev_product
    assert fwd_product == rev_source


def test_three_complex_chain():
    net = parse_network("2A <-> A+B ; kf=1, kr=2\nA+B <-> B+C ; kf=3, kr=4")
    assert net.num_species == 3
    assert len(net.complexes) == 3
    assert len(net.reactions) == 4
    assert [rate for _, _, rate in net.reactions] == [1.0, 2.0, 3.0, 4.0]


def test_distinct_complex_counts(ex1, ex3):
    assert len(ex1.complexes) == 4
    assert len(ex3.complexes) == 4
    assert len(parse_network("A -> B ; k=1").complexes) == 2


def test_empty_complex():
    net = parse_network("0 <-> A ; kf=1, kr=1")
    assert net.num_species == 1
    empty, _, _ = net.reactions[0]
    assert not empty
    assert _label(empty, net.species) == "0"
    assert reaction_vector(net.reactions[0], 1) == (1,)


def test_comments_and_blank_lines():
    net = parse_network("# header\n\nA -> B ; k=2 # trailing\n")
    assert len(net.reactions) == 1
    _, _, rate = net.reactions[0]
    assert rate == 2.0


def test_a_file_with_a_byte_order_mark_and_crlf_lines_parses(tmp_path):
    # Windows editors write a UTF-8 BOM and CRLF line ends.
    text = "A <-> B ; kf=1, kr=1\nB + C -> 2A ; k=0.5\n"
    path = tmp_path / "bom.crn"
    path.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    assert parse_network_file(path) == parse_network(text)


def test_repeated_species_in_complex_sums():
    net = parse_network("A + A -> B ; k=1")
    source, _, _ = net.reactions[0]
    assert source == ((0, 2),)


def test_reaction_vector_examples():
    net = parse_network(
        "2A + C <-> A + D ; kf=1, kr=1\n"
        "2A + C <-> B + C ; kf=1, kr=1\n"
        "A + D <-> E ; kf=1, kr=1\n"
        "B + C <-> E ; kf=1, kr=1\n"
    )
    name = {n: i for i, n in enumerate(net.species)}
    m = net.num_species

    def dense(mapping):
        out = [0] * m
        for n, v in mapping.items():
            out[name[n]] = v
        return tuple(out)

    r0 = net.reactions[0]  # 2A + C -> A + D
    assert reaction_vector(r0, m) == dense({"A": -1, "C": -1, "D": 1})
    r6 = net.reactions[6]  # B + C -> E
    assert reaction_vector(r6, m) == dense({"B": -1, "C": -1, "E": 1})


def test_reaction_vector_trivial():
    net = parse_network("A -> B ; k=1")
    assert reaction_vector(net.reactions[0], 2) == (-1, 1)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("A -> B", "missing ';'"),
        ("A -> B ; k=0", "positive"),
        ("A -> B ; k=-2", "positive"),
        ("A -> B ; kf=1, kr=1", "k="),
        ("A <-> B ; k=1", "kf="),
        ("A $ B -> C ; k=1", "unrecognized token"),
        ("A -> A ; k=1", "identical"),
        ("A -> B ; k=1\nA -> B ; k=2", "duplicate"),
        ("A <-> B ; kf=1, kr=1\nB -> A ; k=2", "duplicate"),
        ("0A -> B ; k=1", "zero"),
        ("A -> ; k=1", "missing complex"),
        ("A -> B ; k=abc", "malformed rate constant 'abc'"),
        ("A -> B -> C ; k=1", "more than one reaction arrow"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_network(text)
    assert fragment in str(exc.value)
    assert exc.value.line >= 1


@pytest.mark.parametrize(
    "text, value",
    [("1e400", "inf"), ("1e-400", "0.0"), ("-2", "-2.0"), ("kf=1e400, kr=1", "inf")],
)
def test_rate_error_names_finiteness_and_the_parsed_value(text, value):
    # 1e400 overflows to inf and 1e-400 underflows to 0 when parsed.
    rates = text if "=" in text else f"k={text}"
    arrow = "<->" if "=" in text else "->"
    with pytest.raises(ParseError, match="rate must be positive and finite") as exc:
        parse_network(f"A {arrow} B ; {rates}")
    assert str(exc.value).endswith(f"which parses to {value}")


def test_a_repeated_species_is_summed_up_to_the_coefficient_range():
    net = parse_network("2147483646A + A -> B ; k=1")
    source, _, _ = net.reactions[0]
    assert source == ((0, 2147483647),)
    with pytest.raises(ParseError, match="coefficients of A sum to 2147483648,") as exc:
        parse_network("B -> C ; k=1\nD -> 2147483647A + A ; k=1")
    # The column of the term that pushes the sum past the range.
    assert (exc.value.line, exc.value.col) == (2, 20)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_network("A -> B ; k=1\nB -> !C ; k=1\n")
    assert exc.value.line == 2


def test_a_complex_written_twice_is_parsed_once():
    net = parse_network("A+B -> C ; k=1\nC ->  A + B ; k=2\nD -> A+B ; k=3")
    spaced = parse_network("A + B -> C ; k=1\nC -> A + B ; k=2\nD -> A + B ; k=3")
    assert net == spaced
    assert net.species == spaced.species == ("A", "B", "C", "D")
    assert len(net.complexes) == 3
    # The same stripped text gives the same object, whatever the spacing around it.
    (first_source, _, _), _, (_, third_product, _) = net.reactions
    assert third_product is first_source


@pytest.mark.parametrize(
    "bad, fragment, col",
    [("$C", "unrecognized token", 10), ("0C", "zero stoichiometric coefficient", 10)],
)
def test_a_malformed_complex_written_twice_reports_its_first_line(bad, fragment, col):
    text = f"A -> B ; k=1\nB -> A + {bad} ; k=1\nB -> A + {bad} ; k=2"
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_network(text)
    assert (exc.value.line, exc.value.col) == (2, col)


@pytest.mark.parametrize(
    "text, col",
    [
        ("A -> B -> C ; k=1", 8),
        ("A <-> B <-> C ; kf=1, kr=1", 9),
        ("A <-> B -> C ; kf=1, kr=1", 9),
        ("A -> B <-> C ; kf=1, kr=1", 8),
    ],
)
def test_a_second_arrow_is_reported_at_its_own_column(text, col):
    with pytest.raises(ParseError, match="more than one reaction arrow") as exc:
        parse_network(text)
    assert (exc.value.line, exc.value.col) == (1, col)


@pytest.mark.parametrize(
    "terms, fragment",
    [
        (((1, 1), (0, 1)), "sorted by species index, without repeats"),
        (((0, 1), (0, 2)), "sorted by species index, without repeats"),
        (((-1, 1),), "negative species index"),
        (((0, 1), (-2, 1)), "negative species index"),
        (((0, 0),), "multiplicity 0 out of range"),
        (((0, 2**31),), "multiplicity 2147483648 out of range"),
        (((0, 1), (1, -1)), "multiplicity -1 out of range"),
    ],
)
def test_complex_rejects_terms_naming_the_fault(terms, fragment):
    b = ((1, 1),)
    with pytest.raises(ValueError, match=fragment):
        ReactionNetwork(("A", "B"), ((terms, b, 1.0),))
    # The faulty complex only as a product: every complex the network holds is checked.
    with pytest.raises(ValueError, match=fragment):
        ReactionNetwork(("A", "B"), ((b, terms, 1.0),))


@pytest.mark.parametrize(
    "species, fragment",
    [
        (("A", "A"), "duplicate species names"),
        (("A",), "complex references unknown species index"),
    ],
)
def test_network_rejects_species_naming_the_fault(species, fragment):
    ab = (((0, 1),), ((1, 1),), 1.0)
    with pytest.raises(ValueError, match=fragment):
        ReactionNetwork(species, (ab,))


def test_network_invariants_enforced():
    a, b = "A", "B"
    ab = (((0, 1),), ((1, 1),), 1.0)
    with pytest.raises(ValueError):
        ReactionNetwork((a, b), ())  # no reactions
    with pytest.raises(ValueError):
        ReactionNetwork((a, b), (ab, ab))  # duplicate
    with pytest.raises(ValueError):
        ReactionNetwork((a, b, "C"), (ab,))  # C never appears


@pytest.mark.parametrize(
    "reaction, message",
    [
        ((((1, 1),), ((1, 1),), 1.0), "reaction source and product complexes are identical"),
        ((((1, 1),), ((0, 1),), 0.0), "rate must be a positive finite number, got 0.0"),
        ((((1, 1),), ((0, 1),), -1.0), "rate must be a positive finite number, got -1.0"),
        ((((1, 1),), ((0, 1),), math.inf), "rate must be a positive finite number, got inf"),
        ((((1, 1),), ((0, 1),), math.nan), "rate must be a positive finite number, got nan"),
    ],
    ids=["identical", "zero", "negative", "inf", "nan"],
)
def test_a_faulty_reaction_is_named_by_the_network(reaction, message):
    ab = (((0, 1),), ((1, 1),), 1.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ReactionNetwork(("A", "B"), (ab, reaction))
    # The species are checked before the reactions.
    with pytest.raises(ValueError, match="invalid species name"):
        ReactionNetwork(("A", "2B"), (ab, reaction))


def test_a_network_is_built_from_plain_tuples():
    net = ReactionNetwork(("A", "B"), ((((0, 1),), ((1, 1),), 1.0),))
    assert net == parse_network("A -> B ; k=1")
    source, _, _ = net.reactions[0]
    assert type(source) is tuple
    assert net.complexes == (((0, 1),), ((1, 1),))


def test_a_network_is_built_from_plain_reaction_triples():
    net = ReactionNetwork(("A", "B"), ((((0, 1),), ((1, 1),), 1.0),))
    assert net == parse_network("A -> B ; k=1")
    assert type(parse_network("A -> B ; k=1").reactions[0]) is tuple
    assert type(parse_network("2A + C -> B ; k=1").reactions[0]) is tuple
    assert Reaction == tuple[Complex, Complex, float]


def test_a_network_is_built_from_names():
    ab = (((0, 1),), ((1, 1),), 1.0)
    net = ReactionNetwork(("A", "B"), (ab,))
    assert net.species == ("A", "B")
    parsed = parse_network("A -> B ; k=1").species
    assert type(parsed) is tuple and all(type(name) is str for name in parsed)


@pytest.mark.parametrize("name", ["A\n", "A ", " A", "", "2A", "A-B", "A\r\n", 5, b"A"])
def test_species_rejects_a_name_the_parser_cannot_read(name):
    # "$" would also match before a final newline; the whole name must match
    ab = (((0, 1),), ((1, 1),), 1.0)
    with pytest.raises(ValueError, match="invalid species name"):
        ReactionNetwork((name, "B"), (ab,))


def _accepted(name):
    """Whether ``ReactionNetwork`` takes ``name`` as a species name."""
    try:
        ReactionNetwork((name,), ((((0, 1),), (), 1.0),))
    except ValueError:
        return False
    return True


@st.composite
def constructed_networks(draw):
    """Networks built through the constructors from every name they accept."""
    base = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)
    bases = draw(st.lists(base, min_size=1, max_size=4, unique=True))
    suffixes = st.sampled_from(["", "", "\n", " ", "\t"])
    species = [name for name in (b + draw(suffixes) for b in bases) if _accepted(name)] or ["A"]
    m = len(species)
    # A first cycle touches every species; more reactions may follow.
    cycle = [((i, draw(st.integers(1, 3))),) for i in range(m)]
    if m == 1:
        cycle.append(())
    pairs = [(cycle[j], cycle[(j + 1) % len(cycle)]) for j in range(len(cycle))]
    for _ in range(draw(st.integers(0, 3))):
        picked = draw(st.sets(st.integers(0, m - 1), max_size=m))
        source = tuple((i, draw(st.integers(1, 3))) for i in sorted(picked))
        product = draw(st.sampled_from(cycle))
        if source != product and (source, product) not in pairs:
            pairs.append((source, product))
    rates = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)
    return ReactionNetwork(tuple(species), tuple((s, p, draw(rates)) for s, p in pairs))


def _by_name(net):
    names = net.species

    def named(c):
        return frozenset((names[i], k) for i, k in c)

    return {(named(s), named(p), rate) for s, p, rate in net.reactions}


@given(constructed_networks())
@settings(max_examples=100)
def test_serialize_roundtrip_of_constructed_networks(net):
    # The parser numbers species by first appearance, so compare by name.
    again = parse_network(serialize_network(net))
    assert set(again.species) == set(net.species)
    assert _by_name(again) == _by_name(net)


@pytest.mark.parametrize("digits", ["9" * 11, "1" * 5000])
def test_an_overlong_coefficient_is_a_parse_error_at_its_term(digits):
    # int() refuses more than 4300 digits with a plain ValueError and no position
    message = f"coefficient of {len(digits)} digits exceeds 32-bit range"
    with pytest.raises(ParseError, match=message) as exc:
        parse_network(f"A -> B + {digits}C ; k=1")
    assert (exc.value.line, exc.value.col) == (1, 10)
    assert len(str(exc.value)) < 100


def test_leading_zeros_do_not_count_against_a_coefficient():
    net = parse_network(f"A -> {'0' * 5000}3B ; k=1")
    _, product, _ = net.reactions[0]
    assert product == ((1, 3),)
    with pytest.raises(ParseError, match="zero stoichiometric coefficient"):
        parse_network(f"A -> {'0' * 5000}B ; k=1")
    with pytest.raises(ParseError, match="coefficient 2147483648 exceeds 32-bit range"):
        parse_network(f"A -> {'0' * 5000}2147483648B ; k=1")


_names = st.sampled_from(["A", "B", "C", "D", "E_1", "x2"])


@st.composite
def _complexes(draw):
    size = draw(st.integers(0, 3))
    if size == 0:
        return {}
    picked = draw(st.sets(_names, min_size=1, max_size=size))
    return {n: draw(st.integers(1, 3)) for n in picked}


@st.composite
def network_texts(draw):
    n_lines = draw(st.integers(1, 5))
    lines = []
    seen = set()
    for _ in range(n_lines):
        src = draw(_complexes())
        prod = draw(_complexes())
        if src == prod or (tuple(sorted(src.items())), tuple(sorted(prod.items()))) in seen:
            continue
        reversible = draw(st.booleans())
        seen.add((tuple(sorted(src.items())), tuple(sorted(prod.items()))))
        if reversible:
            if (tuple(sorted(prod.items())), tuple(sorted(src.items()))) in seen:
                continue
            seen.add((tuple(sorted(prod.items())), tuple(sorted(src.items()))))

        def fmt(c):
            if not c:
                return "0"
            return " + ".join(f"{v}{k}" if v > 1 else k for k, v in sorted(c.items()))

        rate = draw(st.floats(min_value=0.001, max_value=100.0, allow_nan=False))
        if reversible:
            rate2 = draw(st.floats(min_value=0.001, max_value=100.0, allow_nan=False))
            lines.append(f"{fmt(src)} <-> {fmt(prod)} ; kf={rate!r}, kr={rate2!r}")
        else:
            lines.append(f"{fmt(src)} -> {fmt(prod)} ; k={rate!r}")
    if not lines:
        lines = ["A -> B ; k=1.0"]
    return "\n".join(lines) + "\n"


@given(network_texts())
@settings(max_examples=100)
def test_serialize_roundtrip(text):
    net = parse_network(text)
    again = parse_network(serialize_network(net))
    assert again == net


@given(network_texts())
@settings(max_examples=50)
def test_reaction_vectors_nonzero(text):
    net = parse_network(text)
    for r in net.reactions:
        assert any(v != 0 for v in reaction_vector(r, net.num_species))


_fragments = st.sampled_from(
    ["A", "B", "2A", "->", "<->", ";", "k=", "kf=", "kr=", "+", "0", "1", ",",
     "k=1", "#x", " ", "\n", "\t", "999999999999", "A_", "e", "-", ".",
     "1e999", "nan", "inf"]
)


@given(st.lists(st.one_of(_fragments, st.text(max_size=3)), max_size=12))
@settings(max_examples=300)
def test_parser_never_raises_anything_but_parse_error(pieces):
    try:
        net = parse_network("".join(pieces))
    except ParseError:
        return
    assert isinstance(net, ReactionNetwork)


@given(network_texts(), st.randoms())
@settings(max_examples=50)
def test_distinct_complexes_stable_under_reordering(text, rnd):
    net = parse_network(text)
    shuffled = list(net.reactions)
    rnd.shuffle(shuffled)
    permuted = ReactionNetwork(net.species, tuple(shuffled))
    assert set(permuted.complexes) == set(net.complexes)
