import hashlib
import importlib
import json
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from crncert import (
    FaceStatus,
    OverallStatus,
    RationalBasis,
    ReactionNetwork,
    certify,
    check_discrete,
    check_empty_all_classes,
    minimal_semi_locking_sets,
    parse_network,
    structure_report,
)
from crncert import ratlin
from crncert.certify import _face_verdict
from crncert.cli import SCHEMA, main
from crncert.ratlin import canonical_basis

from conftest import (
    OVER_BUDGET_K,
    all_semi_locking_sets,
    cycle_union,
    dot,
    doubling_siphons_text,
    face_kernel,
    names_of,
    ring_text,
    species_set,
    two_ring_text,
    vec_by_name,
    verdict_for,
)
from randomnet import random_cycle_network, random_network


def test_check_discrete_golden(ex1, ex2):
    basis = structure_report(ex1).s_basis
    ok, witness = check_discrete(basis, species_set(ex1, "A", "B", "E"))
    assert ok and witness is None
    ok, _ = check_discrete(basis, species_set(ex1, "A", "C", "E"))
    assert ok
    ok, witness = check_discrete(basis, species_set(ex1, "C", "D", "E"))
    assert not ok
    assert witness == vec_by_name(ex1, {"A": 2, "B": -1})
    ok, _ = check_discrete(structure_report(ex2).s_basis, species_set(ex2, "A", "B"))
    assert ok


def test_face_kernel_golden(ex1):
    basis = structure_report(ex1).s_basis
    kernel = face_kernel(basis, species_set(ex1, "C", "D", "E"))
    assert kernel == (vec_by_name(ex1, {"A": 2, "B": -1}),)
    assert face_kernel(basis, species_set(ex1, "A", "B", "E")) == ()


@pytest.mark.parametrize("check", [check_discrete, check_empty_all_classes])
@pytest.mark.parametrize("members", [set(), {-1}, {0, 2}, {5}])
def test_face_checks_reject_a_bad_species_set(check, members):
    # W must be a nonempty set of species: no index is wrapped or dropped
    basis = structure_report(parse_network("A <-> B ; kf=1, kr=1")).s_basis
    with pytest.raises(ValueError, match="species set"):
        check(basis, members)


def test_check_empty_golden(ex1, ex2):
    basis1 = structure_report(ex1).s_basis
    w3 = species_set(ex1, "C", "D", "E")
    empty, separating = check_empty_all_classes(basis1, w3)
    assert empty
    # separating witness: nonnegative, supported on W, orthogonal to the span
    assert all(v >= 0 for v in separating) and any(separating)
    for i, v in enumerate(separating):
        if i not in w3:
            assert v == 0
    for b in basis1.vectors:
        assert dot(separating, b) == Fraction(0)

    basis2 = structure_report(ex2).s_basis
    w1 = species_set(ex2, "A", "B")
    empty, feasible = check_empty_all_classes(basis2, w1)
    assert not empty
    for i in w1:
        assert feasible[i] < 0
    # the witness must lie in the span
    assert canonical_basis(list(basis2.vectors) + [feasible]) == basis2.vectors


def test_check_empty_trivial_two_species():
    net = parse_network("A <-> B ; kf=1, kr=1")
    basis = structure_report(net).s_basis
    empty, separating = check_empty_all_classes(basis, frozenset({0, 1}))
    assert empty
    assert separating == (1, 1)


def test_check_empty_on_zero_span_reports_a_witness():
    # with S = {0} nothing moves, and any W gets the all-ones multiplier on W
    empty, separating = check_empty_all_classes(RationalBasis(dimension=3, vectors=()), {0, 2})
    assert empty
    assert separating == (1, 0, 1)


@pytest.mark.parametrize("farkas", [[-1, 1], [1, 0]])
def test_check_empty_rejects_unverified_separating_witness(monkeypatch, farkas):
    # a negative or non-orthogonal dual from the LP is refused with a typed error
    basis = structure_report(parse_network("A <-> B ; kf=1, kr=1")).s_basis
    monkeypatch.setattr(ratlin, "solve_le", lambda A, b: (None, farkas))
    with pytest.raises(ArithmeticError, match="separating witness"):
        check_empty_all_classes(basis, frozenset({0, 1}))


@pytest.mark.parametrize("row", [(1, -1, 1, -1), (0, 0, 0, 0)])
def test_check_discrete_rejects_unverified_kernel_witness(monkeypatch, row):
    # S = span{(1,-1,0,0), (0,0,1,-1)}; a row with its pivot past the W = {A, B}
    # block must be nonzero and zero on W, and these rows are not
    basis = structure_report(parse_network("A <-> B ; kf=1, kr=1\nC <-> D ; kf=1, kr=1")).s_basis
    monkeypatch.setattr(ratlin, "rref", lambda rows: ([row], [2]))
    with pytest.raises(ArithmeticError, match="kernel witness"):
        check_discrete(basis, frozenset({0, 1}))


@pytest.mark.parametrize("point", [([1], 2), ([0], 1)])
def test_check_empty_rejects_unverified_feasible_witness(monkeypatch, point):
    # s = alpha * (1, -1) is strictly negative on W = {A} only for alpha < 0
    basis = structure_report(parse_network("A <-> B ; kf=1, kr=1")).s_basis
    monkeypatch.setattr(ratlin, "solve_le", lambda A, b: (point, None))
    with pytest.raises(ArithmeticError, match="feasible witness"):
        check_empty_all_classes(basis, frozenset({0}))


def test_certificates_golden(ex1, ex2, ex3):
    cert1 = certify(ex1)
    assert cert1.overall is OverallStatus.GLOBALLY_STABLE
    assert verdict_for(cert1, species_set(ex1, "A", "B", "E")).status is FaceStatus.DISCRETE
    assert verdict_for(cert1, species_set(ex1, "A", "C", "E")).status is FaceStatus.DISCRETE
    w3 = verdict_for(cert1, species_set(ex1, "C", "D", "E"))
    assert w3.status is FaceStatus.EMPTY_ALL_CLASSES
    assert w3.separating_witness is not None

    cert2 = certify(ex2)
    assert cert2.overall is OverallStatus.GLOBALLY_STABLE
    for pair in (("A", "B"), ("A", "C")):
        assert verdict_for(cert2, species_set(ex2, *pair)).status is FaceStatus.DISCRETE

    cert3 = certify(ex3)
    assert cert3.overall is OverallStatus.GLOBALLY_STABLE
    assert verdict_for(cert3, species_set(ex3, "A", "B")).status is FaceStatus.DISCRETE


def test_inconclusive_face_reports_both_witnesses():
    # autocatalytic C <-> 2C next to A + B <-> 0: weakly reversible and
    # deficiency zero, but the face {C=0} holds a whole line of each class
    net = parse_network("A + B <-> 0 ; kf=1, kr=1\nC <-> 2C ; kf=1, kr=1")
    cert = certify(net)
    assert cert.structure.deficiency == 0
    assert cert.structure.weakly_reversible
    assert cert.overall is OverallStatus.NOT_CERTIFIED
    verdict = verdict_for(cert, species_set(net, "C"))
    assert verdict.status is FaceStatus.INCONCLUSIVE
    assert verdict.kernel_witness == vec_by_name(net, {"A": 1, "B": 1})
    assert verdict.feasible_witness[net.species.index("C")] < 0
    assert any("face {C}" in r for r in cert.reasons)
    doc = cert.to_json_dict()
    inconclusive = [v for v in doc["verdicts"] if v["status"] == "INCONCLUSIVE"]
    assert {"kernel", "feasible"} <= set(inconclusive[0]["witness"])


@given(st.integers(0, 10_000), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_face_verdicts_on_several_linkage_classes_match_sympy_rank(seed, shared, with_empty):
    # DISCRETE is decided by the rank of S on the W columns alone; an
    # INCONCLUSIVE face still carries check_discrete's kernel witness.
    net, _ = cycle_union(np.random.default_rng(seed), shared, with_empty)
    basis = structure_report(net).s_basis
    for w in minimal_semi_locking_sets(net).minimal_sets:
        verdict = _face_verdict(basis, w)
        rank_on_w = sympy.Matrix([[v[j] for j in sorted(w)] for v in basis.vectors]).rank()
        assert (verdict.status is FaceStatus.DISCRETE) == (rank_on_w == len(basis))
        if verdict.status is FaceStatus.INCONCLUSIVE:
            assert verdict.kernel_witness == check_discrete(basis, w)[1] is not None
        else:
            assert verdict.kernel_witness is None


def test_full_elimination_runs_only_for_inconclusive_faces(monkeypatch, ex1, ex2, ex3):
    # A catalog face is validated only by the public checks it reaches: the
    # emptiness LP for an EMPTY face, that and the full elimination for an
    # INCONCLUSIVE one, and neither for a DISCRETE face.
    module = importlib.import_module("crncert.certify")
    face_columns = module._face_columns
    calls = []
    validated = []

    def counted(basis, members):
        calls.append(members)
        return check_discrete(basis, members)

    def counted_columns(basis, members):
        validated.append(members)
        return face_columns(basis, members)

    monkeypatch.setattr(module, "check_discrete", counted)
    monkeypatch.setattr(module, "_face_columns", counted_columns)
    nets = [ex1, ex2, ex3]
    for seed in range(40):
        nets.append(cycle_union(np.random.default_rng(seed), seed % 2 == 0, seed % 3 == 0)[0])
    per_status = {FaceStatus.DISCRETE: 0, FaceStatus.EMPTY_ALL_CLASSES: 1, FaceStatus.INCONCLUSIVE: 2}
    verdicts = [v for net in nets for v in certify(net).verdicts]
    assert {v.status for v in verdicts} == set(FaceStatus)
    assert calls == [v.species for v in verdicts if v.status is FaceStatus.INCONCLUSIVE]
    assert validated == [v.species for v in verdicts for _ in range(per_status[v.status])]


def test_face_verdict_refuses_a_rank_that_the_full_elimination_contradicts(monkeypatch):
    net = parse_network("A + B <-> 0 ; kf=1, kr=1\nC <-> 2C ; kf=1, kr=1")
    module = importlib.import_module("crncert.certify")
    monkeypatch.setattr(module, "check_discrete", lambda basis, members: (True, None))
    with pytest.raises(ArithmeticError, match="disagree"):
        _face_verdict(structure_report(net).s_basis, species_set(net, "C"))


def test_disjoint_siphons_get_one_verdict_each():
    # independent autocatalytic loops give 14 pairwise-disjoint one-species
    # siphons; their 2^14 - 1 unions need no verdict of their own
    lines = [f"C{i} <-> 2C{i} ; kf=1, kr=1" for i in range(14)]
    net = parse_network("\n".join(lines))
    cert = certify(net)
    assert [v.species for v in cert.verdicts] == list(cert.catalog.minimal_sets)
    assert len(cert.verdicts) == 14
    assert all(v.status is FaceStatus.INCONCLUSIVE for v in cert.verdicts)
    assert cert.overall is OverallStatus.NOT_CERTIFIED


@pytest.mark.parametrize(
    "text, discrete, empty",
    [(ring_text(13), 8192, 0), (two_ring_text(9), 9, 504)],
    ids=["ring-13", "two-ring-9"],
)
def test_ring_families_certify_within_the_siphon_budget(text, discrete, empty):
    # One face per minimal siphon: 2^13 of the ring, 513 of the two-ring.
    cert = certify(parse_network(text))
    statuses = [v.status for v in cert.verdicts]
    assert cert.overall is OverallStatus.GLOBALLY_STABLE
    assert len(statuses) == discrete + empty
    assert statuses.count(FaceStatus.DISCRETE) == discrete
    assert statuses.count(FaceStatus.EMPTY_ALL_CLASSES) == empty


def test_ring_over_the_siphon_budget_raises():
    with pytest.raises(ratlin.ExactBudgetError, match="fixpoint evaluations"):
        certify(parse_network(ring_text(16)))


def test_hypotheses_checked_before_enumeration(tmp_path, capsys):
    # 2^k minimal siphons exceed the enumeration budget, but the network is
    # not weakly reversible, so the verdict needs no siphon at all
    text = doubling_siphons_text(OVER_BUDGET_K)
    net = parse_network(text)
    with pytest.raises(ratlin.ExactBudgetError):
        minimal_semi_locking_sets(net)
    cert = certify(net)
    assert cert.overall is OverallStatus.NOT_CERTIFIED
    assert cert.catalog is None and cert.verdicts == ()
    assert "siphons" not in cert.to_json_dict()

    path = tmp_path / "doubling.crn"
    path.write_text(text + "\n")
    assert main(["certify", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "NOT_CERTIFIED" and "siphons" not in doc


def test_network_without_siphons_certifies_vacuously():
    # the empty complex produces A from nothing, so no set is semi-locking
    net = parse_network("0 <-> A ; kf=1, kr=1")
    cert = certify(net)
    assert cert.catalog.entries == ()
    assert cert.verdicts == ()
    assert cert.overall is OverallStatus.GLOBALLY_STABLE


def test_not_certified_without_weak_reversibility():
    cert = certify(parse_network("A -> B ; k=1"))
    assert cert.overall is OverallStatus.NOT_CERTIFIED
    assert any("weakly reversible" in r for r in cert.reasons)
    assert cert.catalog is None and cert.verdicts == ()


def test_not_certified_with_positive_deficiency():
    net = parse_network("A <-> B ; kf=1, kr=1\n2A -> 2B ; k=1")
    assert certify(net).structure.deficiency == 1
    cert = certify(net)
    assert cert.overall is OverallStatus.NOT_CERTIFIED
    assert any("deficiency is 1" in r for r in cert.reasons)
    # weakly reversible variant isolates the deficiency reason
    wr = parse_network("A <-> B ; kf=1, kr=1\n2A <-> 2B ; kf=1, kr=1")
    cert_wr = certify(wr)
    assert cert_wr.structure.deficiency == 1
    assert cert_wr.reasons == (
        "hypotheses of Deficiency Zero Theorem fail: deficiency is 1, not 0",
    )


def test_certificate_json(ex1):
    doc = certify(ex1).to_json_dict()
    assert doc["overall"] == "GLOBALLY_STABLE"
    assert {v["status"] for v in doc["verdicts"]} == {"DISCRETE", "EMPTY_ALL_CLASSES"}
    empty = [v for v in doc["verdicts"] if v["status"] == "EMPTY_ALL_CLASSES"]
    assert empty[0]["W"] == ["C", "D", "E"]
    assert "separating" in empty[0]["witness"]


def _permuted(net, perm, rnd):
    """Network with species indices relabeled by perm and reactions shuffled."""
    species = [None] * net.num_species
    for old, name in enumerate(net.species):
        species[perm[old]] = name

    def remap(c):
        return tuple(sorted((perm[i], k) for i, k in c))

    reactions = [(remap(s), remap(p), k) for s, p, k in net.reactions]
    rnd.shuffle(reactions)
    return ReactionNetwork(tuple(species), tuple(reactions))


@given(st.integers(0, 10_000), st.randoms())
@settings(max_examples=40, deadline=None)
def test_certify_invariant_under_relabeling(seed, rnd):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    perm = list(rng.permutation(net.num_species))
    perm = [int(p) for p in perm]
    permuted = _permuted(net, perm, rnd)

    def verdict_map(cert, source):
        return {
            names_of(source, v.species): v.status for v in cert.verdicts
        }

    c1, c2 = certify(net), certify(permuted)
    assert c1.overall == c2.overall
    assert verdict_map(c1, net) == verdict_map(c2, permuted)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_check_discrete_matches_sympy_and_svd_oracles(seed):
    net = random_network(np.random.default_rng(seed))
    basis = structure_report(net).s_basis
    for w in all_semi_locking_sets(net):
        rows = [[v[i] for v in basis.vectors] for i in sorted(w)]
        ok, witness = check_discrete(basis, w)
        if basis.vectors:
            null_dim = len(sympy.Matrix(rows).nullspace()) if rows else len(basis.vectors)
            assert ok == (null_dim == 0)
            svals = np.linalg.svd(np.array(rows, dtype=float), compute_uv=False) if rows else []
            float_rank = int(np.sum(np.asarray(svals) > 1e-9))
            assert ok == (float_rank == len(basis.vectors))
        if not ok:
            assert any(v != 0 for v in witness)
            for i in w:
                assert witness[i] == 0
            # witness is inside the span
            assert canonical_basis(list(basis.vectors) + [list(witness)]) == basis.vectors


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_check_empty_matches_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    basis = structure_report(net).s_basis
    siphons = all_semi_locking_sets(net)
    if not siphons or not basis.vectors:
        return
    mat = np.array(basis.vectors, dtype=float)
    coeffs = rng.uniform(-3, 3, size=(10_000, len(basis.vectors)))
    samples = coeffs @ mat
    for w in siphons:
        idx = sorted(w)
        empty, witness = check_empty_all_classes(basis, w)
        grid_hit = bool(np.any(np.all(samples[:, idx] < 0, axis=1)))
        if grid_hit:
            assert not empty
        if not empty:
            for i in idx:
                assert witness[i] < 0
        else:
            assert all(v >= 0 for v in witness) and any(witness)
            for b in basis.vectors:
                assert dot(witness, b) == Fraction(0)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_check_empty_matches_linprog_oracle(seed):
    from scipy.optimize import linprog

    net = random_network(np.random.default_rng(seed))
    basis = structure_report(net).s_basis
    if not basis.vectors:
        return
    for w in all_semi_locking_sets(net):
        idx = sorted(w)
        a_ub = np.array([[v[i] for v in basis.vectors] for i in idx], dtype=float)
        res = linprog(
            c=np.zeros(len(basis.vectors)),
            A_ub=a_ub,
            b_ub=-np.ones(len(idx)),
            bounds=[(None, None)] * len(basis.vectors),
            method="highs",
        )
        empty, _ = check_empty_all_classes(basis, w)
        assert empty == (not res.success)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_face_verdicts_transfer_to_supersets(seed):
    """A face verdict for W implies at least as strong a verdict for supersets.

    This is why verdicts on the minimal sets alone decide every
    semi-locking set: certify's overall verdict matches the one obtained
    from a verdict on every semi-locking face.
    """
    net = random_network(np.random.default_rng(seed))
    basis = structure_report(net).s_basis
    minimal = minimal_semi_locking_sets(net).minimal_sets
    every_face_passes = True
    for w in all_semi_locking_sets(net):
        status = _face_verdict(basis, w).status
        every_face_passes &= status is not FaceStatus.INCONCLUSIVE
        sub_statuses = {
            _face_verdict(basis, s).status for s in minimal if s <= w
        }
        if sub_statuses and FaceStatus.INCONCLUSIVE not in sub_statuses:
            assert status is not FaceStatus.INCONCLUSIVE

    cert = certify(net)
    report = cert.structure
    expected = (
        OverallStatus.GLOBALLY_STABLE
        if report.weakly_reversible and report.deficiency == 0 and every_face_passes
        else OverallStatus.NOT_CERTIFIED
    )
    assert cert.overall is expected


def test_an_empty_minimal_face_is_separated_by_its_one_law_at_the_first_basis(monkeypatch):
    """Every EMPTY witness of a minimal W is positive on all of W, zero off it.

    The support of a nonnegative conservation law is semi-locking, so by
    minimality the laws supported in W form one line, spanned by a law
    positive on W.  The LP's one bounded row then has only negative slack
    entries and no slack can enter: it decides the face without a pivot.
    The networks are those of ``scripts/cert_digest.py`` and both
    ``cycle_union`` pools.
    """
    rng = np.random.default_rng(100)
    empty = 0
    for draw in range(1000):
        if draw % 4 == 0:
            net = random_network(rng, max_species=8, max_reactions=10, allow_empty_complex=True)
        elif draw % 4 == 1:
            net = random_cycle_network(rng, max_species=8, max_complexes=7)
        else:
            net, _ = cycle_union(rng, draw % 4 == 2, draw % 8 == 3)
        cert = certify(net)
        for v in cert.verdicts:
            if v.status is FaceStatus.EMPTY_ALL_CLASSES:
                empty += 1
                y = v.separating_witness
                assert all((y[i] > 0) == (i in v.species) for i in range(len(y)))
                with monkeypatch.context() as patch:
                    patch.setattr(ratlin, "PIVOT_BUDGET", 0)
                    assert check_empty_all_classes(cert.structure.s_basis, v.species) == (True, y)
    assert empty > 200


# sha256 of each certificate's crn-cert/2 JSON, as `crn-cert certify` writes
# it.  The values were recorded with a structure report that eliminated the
# differences from each class's first complex, a siphon fixpoint that
# rescanned every reaction and a separating check over all m coordinates,
# so they pin the bytes across those three implementations.  Each network
# has more complexes than any network the committed digests cover.
SCALE_DIGESTS = {
    "chain-m120": (
        "\n".join(f"S{i} <-> S{i + 1} ; kf=1, kr=1" for i in range(119)),
        "6377a4359a84a24c3e381c066583878cca590f02fecccfab1d9db57f691aabfb",
    ),
    "pairs-p60": (
        "\n".join(f"A{i} <-> B{i} ; kf=1, kr=1" for i in range(60)),
        "a86c55a6b798434c7fe24d0aba41edd3a165d4525f47fca8b9cc4e85d5518b41",
    ),
    "enzyme-k30": (
        "\n".join(f"E + S{i} <-> C{i} ; kf=1, kr=1\nC{i} <-> E + P{i} ; kf=1, kr=1" for i in range(30)),
        "dfd395bea7e182e5c599fe72d09f8be197229e0f44236467134e71b1a15137a9",
    ),
}


@pytest.mark.parametrize("label", SCALE_DIGESTS)
def test_certificates_at_scale_are_byte_identical(label):
    text, digest = SCALE_DIGESTS[label]
    cert = certify(parse_network(text))
    doc = {"schema": SCHEMA, **cert.to_json_dict()}
    blob = (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()
    assert cert.overall is OverallStatus.GLOBALLY_STABLE
    assert hashlib.sha256(blob).hexdigest() == digest
