import pathlib

import pytest

from crncert import check_discrete, parse_network_file

NETWORKS = pathlib.Path(__file__).resolve().parent.parent / "networks"


@pytest.fixture(scope="session")
def ex1():
    return parse_network_file(NETWORKS / "ex1.crn")


@pytest.fixture(scope="session")
def ex2():
    return parse_network_file(NETWORKS / "ex2.crn")


@pytest.fixture(scope="session")
def ex3():
    return parse_network_file(NETWORKS / "ex3.crn")


def species_set(net, *names):
    index = {s.name: s.index for s in net.species}
    return frozenset(index[n] for n in names)


def vec_by_name(net, mapping):
    """Dense tuple in the network's species order from a name -> value dict."""
    return tuple(mapping.get(s.name, 0) for s in net.species)


def face_kernel(basis, members):
    """Canonical basis of {z in S : z_W = 0}, read off ``check_discrete``.

    Each witness is the first row of that basis and the later rows are zero
    at its pivot, so adding the pivot to W leaves exactly the later rows.
    """
    w, kernel = set(members), []
    while True:
        discrete, z = check_discrete(basis, w)
        if discrete:
            return tuple(kernel)
        kernel.append(z)
        w.add(next(i for i, v in enumerate(z) if v))


def names_of(net, members):
    return frozenset(net.species_names[i] for i in members)


# k at which the doubling network below exceeds siphons.FIXPOINT_BUDGET:
# 4096 minimal sets of 24 species each.
OVER_BUDGET_K = 12


def doubling_siphons_text(k):
    """``Z_i -> X_i``, ``Z_i -> Y_i``, ``X_i + Y_i -> Z_{i+1 mod k}`` for i < k.

    Its minimal semi-locking sets are all the Z_i plus one of X_i, Y_i for
    every i: 2^k sets on 3k species, so enumerating them takes exponential
    work however the search prunes.
    """
    return "\n".join(
        f"Z{i} -> X{i} ; k=1\nZ{i} -> Y{i} ; k=1\nX{i} + Y{i} -> Z{(i + 1) % k} ; k=1"
        for i in range(k)
    )
