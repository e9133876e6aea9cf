from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hypermod import (
    ExtensionResult,
    Matroid,
    PointConfig,
    delete,
    extend_once,
    hypermodularity_witness,
    matroid_from_points,
    pg3,
    total_modular_defect,
    uniform,
    vamos,
    verify_flat_axioms,
)
from oracles import reverified_extension


@pytest.fixture(scope="session")
def pg32():
    return pg3(2)


@pytest.fixture(scope="session")
def pg33():
    return pg3(3)


@pytest.fixture(scope="session")
def pg35():
    return pg3(5)


@pytest.fixture(scope="session")
def pg37():
    return pg3(7)


@pytest.fixture(scope="session")
def del32(pg32):
    return delete(pg32, {0})


@pytest.fixture(scope="session")
def del33a(pg33):
    return delete(pg33, {0})


@pytest.fixture(scope="session")
def del33ab(pg33):
    return delete(pg33, {0, 1})


@pytest.fixture(scope="session")
def vamos_m():
    return vamos()


@pytest.fixture(scope="session")
def two_cover():
    # Two three-point lines over GF(2) sharing exactly point 2 and jointly
    # covering the ground set: the classic rank-3 fixture whose shared
    # point is a degenerate flat.
    cfg = PointConfig(
        prime=2,
        dim=3,
        points=((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)),
        name="two_cover",
    )
    return matroid_from_points(cfg)


@pytest.fixture(scope="session")
def direct_sum_u12():
    # Two parallel classes side by side: {0,1} and {2,3}.
    return Matroid(4, [[frozenset()], [{0, 1}, {2, 3}], [{0, 1, 2, 3}]])


@pytest.fixture(scope="session")
def loop_fixture():
    # Rank 1 on three elements: 2 is a loop, 0 and 1 are parallel.
    return Matroid(3, [[{2}], [{0, 1, 2}]])


@pytest.fixture(scope="session")
def looped_u44():
    # U(4,4) plus a loop: rank 4, but not loopless.
    return Matroid(5, [[{4} | set(c) for c in itertools.combinations(range(4), k)] for k in range(5)])


@pytest.fixture(scope="session")
def rebuild():
    """``M`` built afresh from its flats, with nothing stored on it yet.

    Session fixtures keep what earlier tests stored on them, such as the
    flat report that ``verify_flat_axioms`` keeps, so a test that counts
    the work of a check runs it on a rebuilt matroid.
    """
    return lambda M: Matroid(M.ground_size, M.flats_by_rank)


def _assert_rows_of_the_constructor(N):
    """``N``'s flat order, masks, grades and relation rows are those the constructor builds.

    Returns the matroid the constructor built from ``N``'s flats.
    """
    fresh = Matroid(N.ground_size, N.flats_by_rank)
    assert N.flats_by_rank == fresh.flats_by_rank
    assert N._flat_list == fresh._flat_list
    assert N._grade_starts == fresh._grade_starts
    assert N._flat_masks == fresh._flat_masks
    assert N._index_of_mask == fresh._index_of_mask
    assert N._grade_of_index == fresh._grade_of_index
    assert N._all_flat_bits == fresh._all_flat_bits
    assert N._elem_flatbits == fresh._elem_flatbits
    assert N._sup_bits == fresh._sup_bits
    # No attribute is missing or extra (``_grade_starts`` is read above).
    assert vars(N).keys() == vars(fresh).keys()
    return fresh


@pytest.fixture(scope="session")
def constructor_rows():
    """Asserts that a matroid's rows are those the constructor builds from its flats."""
    return _assert_rows_of_the_constructor


def _outcome(step, M, ctx):
    try:
        return step(M, ctx)
    except Exception as error:
        return type(error), str(error)


@pytest.fixture(scope="session")
def check_local_step():
    """``extend_once`` against the re-verified oracle on one context.

    Both must return equal results or raise the same exception type
    with the same message.  On success, the extension's rows, built from
    its parent's, must be those the constructor builds from its flats, and
    the defect report seeded on it, its flat-axiom report and its
    hypermodularity witness must equal those of that fresh lattice.
    Returns what ``extend_once`` returned, or the ``(type, message)`` it raised.
    """

    def check(M, ctx):
        got = _outcome(extend_once, M, ctx)
        assert got == _outcome(reverified_extension, M, ctx)
        if isinstance(got, ExtensionResult):
            N = got.extended
            fresh = _assert_rows_of_the_constructor(N)
            seeded, scanned = N._cache["defect_report"], total_modular_defect(fresh)
            assert seeded.pair_defects == scanned.pair_defects
            assert seeded.disjoint_flags == scanned.disjoint_flags
            assert seeded.total == scanned.total
            assert verify_flat_axioms(N) == verify_flat_axioms(fresh)
            assert hypermodularity_witness(N) == hypermodularity_witness(fresh)
        return got

    return check
