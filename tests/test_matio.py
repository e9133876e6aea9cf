from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from hypermod import (
    Matroid,
    ParseError,
    delete,
    parse_matroid,
    parse_matroid_document,
    parse_points,
    pg3,
    pg3_points,
    matroid_from_points,
    profile,
    serialize_matroid,
    serialize_points,
    uniform,
    vamos,
    verify_flat_axioms,
)

U23_DOC = """\
matroid u23
ground 3
rank 2
flat 0:
flat 1: 0
flat 1: 1
flat 1: 2
flat 2: 0 1 2
"""


def test_parse_u23():
    doc = parse_matroid_document(U23_DOC)
    assert doc.name == "u23"
    assert doc.matroid == uniform(2, 3)


def test_serialize_u23():
    assert serialize_matroid(uniform(2, 3), name="u23") == U23_DOC


def test_roundtrip_fixtures(pg32, del32, vamos_m, two_cover):
    for M in (pg32, del32, vamos_m, two_cover, uniform(3, 4)):
        text = serialize_matroid(M)
        again = parse_matroid(text)
        assert again == M
        assert serialize_matroid(again) == text


def test_names_that_would_not_parse_back_are_rejected(pg32):
    cfg = pg3_points(2)
    for bad in ("", "a b", "x#y", "tab\there", "line\nbreak"):
        with pytest.raises(ValueError, match="one token"):
            serialize_matroid(pg32, name=bad)
        with pytest.raises(ValueError, match="one token"):
            serialize_points(cfg, name=bad)
    for good in ("pg32_minus0", "PG(3,2)\\{0}", "x-y.z"):
        assert parse_matroid_document(serialize_matroid(pg32, name=good)).name == good
        assert parse_points(serialize_points(cfg, name=good)).name == good


def test_serialize_deterministic(pg32):
    from hypermod import pg3

    text = serialize_matroid(pg32)
    assert serialize_matroid(pg3(2)) == text  # fresh construction, same bytes
    assert text.count("flat") == 67
    assert parse_matroid(text) == pg32


def test_comments_and_blanks():
    text = "# a comment\n\nmatroid m\nground 2\nrank 1\nflat 0:  # inline\nflat 1: 0 1\n"
    M = parse_matroid(text)
    assert M.ground_size == 2 and M.rank == 1


def test_serialize_of_parse_canonicalizes():
    scrambled = (
        "# scrambled order, noise\n"
        "matroid u23\n"
        "ground 3\n"
        "rank 2\n"
        "flat 1:   2\n"
        "flat 2: 2 0 1\n"
        "flat 1: 0\n\n"
        "flat 0:\n"
        "flat 1: 1  # trailing comment\n"
    )
    doc = parse_matroid_document(scrambled)
    assert serialize_matroid(doc.matroid, name=doc.name) == U23_DOC
    # and canonicalization is idempotent
    again = parse_matroid_document(U23_DOC)
    assert serialize_matroid(again.matroid, name=again.name) == U23_DOC


def test_parse_errors():
    with pytest.raises(ParseError, match="missing 'matroid'"):
        parse_matroid("")
    with pytest.raises(ParseError, match="expected 'ground"):
        parse_matroid("matroid m\nrank 1\n")
    with pytest.raises(ParseError, match="missing rank-2 flat"):
        parse_matroid("matroid m\nground 2\nrank 2\nflat 0:\nflat 1: 0\n")
    with pytest.raises(ParseError, match="grade 3 out of range"):
        parse_matroid("matroid m\nground 2\nrank 1\nflat 3: 0\nflat 1: 0 1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_matroid("matroid m\nground 2\nrank 1\nflat 0:\nflat 1: 0 5\nflat 1: 0 1\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_matroid("matroid m\nground 2\nrank 1\nnonsense here\nflat 1: 0 1\n")


def test_huge_header_values_fail_before_any_allocation():
    # Either header would size a list or a set of a billion entries if it
    # were trusted before the flat lines confirm it.
    documents = {
        "matroid m\nground 1000000000\nrank 1\nflat 0:\nflat 1: 0 1\n": "missing rank-1 flat",
        "matroid m\nground 2\nrank 1000000000\nflat 0:\nflat 1: 0 1\n": "exceeds the 2 flats",
    }
    for text, message in documents.items():
        start = time.perf_counter()
        with pytest.raises(ParseError, match=message):
            parse_matroid(text, verify=False)
        assert time.perf_counter() - start < 1.0


def test_parse_verifies_axioms_by_default(pg32):
    grades = [list(g) for g in pg32.flats_by_rank]
    grades[2].pop(0)
    broken = serialize_matroid(Matroid(15, grades))
    with pytest.raises(ParseError, match="flat axioms violated"):
        parse_matroid(broken)
    M = parse_matroid(broken, verify=False)
    assert len(M.flats_by_rank[2]) == 34


PTS_DOC = """\
points demo
field 2
dim 3
point: 1 0 0
point: 0 1 0
point: 1 1 0
"""


def test_points_roundtrip():
    cfg = parse_points(PTS_DOC)
    assert cfg.prime == 2 and cfg.dim == 3
    assert serialize_points(cfg, name="demo") == PTS_DOC
    M = matroid_from_points(cfg)
    assert profile(M).counts == (1, 3, 1)


def test_points_normalize_on_parse():
    cfg = parse_points("points p\nfield 5\ndim 2\npoint: 2 4\n")
    assert cfg.points == ((1, 2),)


def test_points_errors():
    with pytest.raises(ParseError, match="not prime"):
        parse_points("points p\nfield 6\ndim 2\npoint: 1 0\n")
    with pytest.raises(ParseError, match="zero vector"):
        parse_points("points p\nfield 2\ndim 2\npoint: 0 0\n")
    with pytest.raises(ParseError, match="arity"):
        parse_points("points p\nfield 2\ndim 3\npoint: 1 0\n")


def test_points_field_near_1e18_is_decided_promptly():
    start = time.perf_counter()
    cfg = parse_points(f"points p\nfield {10**18 - 11}\ndim 2\npoint: 3 5\n")
    assert cfg.prime == 10**18 - 11
    with pytest.raises(ParseError, match="not prime"):
        parse_points(f"points p\nfield {999999937 * 999999929}\ndim 2\npoint: 3 5\n")
    with pytest.raises(ParseError, match="only decided below"):
        parse_points(f"points p\nfield {10**25 + 13}\ndim 2\npoint: 3 5\n")
    assert time.perf_counter() - start < 1.0


def test_pg32_points_roundtrip():
    cfg = pg3_points(2)
    text = serialize_points(cfg)
    assert parse_points(text).points == cfg.points
    assert serialize_points(parse_points(text), name="pg3_2") == text


# -- fuzz guard: a mutated document parses cleanly or is a ParseError --------

FUZZ_BOUND_S = 2.0
_FUZZ_BYTES = st.sampled_from(list(b"0123456789 \n:-#")) | st.integers(0, 255)


@st.composite
def _mutated(draw, texts):
    data = bytearray(draw(st.sampled_from(texts)).encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            data.insert(at, draw(_FUZZ_BYTES))
        elif at < len(data):
            if op == "replace":
                data[at] = draw(_FUZZ_BYTES)
            else:
                del data[at]
    return bytes(data).decode("latin-1")


_MAT_TEXTS = [
    serialize_matroid(M, name=name)
    for name, M in (
        ("pg32", pg3(2)),
        ("pg32_minus0", delete(pg3(2), {0})),
        ("vamos", vamos()),
        ("u35", uniform(3, 5)),
        ("u02", uniform(0, 2)),
    )
]
_PTS_TEXTS = [serialize_points(pg3_points(q)) for q in (2, 3)]


@settings(max_examples=300, deadline=None)
@given(text=_mutated(_MAT_TEXTS))
def test_mutated_mat_parses_to_a_lattice_or_is_a_parse_error(text):
    start = time.perf_counter()
    try:
        M = parse_matroid(text)
    except ParseError:
        pass
    else:
        assert verify_flat_axioms(M).passed
    assert time.perf_counter() - start < FUZZ_BOUND_S


@settings(max_examples=150, deadline=None)
@given(text=_mutated(_PTS_TEXTS))
def test_mutated_pts_parses_or_is_a_parse_error(text):
    start = time.perf_counter()
    try:
        parse_points(text)
    except ParseError:
        pass
    assert time.perf_counter() - start < FUZZ_BOUND_S
