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
from hypermod import core, matio

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


@pytest.mark.parametrize(
    "text, message",
    [
        ("matroid m\nground -1\nrank 1\n", "ground and rank must be nonnegative"),
        ("matroid m\nground 2\nrank -1\n", "ground and rank must be nonnegative"),
        ("matroid m\nground 1\nrank 1\nflat 1: 0\n", "missing the rank-0 flat"),
    ],
)
def test_parse_refusals_without_a_line(text, message):
    with pytest.raises(ParseError) as refused:
        parse_matroid(text)
    assert str(refused.value) == message and refused.value.line is None


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
    with pytest.raises(ParseError, match=r"\Aline 5: bad grade 'x'\Z"):
        parse_matroid("matroid m\nground 2\nrank 1\nflat 0:\nflat x: 0\nflat 1: 0 1\n")


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


def _rank2_document(n: int) -> str:
    """U(2,n): the bottom flat, n points and the top flat, n + 2 flats in all."""
    flats = ["flat 0:"] + [f"flat 1: {e}" for e in range(n)] + ["flat 2: " + " ".join(map(str, range(n)))]
    return "\n".join([f"matroid u2_{n}", f"ground {n}", "rank 2", *flats]) + "\n"


def test_the_flat_limit_admits_the_fixture_ladder_and_nothing_past_it(pg37):
    at_limit = parse_matroid(_rank2_document(core.FLAT_LIMIT - 2), verify=False)
    assert len(at_limit._flat_list) == core.FLAT_LIMIT == 5000
    with pytest.raises(ParseError, match="more than 5000 flats"):
        parse_matroid(_rank2_document(core.FLAT_LIMIT - 1), verify=False)
    # PG(3,7), the top of the ladder, has as many flats as every completion
    # of its deletions.
    assert len(pg37._flat_list) == 3652
    assert parse_matroid(serialize_matroid(pg37)) == pg37


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
    with pytest.raises(ParseError, match=r"\Adimension must be positive\Z"):
        parse_points("points p\nfield 2\ndim 0\n")


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
# A parsed point set of at most 40 points is also realized: its lattice
# passes the flat axioms, or realization refuses it with a ValueError.

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


@st.composite
def _mutated_coordinates(draw, texts):
    """1-4 digits of the coordinates replaced, or inserted next to a digit.

    The headers and every point's arity stay intact, so the text parses
    unless a point becomes the zero vector.
    """
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("point:")]))
        line = lines[i]
        at = draw(st.sampled_from([k for k, c in enumerate(line) if c.isdigit()]))
        digit = str(draw(st.integers(0, 9)))
        insert = draw(st.booleans())
        lines[i] = line[: at + insert] + digit + line[at + 1 :]
    return "\n".join(lines) + "\n"


def _assert_pts_parses_or_is_a_parse_error(text):
    start = time.perf_counter()
    try:
        cfg = parse_points(text)
    except ParseError:
        cfg = None
    if cfg is not None and len(cfg.points) <= 40:
        try:
            M = matroid_from_points(cfg)
        except ValueError:
            pass
        else:
            assert verify_flat_axioms(M).passed
    assert time.perf_counter() - start < FUZZ_BOUND_S


@settings(max_examples=150, deadline=None)
@given(text=_mutated(_PTS_TEXTS))
def test_mutated_pts_parses_or_is_a_parse_error(text):
    _assert_pts_parses_or_is_a_parse_error(text)


@settings(max_examples=60, deadline=None)
@given(text=_mutated_coordinates(_PTS_TEXTS))
def test_pts_with_mutated_coordinates_is_realized_or_a_parse_error(text):
    _assert_pts_parses_or_is_a_parse_error(text)


def test_a_ground_past_the_flat_limit_is_refused_before_any_matroid(monkeypatch):
    # F1 reads every 64-bit word of every cell's mask, so its cost grows
    # with the ground set as well as with the flats.
    def unreachable(*args, **kwargs):
        raise AssertionError("no matroid is built")

    monkeypatch.setattr(matio, "Matroid", unreachable)
    n = core.FLAT_LIMIT + 1
    text = f"matroid wide\nground {n}\nrank 1\nflat 0:\nflat 1: " + " ".join(map(str, range(n))) + "\n"
    start = time.perf_counter()
    with pytest.raises(ParseError) as excinfo:
        parse_matroid(text)
    assert time.perf_counter() - start < 1.0
    assert str(excinfo.value) == "ground 5001 is more than 5000 elements, the limit of a document"


def test_a_sparse_document_at_both_limits_is_verified_in_a_second():
    # Rank 2 on 5000 elements, {0,1} and {2,3} parallel: 4998 points, 5000
    # flats.  Each point's mask has one or two live words of 79, so F1 ANDs
    # only those.
    points = ["0 1", "2 3"] + [str(e) for e in range(4, core.FLAT_LIMIT)]
    lines = ["matroid sparse", f"ground {core.FLAT_LIMIT}", "rank 2", "flat 0:"]
    lines += [f"flat 1: {p}" for p in points]
    lines.append("flat 2: " + " ".join(map(str, range(core.FLAT_LIMIT))))
    start = time.perf_counter()
    M = parse_matroid("\n".join(lines) + "\n")
    assert time.perf_counter() - start < 1.5
    assert len(M._flat_list) == core.FLAT_LIMIT and len(M.flats_by_rank[1]) == 4998
    assert verify_flat_axioms(M).passed
