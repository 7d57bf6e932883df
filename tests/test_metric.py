import json
import re
import time
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import magh.metric

from magh.errors import (
    AsymmetricAt,
    MaghError,
    MetricError,
    NegativeEntry,
    NegativeOrZeroOffDiagonal,
    NonzeroDiagonal,
    NotSquare,
    NTooSmall,
    SelfBetweenness,
    TriangleViolation,
)
from magh.metric import (
    MAX_EXPONENT,
    FiniteMetricSpace,
    IntegerView,
    complete_space,
    cycle_space,
    format_rational,
    metric_closure,
    parse_rational,
    path_space,
    quantize,
    random_metric,
    validate_metric,
)

from oracles import naive_betweenness, naive_triangle_witness, row_by_row_metric
from test_frames import GRID_STEPS, weighted_grid
from test_kernel import kernel_settings, metrics
from test_posets import rational_grid_space

F = Fraction


def test_parse_rational():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("7") == F(7)
    assert parse_rational(" 0 ") == F(0)
    with pytest.raises(MetricError):
        parse_rational("abc")
    with pytest.raises(MetricError):
        parse_rational("1/0")


@kernel_settings
@given(
    st.one_of(
        st.from_regex(r"\s*\d{1,40}(/\d{1,40})?\s*", fullmatch=True),
        st.from_regex(r"[-+ 0-9/._eE]{0,8}", fullmatch=True),
        st.text(max_size=8),
    )
)
def test_parse_rational_reads_what_fraction_reads(text):
    # digits-only texts skip Fraction's parser; the value, and for any
    # other text the error, must be Fraction's, except that a decimal
    # exponent beyond MAX_EXPONENT is refused before Fraction reads it
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(MetricError) as info:
            parse_rational(text)
        assert str(info.value) == f"cannot parse rational from {text!r}: {exc}"
    else:
        exponent = re.fullmatch(r".*e([-+]?[0-9_]+)", text.strip(), re.IGNORECASE)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            with pytest.raises(MetricError) as info:
                parse_rational(text)
            assert str(info.value) == (
                f"cannot parse rational from {text!r}: "
                "decimal exponent exceeds 4300 in absolute value"
            )
        else:
            assert parse_rational(text) == expected


@pytest.mark.parametrize(
    "load",
    [
        lambda e: FiniteMetricSpace.from_csv(f"a,b\n0,{e}\n{e},0\n"),
        lambda e: FiniteMetricSpace.from_json(json.dumps({"d": [[0, e], [e, 0]]})),
    ],
    ids=["csv", "json"],
)
@pytest.mark.parametrize("entry", ["1e1000000", "1e-1000000", "0E+4301", "2.5e-4_301"])
def test_huge_exponent_is_refused_at_once(load, entry):
    # Fraction would build the whole power of ten the exponent names
    start = time.perf_counter()
    with pytest.raises(MetricError, match="decimal exponent exceeds 4300 in absolute value"):
        load(entry)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "entry, value",
    [("1e300", F(10**300)), ("2.5e-3", F(1, 400)), ("1E4299", F(10**4299)), ("3e-4299", F(3, 10**4299))],
)
def test_exponent_within_the_bound_loads_exactly(entry, value):
    # an exponent of 4,300 is within the bound, but a space refuses the
    # 4,301-digit term it makes, so the loads here stop at 4,299
    space = FiniteMetricSpace.from_csv(f"a,b\n0,{entry}\n{entry},0\n")
    assert space.dist[0][1] == value
    assert parse_rational(entry) == value


def test_format_rational():
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(0)) == "0"


def test_format_rational_past_the_digit_limit_is_a_metric_error():
    # 10^4300 has 4,301 digits, one past the interpreter's default limit;
    # a ValueError here ended `magh compute` in a traceback
    for q in (F(10**4300), F(1, 10**4300), F(10**4300 + 1, 2)):
        with pytest.raises(MetricError) as info:
            format_rational(q)
        assert str(info.value) == "cannot print rational: a term has more than 4300 digits"
    assert format_rational(F(10**4299, 3)) == f"{10**4299}/3"


@pytest.mark.parametrize("entry", ["1e1000000", "-1e-1000000", "0E+4301", "5e-4301"])
def test_huge_decimal_exponent_is_refused_at_once(entry):
    # Fraction(Decimal(...)) would build the whole power of ten
    value = Decimal(entry)
    start = time.perf_counter()
    with pytest.raises(MetricError) as info:
        validate_metric([[0, value], [value, 0]])
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == "entry [0][1]: decimal exponent exceeds 4300 in absolute value"


@pytest.mark.parametrize(
    "entry",
    ["1" * 20000, "-" + "9" * 4301, "1." + "1" * 4300, "1" * 4301 + "e-9"],
    ids=["20000-digits", "negative-4301-digits", "4301-digits-point", "4301-digits-exponent"],
)
def test_decimal_with_too_many_digits_is_refused(entry):
    # such a space loaded, and then no length of it printed
    value = Decimal(entry)
    with pytest.raises(MetricError) as info:
        validate_metric([[0, value], [value, 0]])
    assert str(info.value) == "entry [0][1]: decimal has more than 4300 digits"


def test_decimal_digits_are_bounded_as_text_digits():
    # the interpreter's limit, which `parse_rational` meets in int()
    entry = "1" * 4300
    space = validate_metric([[0, Decimal(entry)], [Decimal(entry), 0]])
    assert space.dist[0][1] == int(entry) == parse_rational(entry)
    with pytest.raises(MetricError):
        parse_rational(entry + "1")


@pytest.mark.parametrize(
    "entry",
    [
        "1." + "1" * 4300,
        "1e4300",
        "-" + "1" * 4300 + "e1",
        "0." + "0" * 4299 + "1",
        F(10**4300, 7),
        F(3, 10**4300),
        10**4300,
        Decimal("1e4300"),
        Decimal("1e-4300"),
    ],
    ids=[
        "text-both",
        "text-numerator",
        "text-negative",
        "text-denominator",
        "fraction-numerator",
        "fraction-denominator",
        "int",
        "decimal-numerator",
        "decimal-denominator",
    ],
)
def test_entry_too_long_to_print_is_refused_at_load(entry):
    # each loaded, and then no length of its space printed; the entry is
    # named wherever it sits, and its repeats in the matrix do not matter
    rows = [[0, 1, entry], [1, 0, entry], [entry, entry, 0]]
    with pytest.raises(MetricError) as info:
        validate_metric(rows)
    assert str(info.value) == "entry [0][2]: a term has more than 4300 digits"
    with pytest.raises(MetricError):
        metric_closure(rows)


@pytest.mark.parametrize("entry", ["NaN", "sNaN", "Infinity", "-Infinity", "-NaN"])
def test_non_finite_decimal_is_refused(entry):
    value = Decimal(entry)
    with pytest.raises(MetricError) as info:
        validate_metric([[0, value], [value, 0]])
    assert str(info.value) == f"entry [0][1] = {value!r} is not finite"


@pytest.mark.parametrize(
    "entry, value",
    [
        ("2.5e-3", F(1, 400)),
        ("1E4299", F(10**4299)),
        ("3e-4299", F(3, 10**4299)),
        ("12.50", F(25, 2)),
    ],
)
def test_decimal_within_the_bound_loads_exactly(entry, value):
    space = validate_metric([[0, Decimal(entry)], [Decimal(entry), 0]])
    assert space.dist[0][1] == value


def test_validate_single_point():
    sp = validate_metric([[0]])
    assert sp.n == 1
    assert sp.d(0, 0) == 0


def test_validate_accepts_fraction_strings():
    sp = validate_metric([["0", "3/2"], ["3/2", "0"]])
    assert sp.d(0, 1) == F(3, 2)


def test_validate_asymmetric_witness():
    with pytest.raises(AsymmetricAt) as exc:
        validate_metric([[0, 1], [2, 0]])
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_validate_triangle_witness():
    matrix = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(matrix)
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, 1, 2)


def test_validate_other_axioms():
    with pytest.raises(NotSquare):
        validate_metric([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(NotSquare):
        validate_metric([[0, 1], [1, 0, 2]])
    with pytest.raises(NonzeroDiagonal):
        validate_metric([[0, 1], [1, 1]])
    with pytest.raises(NegativeOrZeroOffDiagonal):
        validate_metric([[0, 0], [0, 0]])
    with pytest.raises(NegativeOrZeroOffDiagonal):
        validate_metric([[0, -1], [-1, 0]])
    with pytest.raises(MetricError):
        validate_metric([[0, 1], [1, 0]], labels=["a"])


def test_cycle_distances():
    c4 = cycle_space(4)
    assert c4.d(0, 2) == 2
    assert c4.d(0, 3) == 1
    c6 = cycle_space(6)
    assert c6.d(0, 3) == 3
    assert c6.d(1, 5) == 2
    with pytest.raises(NTooSmall):
        cycle_space(2)


@pytest.mark.parametrize("n", range(3, 10))
def test_cycle_vertex_transitivity(n):
    # rotating all indices by one leaves distances unchanged
    c = cycle_space(n)
    for i in range(n):
        for j in range(n):
            assert c.d(i, j) == c.d((i + 1) % n, (j + 1) % n)


def test_path_distances():
    p = path_space(5)
    assert p.d(0, 4) == 4
    assert p.d(2, 3) == 1
    assert path_space(1).n == 1
    with pytest.raises(NTooSmall):
        path_space(0)


def test_complete_distances():
    k4 = complete_space(4)
    assert all(k4.d(i, j) == 1 for i in range(4) for j in range(4) if i != j)
    assert complete_space(1).n == 1


def test_random_metric_deterministic():
    a = random_metric(6, seed=11)
    b = random_metric(6, seed=11)
    assert a.dist == b.dist
    c = random_metric(6, seed=12)
    assert a.dist != c.dist


@pytest.mark.parametrize("seed", range(1, 8))
def test_random_metric_is_valid(seed):
    sp = random_metric(5, seed=seed)
    # re-validation from raw entries must succeed
    validate_metric([list(row) for row in sp.dist])


def test_metric_closure_repairs_triangle():
    matrix = [
        [F(0), F(1), F(5)],
        [F(1), F(0), F(1)],
        [F(5), F(1), F(0)],
    ]
    closed = metric_closure(matrix)
    assert closed[0][2] == 2
    validate_metric(closed)
    # closure is dominated by the input
    for i in range(3):
        for j in range(3):
            assert closed[i][j] <= matrix[i][j]


@pytest.mark.parametrize(
    "matrix, error, witness",
    [
        ([[0, -1], [-1, 0]], NegativeEntry, (0, 1)),
        ([[0, 1, 2], [1, 0, "-1/2"], [2, 1, 0]], NegativeEntry, (1, 2)),
        ([[0, 1], [3, 0]], AsymmetricAt, (0, 1)),
        ([[0, 1, 1], [1, 0, 2], [1, 1, 0]], AsymmetricAt, (1, 2)),
        ([[5, 1], [1, 0]], NonzeroDiagonal, (0,)),
        ([[0, 1, 1], [1, 0, 1], [1, 1, "1/3"]], NonzeroDiagonal, (2,)),
        # a negative entry is named before an asymmetric pair, and that
        # before a nonzero diagonal entry
        ([[1, 2], [-1, 0]], NegativeEntry, (1, 0)),
        ([[1, 2], [1, 0]], AsymmetricAt, (0, 1)),
    ],
)
def test_metric_closure_refuses_what_no_closure_repairs(matrix, error, witness):
    # the largest metric dominated by such a matrix does not exist, or is
    # not what shortest paths give: each is refused with its first witness
    # in row-major order, never closed into a non-metric
    with pytest.raises(error) as info:
        metric_closure(matrix)
    assert tuple(vars(info.value)[k] for k in ("i", "j")[: len(witness)]) == witness
    # zero off-diagonal entries stay allowed, and close like any other
    assert metric_closure([[0, 0, 3], [0, 0, 1], [3, 1, 0]]) == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]


def test_metric_closure_returns_fractions_for_int_input():
    # entries are read as validate_metric reads them, so ints come back as
    # equal Fractions and a ragged row is refused like a ragged metric
    closed = metric_closure([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert closed == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert all(type(v) is Fraction for row in closed for v in row)
    assert metric_closure([["0", "1/2"], [0.5, Decimal(0)]]) == [[0, F(1, 2)], [F(1, 2), 0]]
    assert metric_closure([]) == []
    with pytest.raises(NotSquare):
        metric_closure([[0, 1], [1, 0, 1]])


def test_quantize_halves():
    out = quantize([[0, 0.5], [0.5, 0]], 2)
    assert out[0][1] == F(1, 2)


def test_quantize_documented_tie():
    # 1.0471975 * 10^6 is an exact half; ties snap down
    out = quantize([[0, "1.0471975"], ["1.0471975", 0]], 10**6)
    assert out[0][1] == F(1047197, 10**6)
    out = quantize([[0, 1.0471975], [1.0471975, 0]], 10**6)
    assert out[0][1] == F(1047197, 10**6)


def test_quantize_negative_entry():
    with pytest.raises(NegativeEntry) as exc:
        quantize([[0, -0.1], [-0.1, 0]], 10)
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_quantize_recloses():
    matrix = [
        [0, 1.04, 5.0],
        [1.04, 0, 1.04],
        [5.0, 1.04, 0],
    ]
    out = quantize(matrix, 100)
    assert out[0][2] == F(52, 25)  # 1.04 + 1.04 after snapping
    validate_metric(out)


def test_quantize_bad_q():
    with pytest.raises(ValueError):
        quantize([[0]], 0)
    with pytest.raises(ValueError):
        quantize([[0]], "10")


def test_json_roundtrip():
    sp = validate_metric([["0", "3/2"], ["3/2", "0"]], labels=["p", "q"])
    again = FiniteMetricSpace.from_json(sp.to_json())
    assert again.dist == sp.dist
    assert again.labels == ("p", "q")


def test_json_errors():
    with pytest.raises(MetricError):
        FiniteMetricSpace.from_json("not json")
    with pytest.raises(MetricError):
        FiniteMetricSpace.from_json('{"labels": ["a"]}')


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"d": [null]}', "field 'd' must be a list of rows"),
        ('{"d": 3}', "field 'd' must be a list of rows"),
        ('{"d": "0"}', "field 'd' must be a list of rows"),
        ('{"d": [[0, 1], "10"]}', "field 'd' must be a list of rows"),
        ('{"d": [], "labels": 0.0}', "field 'labels' must be a list"),
        ('{"d": [[0, 1], [1, 0]], "labels": "ab"}', "field 'labels' must be a list"),
        ('{"d": [[0, 1], [1, 0]], "labels": ["a", ["b"]]}', "field 'labels' must be a list"),
        ('{"d": [[0, 1], [1, 0]], "labels": [true, "b"]}', "field 'labels' must be a list"),
        ('{"d": [[0, 1], [1, 0]], "labels": [1.5, "b"]}', "field 'labels' must be a list"),
        ('{"d": [[0, 1], [1, 0]], "labels": ["a"]}', "1 labels for 2 points"),
        pytest.param("[" * 100000, "invalid JSON", id="nested-100000-deep"),
        pytest.param('{"d": [[' + "1" * 5000 + "]]}", "invalid JSON", id="int-of-5000-digits"),
    ],
)
def test_json_shapes_are_checked(text, reason):
    with pytest.raises(MetricError, match=re.escape(reason)):
        FiniteMetricSpace.from_json(text)


def test_json_labels_are_strings_or_ints():
    # an int label reads as its decimal string; null or no labels give 0..n-1
    d = [[0, 1], [1, 0]]
    assert FiniteMetricSpace.from_json({"d": d, "labels": [7, "b"]}).labels == ("7", "b")
    assert FiniteMetricSpace.from_json({"d": d, "labels": None}).labels == ("0", "1")
    assert FiniteMetricSpace.from_json({"d": d}).labels == ("0", "1")


def test_csv_reader_errors_are_metric_errors():
    # a lone carriage return ends no line for the csv module, which refuses
    # the field; the same text with LF line ends loads
    with pytest.raises(MetricError, match="invalid CSV"):
        FiniteMetricSpace.from_csv("a,b\r0,1\r1,0\r")
    with pytest.raises(MetricError, match="invalid CSV"):
        FiniteMetricSpace.from_csv("0,1\r1,0\r")
    assert FiniteMetricSpace.from_csv("a,b\n0,1\n1,0\n").labels == ("a", "b")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("dl"), inner),
    max_leaves=12,
)


def _documents():
    fields = st.fixed_dictionaries({}, optional={"d": _JSON_VALUES, "labels": _JSON_VALUES})
    return st.one_of(
        fields.map(json.dumps),
        _JSON_VALUES.map(json.dumps),
        st.text(alphabet='{}[]",:0123456789 dlabels/\r\n-.', max_size=30),
    )


def _csv_texts():
    return st.one_of(
        st.text(alphabet=',"0123/ \r\nab-.\x00', max_size=30),
        st.lists(
            st.lists(st.sampled_from(["0", "1", "2", "1/2", "a", '"', "-1", ""]), max_size=3),
            max_size=4,
        ).map(lambda rows: "\r".join(",".join(row) for row in rows)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(json_text=_documents(), csv_text=_csv_texts())
def test_every_text_loads_or_raises_a_magh_error(json_text, csv_text):
    loads = ((FiniteMetricSpace.from_json, json_text), (FiniteMetricSpace.from_csv, csv_text))
    for load, text in loads:
        try:
            space = load(text)
        except MaghError:
            continue
        assert isinstance(space, FiniteMetricSpace)


def test_csv_roundtrip():
    sp = cycle_space(5)
    again = FiniteMetricSpace.from_csv(sp.to_csv())
    assert again.dist == sp.dist
    assert again.labels == sp.labels


def test_spaces_hash_by_value():
    assert cycle_space(4) == cycle_space(4)
    assert hash(cycle_space(4)) == hash(cycle_space(4))
    # the name is neither hashed nor compared
    matrix = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    a = validate_metric(matrix, name="a")
    b = validate_metric(matrix, name="b")
    assert a == b and hash(a) == hash(b) == hash((a.labels, a.dist))
    assert a != validate_metric(matrix, labels=["x", "y", "z"])


def test_loading_scales_the_matrix_once():
    # validate_metric scales the matrix for its triangle scan and hands the
    # result to the space, whose integer view reuses it
    matrix = [["0", "3/2", "1/3"], ["3/2", "0", "7/6"], ["1/3", "7/6", "0"]]
    text = validate_metric(matrix).to_json()
    with mock.patch.object(magh.metric, "_scaled", wraps=magh.metric._scaled) as scaled:
        space = FiniteMetricSpace.from_json(text)
        view = space.integer_view
    assert scaled.call_count == 1
    assert view == IntegerView.of(space.dist)
    assert view.scale == 6 and view.idist[0] == (0, 9, 2)


# spellings of 1, 3/2 and 2: any symmetric matrix of them with a zero
# diagonal is a metric, with betweenness wherever 1 + 1 = 2
SPELLINGS = {
    F(1): ["1", "1.0", " 1", "2/2"],
    F(3, 2): ["3/2", "1.5", "6/4"],
    F(2): ["2", "4/2", "2e0"],
}
ZEROS = ["0", "0/1", "0.0"]
# texts refused by the parser, or past MAX_EXPONENT digits once parsed
MALFORMED = ["sNaN", "inf", "1e5000", "1e4300", "1" + "0" * MAX_EXPONENT, "abc", "1/0"]
MALFORMED_OBJECTS = [Decimal("sNaN"), Decimal("NaN"), float("inf"), True, None]
DEFECTS = [None, "short", "malformed", "asymmetric", "zero", "negative", "diagonal", "triangle"]


@st.composite
def defective_matrices(draw):
    """A metric matrix of texts, a few entries objects of the same value,
    with one or two defects at drawn positions, or none."""
    n = draw(st.integers(1, 6))
    values = sorted(SPELLINGS)
    value = {(i, i): F(0) for i in range(n)}
    d = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = draw(st.sampled_from(ZEROS))
        for j in range(i + 1, n):
            q = value[i, j] = value[j, i] = draw(st.sampled_from(values))
            # the two halves of a pair spelled independently
            d[i][j] = draw(st.sampled_from(SPELLINGS[q]))
            d[j][i] = draw(st.sampled_from(SPELLINGS[q]))
    cells = sorted(value)
    # entries given as Fractions or ints, which are read one by one
    for i, j in draw(st.lists(st.sampled_from(cells), max_size=3)):
        q = value[i, j]
        d[i][j] = draw(st.sampled_from([q, int(q)] if q.denominator == 1 else [q]))
    # one defect, or two, whose order the readers must agree on
    for defect in draw(st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=2)):
        i, j = draw(st.sampled_from(cells))
        if i == j and defect in ("asymmetric", "zero", "negative", "triangle"):
            if n < 2:
                continue
            j = (i + 1) % n
        if defect == "short":
            d[i] = d[i][:-1]
        elif any(len(d[k]) < n for k in (i, j)):
            continue
        elif defect == "malformed":
            d[i][j] = draw(st.sampled_from(MALFORMED + MALFORMED_OBJECTS))
        elif defect == "asymmetric":
            other = [q for q in values if q != value[i, j]]
            d[i][j] = draw(st.sampled_from([t for q in other for t in SPELLINGS[q]]))
        elif defect in ("zero", "negative"):
            d[i][j] = d[j][i] = "0" if defect == "zero" else "-3/2"
        elif defect == "diagonal":
            d[i][i] = "3/2"
        elif defect == "triangle" and n >= 3:
            d[i][j] = d[j][i] = "5"
    return d


def read_outcome(read, matrix):
    try:
        return read(matrix)
    except MaghError as exc:
        return type(exc), str(exc), vars(exc)


def package_read(matrix):
    space = validate_metric(matrix)
    return space.dist, space.scaled, space.between


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(defective_matrices())
def test_loader_matches_the_row_by_row_reader(matrix):
    # the same space, or the same error with the same first witness
    assert read_outcome(package_read, matrix) == read_outcome(row_by_row_metric, matrix)


def test_repeated_string_entries_parse_once():
    # each distinct text is parsed once, and the space is the one the same
    # matrix gives from Fractions
    base = random_metric(6, seed=3).dist
    texts = [[format_rational(v) for v in row] for row in base]
    texts[0][1] = texts[1][0] = f" {texts[0][1]} "  # one text, two spellings
    with mock.patch.object(magh.metric, "parse_rational", wraps=parse_rational) as parse:
        space = validate_metric(texts)
    assert parse.call_count == len({t for row in texts for t in row})
    assert parse.call_count < 36
    expected = validate_metric([list(row) for row in base])
    assert space == expected and space.dist == base
    assert space.integer_view == expected.integer_view


@pytest.mark.parametrize(
    "matrix, message",
    [
        # one malformed text at four positions
        (
            [["0", "x", "x"], ["x", "0", "1"], ["x", "1", "0"]],
            "cannot parse rational from 'x': Invalid literal for Fraction: 'x'",
        ),
        # two malformed texts, each repeated: the first in row-major order wins
        (
            [["0", "1/0", "abc"], ["1/0", "0", "1"], ["abc", "1", "0"]],
            "cannot parse rational from '1/0': Fraction(1, 0)",
        ),
        (
            [["0", "1", "1"], ["1", "0", "nope"], ["1", "nope", "0"]],
            "cannot parse rational from 'nope': Invalid literal for Fraction: 'nope'",
        ),
        # a bad entry in row 0 is met before row 1 is found too long
        (
            [["0", "abc"], ["abc", "0", "1"]],
            "cannot parse rational from 'abc': Invalid literal for Fraction: 'abc'",
        ),
        (
            [[0, "bad", True], ["bad", 0, 1], [True, 1, 0]],
            "cannot parse rational from 'bad': Invalid literal for Fraction: 'bad'",
        ),
        ([[0, 1, True], [1, 0, "bad"], [True, "bad", 0]], "entry [0][2] is a bool, not a number"),
    ],
)
def test_malformed_repeated_text_raises_at_its_first_position(matrix, message):
    with pytest.raises(MetricError) as exc:
        validate_metric(matrix)
    assert type(exc.value) is MetricError
    assert str(exc.value) == message


def test_mixed_entry_types_read_as_before():
    matrix = [
        [0, 0.5, Decimal("1.5"), "3/2"],
        [0.5, 0, 1, F(1)],
        [Decimal("1.5"), 1, 0, "1/2"],
        ["3/2", 1, " 1/2 ", 0],
    ]
    space = validate_metric(matrix)
    assert space.dist == (
        (F(0), F(1, 2), F(3, 2), F(3, 2)),
        (F(1, 2), F(0), F(1), F(1)),
        (F(3, 2), F(1), F(0), F(1, 2)),
        (F(3, 2), F(1), F(1, 2), F(0)),
    )
    assert all(type(v) is Fraction for row in space.dist for v in row)


# --- the packed pass: betweenness and the triangle check ------------------------

# 1 and 2 at distance 0: 2 lies between 1 and itself
ZERO_DISTANCE = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
# d(1, 4) = 3 > d(1, 3) + d(3, 4): the betweenness order on I(0, 4) is
# intransitive, and the triangle inequality fails first at (0, 1, 3)
INTRANSITIVE = [
    [0, 1, 2, 3, 4],
    [1, 0, 1, 1, 3],
    [2, 1, 0, 1, 2],
    [3, 1, 1, 0, 1],
    [4, 3, 2, 1, 0],
]


def hand_built(rows):
    """A space straight from int rows, with no validation."""
    dist = tuple(tuple(F(v) for v in row) for row in rows)
    return FiniteMetricSpace(tuple(map(str, range(len(rows)))), dist)


@kernel_settings
@given(metrics)
def test_between_rows_match_the_triple_loop_on_metrics(space):
    view = space.integer_view
    assert magh.metric._between_rows(view.idist) == (view.between, False)
    assert view.between == naive_betweenness(space.dist)


@pytest.mark.parametrize(
    "space",
    [weighted_grid(wx, wy) for wx, wy in GRID_STEPS] + [rational_grid_space(3, 4)],
    ids=lambda s: s.name,
)
def test_between_rows_match_the_triple_loop_on_grids(space):
    view = space.integer_view
    assert magh.metric._between_rows(view.idist) == (view.between, False)
    assert view.between == naive_betweenness(space.dist)


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric int matrices with negative, zero and nonzero diagonal entries."""
    n = draw(st.integers(0, 6))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-6, 9))
    return m


@kernel_settings
@given(symmetric_int_matrices())
def test_between_rows_on_any_symmetric_int_matrix(matrix):
    # no field may carry into the next whatever the signs, and `short`
    # reports exactly the matrices with a triangle violation
    between, short = magh.metric._between_rows(matrix)
    assert between == naive_betweenness(matrix)
    assert short is (naive_triangle_witness(matrix) is not None)


def test_hand_built_views_match_the_triple_loop():
    between, short = magh.metric._between_rows(ZERO_DISTANCE)
    assert between == naive_betweenness(ZERO_DISTANCE) and not short
    assert between[1][1] == 1 << 2
    with pytest.raises(SelfBetweenness) as exc:
        hand_built(ZERO_DISTANCE).integer_view
    assert (exc.value.a, exc.value.c) == (1, 2)
    # a view ignores the violation, and validation refuses it
    view = hand_built(INTRANSITIVE).integer_view
    assert magh.metric._between_rows(INTRANSITIVE) == (view.between, True)
    assert view.between == naive_betweenness(INTRANSITIVE)
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(INTRANSITIVE)
    witness = (exc.value.i, exc.value.j, exc.value.k)
    assert witness == naive_triangle_witness(INTRANSITIVE) == (0, 1, 3)
    # the pass reads each pair once, so a view checks symmetry first
    with pytest.raises(AsymmetricAt) as exc:
        hand_built([[0, 1, 1], [1, 0, 1], [2, 1, 0]]).integer_view
    assert (exc.value.i, exc.value.j) == (0, 2)


@pytest.mark.parametrize("matrix", [[], [[0]], [[0, "3/2"], ["3/2", 0]]], ids=len)
def test_spaces_of_up_to_two_points_load(matrix):
    space = validate_metric(matrix)
    view = space.integer_view
    assert view.between == naive_betweenness(matrix) == tuple((0,) * len(matrix) for _ in matrix)
    assert view.idist == tuple(tuple(v * view.scale for v in row) for row in space.dist)


def test_between_rows_with_fields_past_64_bits():
    # a line with steps over three Mersenne primes and one point off it: the
    # scale passes 2**180, so every field of the pass is wider than 64 bits
    steps = [F(1, 2**61 - 1), F(3, 2**31 - 1), F(5, 2**89 - 1), F(1, 2**61 - 1)]
    xs = [sum(steps[:i], F(0)) for i in range(len(steps) + 1)]
    coords = [(x, F(0)) for x in xs] + [(xs[2], F(7, 2**31 - 1))]
    matrix = [[abs(p[0] - q[0]) + abs(p[1] - q[1]) for q in coords] for p in coords]
    view = validate_metric(matrix).integer_view
    assert view.scale.bit_length() > 180
    assert max(map(max, view.idist)).bit_length() > 64
    assert view.between == naive_betweenness(matrix)
    assert view.between[0][4] == 0b1110


def test_loading_runs_the_packed_pass_once():
    # validate_metric's triangle check and the view's betweenness table
    # come from one pass, which the space hands on to its view
    text = random_metric(7, seed=5).to_json()
    packed = mock.patch.object(magh.metric, "_between_rows", wraps=magh.metric._between_rows)
    with packed as between_rows:
        space = FiniteMetricSpace.from_json(text)
        view = space.integer_view
    assert between_rows.call_count == 1
    assert view.between is space.between
    assert view.between == naive_betweenness(space.dist)
