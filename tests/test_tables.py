"""Byte-stable table emission and round-trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorm import tables


def test_float_formatting_17_digits():
    assert tables.format_value(1.0 / 3.0) == "0.33333333333333331"
    assert tables.format_value(1000.0) == "1000"
    assert float(tables.format_value(math.pi)) == math.pi
    assert tables.format_value(-0.0) == "0"


def test_parse_token_types():
    assert tables.parse_token("42") == 42
    assert tables.parse_token("-1.5e-3") == -1.5e-3
    assert tables.parse_token("true") is True
    assert tables.parse_token("false") is False
    assert tables.parse_token("finite") == "finite"
    assert tables.parse_token("") == ""


def test_csv_round_trip_bytes(tmp_path):
    path = tmp_path / "t.csv"
    header = ["name", "n", "x", "flag"]
    rows = [
        ("alpha", 3, 1.0 / 7.0, True),
        ("beta", -2, 6.02214076e23, False),
        ("", 0, 1000.0, True),
    ]
    tables.write_csv(path, header, rows)
    first = path.read_bytes()
    h2, r2 = tables.read_csv(path)
    assert h2 == header
    path2 = tmp_path / "t2.csv"
    tables.write_csv(path2, h2, r2)
    assert path2.read_bytes() == first


def test_csv_rejects_embedded_separators(tmp_path):
    with pytest.raises(ValueError):
        tables.write_csv(tmp_path / "bad.csv", ["a"], [("x,y",)])


def test_json_round_trip_bytes(tmp_path):
    path = tmp_path / "t.json"
    obj = [{"n": 1, "x": 0.1, "s": "hello"}, {"n": 2, "x": 2.0, "s": ""}]
    tables.write_json(path, obj)
    first = path.read_bytes()
    back = tables.read_json(path)
    path2 = tmp_path / "t2.json"
    tables.write_json(path2, back)
    assert path2.read_bytes() == first


# what the commands put in cells: numbers, flags, and words such as
# variant names and the markers of divergent or infinite values
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([3.72e-259, 5e-324, 0.0, -0.0, 1e300]),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.sampled_from(["", "finite", "flow", "renormalized", "divergent", "infinite", "yes", "no"]),
)


@settings(max_examples=200, derandomize=True)
@given(rows=st.lists(st.lists(_CELLS, min_size=3, max_size=3), max_size=8))
def test_tables_round_trip_byte_for_byte(tmp_path_factory, rows):
    # write, read and write again: the two files are the same bytes
    tmp = tmp_path_factory.mktemp("tables")
    header = ["a", "b", "c"]
    tables.write_csv(tmp / "1.csv", header, rows)
    h2, r2 = tables.read_csv(tmp / "1.csv")
    tables.write_csv(tmp / "2.csv", h2, r2)
    assert (tmp / "2.csv").read_bytes() == (tmp / "1.csv").read_bytes()
    tables.write_json(tmp / "1.json", [dict(zip(header, row)) for row in rows])
    tables.write_json(tmp / "2.json", tables.read_json(tmp / "1.json"))
    assert (tmp / "2.json").read_bytes() == (tmp / "1.json").read_bytes()
