"""Property tests for the CSV codec (skipped where hypothesis is absent)."""
import math
import string
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bwinr import ShapeError  # noqa: E402
from bwinr.cli import read_table, write_table  # noqa: E402
from bwinr.training import LogEntry, TrainLog, format_table, parse_table  # noqa: E402

_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_ALPHABET = string.ascii_letters + string.digits + " .+-_:;()[]'"


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_NAMES = st.text(_ALPHABET, max_size=8)
_WORDS = st.text(_ALPHABET, min_size=1, max_size=8).filter(lambda t: not _is_number(t))
_CELLS = st.one_of(
    st.floats(), st.none(), st.booleans(), st.integers(-10**20, 10**20), _WORDS
)
_OPTIONAL = st.one_of(st.none(), st.floats(allow_nan=False))


@st.composite
def _tables(draw, min_columns=1):
    n = draw(st.integers(min_columns, 5))
    header = draw(st.lists(_NAMES, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_CELLS, min_size=n, max_size=n), max_size=6))
    return header, rows


def _expected(value):
    """What a written cell reads back as: numbers as floats, the rest as is."""
    return value if value is None or isinstance(value, str) else float(value)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a):  # repr keeps NaN, not its sign or payload
            return math.isnan(b)
        return struct.pack("<d", a) == struct.pack("<d", b)  # -0.0 stays -0.0
    return type(a) is type(b) and a == b


def _assert_round_trip(header, rows, parsed):
    got_header, got_rows = parsed
    assert got_header == header
    assert len(got_rows) == len(rows)
    for row, got in zip(rows, got_rows):
        assert all(_same(_expected(v), g) for v, g in zip(row, got, strict=True))


@_SETTINGS
@given(table=_tables())
@example(table=(["a", "b", "c", "d"], [[math.inf, -math.inf, math.nan, -0.0]]))
def test_parse_inverts_format(table):
    _assert_round_trip(*table, parse_table(format_table(*table)))


@_SETTINGS
@given(table=_tables())
def test_read_table_inverts_write_table(tmp_path, table):
    path = tmp_path / "t.csv"
    write_table(path, *table)
    _assert_round_trip(*table, read_table(path))


def test_empty_text_is_shape_error(tmp_path):
    with pytest.raises(ShapeError):
        parse_table("")
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(ShapeError):
        read_table(path)


@_SETTINGS
@given(table=_tables(min_columns=2), data=st.data())
def test_ragged_row_is_shape_error(table, data):
    header, rows = table
    width = data.draw(st.integers(1, len(header) + 2).filter(lambda k: k != len(header)))
    # A width-1 row of None is a blank line.
    bad = data.draw(st.lists(_CELLS, min_size=width, max_size=width))
    bad_line = format_table(["x"] * width, [bad]).splitlines()[1]
    lines = format_table(header, rows).splitlines()
    lines.insert(data.draw(st.integers(1, len(lines))), bad_line)
    with pytest.raises(ShapeError):
        parse_table("\n".join(lines) + "\n")


def test_blank_line_is_shape_error():
    text = format_table(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ShapeError):
        parse_table(text.replace("\n3.0", "\n\n3.0"))


@_SETTINGS
@given(entries=st.lists(st.builds(
    LogEntry, epoch=st.integers(0, 10**6), loss=st.floats(allow_nan=False),
    psnr=_OPTIONAL, lr=st.floats(allow_nan=False),
    vnorm_total=_OPTIONAL, feat_cond=_OPTIONAL,
), max_size=5))
def test_train_log_round_trips(entries):
    log = TrainLog(entries)
    assert TrainLog.from_csv(log.to_csv()) == log


@_SETTINGS
@given(epoch=st.one_of(
    st.floats().filter(lambda x: not x.is_integer()).map(repr),
    _WORDS,
    st.just(""),
))
@example(epoch="3.5")
@example(epoch="nan")
@example(epoch="x")
def test_non_integer_epoch_is_shape_error(epoch):
    text = TrainLog([LogEntry(0, 1.0, None, 0.1)]).to_csv()
    with pytest.raises(ShapeError):
        TrainLog.from_csv(text.replace("\n0,", f"\n{epoch},"))


def test_text_in_a_number_column_is_shape_error():
    text = "epoch,loss,psnr,lr,vnorm_total,feat_cond\n0,low,,0.1,,\n"
    with pytest.raises(ShapeError):
        TrainLog.from_csv(text)
