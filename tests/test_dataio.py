import math
import re
import string
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spacepart.core import Dataset
from spacepart.dataio import MAGIC, DatasetFormatError, detect_format, load_dataset, save_dataset

from conftest import random_dataset


def test_binary_round_trip_bit_exact(tmp_path):
    ds = random_dataset(1, 37, 5)
    path = tmp_path / "data.bin"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.dims == ds.dims
    assert np.array_equal(back.coords, ds.coords)
    assert np.array_equal(back.ids, ds.ids)


def test_binary_drops_custom_ids(tmp_path):
    # Ids are the row index by definition of the binary layout.
    ds = Dataset([[1.0], [2.0]], ids=[7, 3])
    path = tmp_path / "data.bin"
    save_dataset(ds, path)
    assert load_dataset(path).ids.tolist() == [0, 1]


def test_csv_round_trip(tmp_path):
    ds = random_dataset(2, 23, 3)
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    # repr-based serialization round-trips doubles exactly
    assert np.array_equal(back.coords, ds.coords)


def test_format_auto_detection(tmp_path):
    ds = random_dataset(3, 4, 2)
    bin_path, csv_path = tmp_path / "a.bin", tmp_path / "a.csv"
    save_dataset(ds, bin_path)
    save_dataset(ds, csv_path)
    assert detect_format(bin_path) == "binary"
    assert detect_format(csv_path) == "csv"
    assert np.array_equal(load_dataset(bin_path).coords, load_dataset(csv_path).coords)


def test_csv_header_round_trip(tmp_path):
    ds = random_dataset(4, 6, 2)
    path = tmp_path / "h.csv"
    save_dataset(ds, path, header=True)
    assert open(path).readline().strip() == "x0,x1"
    back = load_dataset(path, header=True)
    assert np.array_equal(back.coords, ds.coords)


def test_csv_id_column(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("10,1.5,2.5\n20,3.5,4.5\n")
    ds = load_dataset(path, id_column=0)
    assert ds.ids.tolist() == [10, 20]
    assert ds.coords.tolist() == [[1.5, 2.5], [3.5, 4.5]]


@pytest.mark.parametrize("ident", [2**53 + 1, 2**63 - 1, -(2**63)])
def test_csv_ids_keep_every_digit(tmp_path, ident):
    # 2**53 + 1 = 9007199254740993 has no float64; a float parse loaded it as ...992
    path = tmp_path / "ids.csv"
    path.write_text(f"5,1.5\n{ident},2.5\n")
    if ident < 0:  # parsed exactly, then refused as a point id
        with pytest.raises(DatasetFormatError, match="non-negative"):
            load_dataset(path, id_column=0)
    else:
        assert load_dataset(path, id_column=0).ids.tolist() == [5, ident]


@pytest.mark.parametrize(
    "token", ["1e19", "7.0", "1e3", str(2**63), str(-(2**63) - 1), "nan", "x", "1_000", "\u0661\u0662"]
)
def test_csv_id_that_is_no_decimal_int64_names_line(tmp_path, token):
    path = tmp_path / "ids.csv"
    path.write_text(f"5,1.5\n{token},2.5\n")
    with pytest.raises(DatasetFormatError, match=f"line 2: id '{token}' is not a decimal int64$"):
        load_dataset(path, id_column=0)


@pytest.mark.parametrize("token", ["1_0", "2_5.0", "1e1_0", "\u0661\u0662", "\uff11.5", "\u00a03.5"])
@pytest.mark.parametrize("id_column", [None, 0])
def test_csv_coordinate_that_float_takes_but_is_no_ascii_decimal_names_line(tmp_path, token, id_column):
    # float() takes digit groups and non-ASCII digits and spaces: 1_0 loaded as
    # 10.0, an Arabic-Indic 12 as 12.0, a fullwidth 1.5 as 1.5
    path = tmp_path / "coords.csv"
    prefix = "" if id_column is None else "7,"
    path.write_text(f"{prefix}1.5,2.5,3.5\n{prefix}4.0,{token},6.0\n", encoding="utf-8")
    message = f"line 2: coordinate {re.escape(repr(token))} is not an ASCII decimal float$"
    with pytest.raises(DatasetFormatError, match=message):
        load_dataset(path, id_column=id_column)


@pytest.mark.parametrize("id_column", [None, 0])
def test_csv_byte_that_is_no_utf8_names_line(tmp_path, id_column):
    # the decoder raised a bare UnicodeDecodeError, whose position counted from its buffer
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"7,1.0,2.0\n8,5.0,\xff6.0\n" if id_column == 0 else b"1.0,2.0\n5.0,\xff6.0\n")
    message = f"^{re.escape(str(path))}: line 2: coordinate '\\\\udcff6.0' is not an ASCII decimal float$"
    with pytest.raises(DatasetFormatError, match=message):
        load_dataset(path, id_column=id_column)


@pytest.mark.parametrize(
    "text, problem",
    [("5,1.5\n-3,2.5\n", "id -3 is negative"), ("5,1.5\n6,2.5\n5,3.5\n", "id 5 appears twice")],
)
def test_csv_negative_or_repeated_id_names_line(tmp_path, text, problem):
    path = tmp_path / "ids.csv"
    path.write_text(text)
    line = text.count("\n")
    with pytest.raises(DatasetFormatError, match=f"line {line}: {problem}"):
        load_dataset(path, id_column=0)


def test_csv_inconsistent_width_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3,4\n5,6,7,8\n9,10,11\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_dataset(path)


def test_csv_non_finite_names_line(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1,2\nnan,4\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_csv_unparseable_names_line(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("1,2\n3,zebra\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(path)


def test_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_binary_truncated_payload(tmp_path):
    ds = random_dataset(5, 8, 2)
    path = tmp_path / "cut.bin"
    save_dataset(ds, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(DatasetFormatError, match="payload is 120 bytes at offset 12, expected 128"):
        load_dataset(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(DatasetFormatError, match="magic"):
        load_dataset(path, format="binary")


def test_binary_layout_is_as_documented(tmp_path):
    ds = Dataset([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "layout.bin"
    save_dataset(ds, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 2
    assert np.frombuffer(raw[12:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_binary_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(MAGIC + b"\x02\x00\x00")
    with pytest.raises(DatasetFormatError, match="truncated header, got 7 bytes, need 12"):
        load_dataset(path, format="binary")


def test_binary_empty_header(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(MAGIC + (0).to_bytes(4, "little") + (3).to_bytes(4, "little"))
    with pytest.raises(DatasetFormatError, match=r"empty dataset \(0 x 3\)"):
        load_dataset(path)


def test_binary_non_finite_row(tmp_path):
    coords = np.arange(12, dtype=np.float64).reshape(4, 3)
    coords[2, 1] = np.inf
    path = tmp_path / "inf.bin"
    path.write_bytes(MAGIC + (4).to_bytes(4, "little") + (3).to_bytes(4, "little") + coords.astype("<f8").tobytes())
    with pytest.raises(DatasetFormatError, match="non-finite value in point row 2"):
        load_dataset(path)


# A reference reading of both formats, written from their documentation, for
# the fuzz tests below: the data it accepts, or where the first error is.
_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_INT = re.compile(r"[+-]?[0-9]+")


def reference_binary(raw: bytes):
    """``(coords, None)``, or ``"offset N"``: the first error's place."""
    if len(raw) < 12:
        return f"offset {len(raw)}"
    n, d = struct.unpack_from("<II", raw, 4)
    if n == 0 or d == 0:
        return "offset 4"
    if len(raw) != 12 + 8 * n * d:
        return "offset 12"
    coords = np.frombuffer(raw, dtype="<f8", offset=12).reshape(n, d)
    finite = np.isfinite(coords).ravel()
    return (coords, None) if finite.all() else f"offset {12 + 8 * int(np.argmin(finite))}"


def reference_csv(raw: bytes, id_column):
    """``(coords, ids)``, or ``"line N"``: the first error's place.

    A line ends at LF, CR or CRLF and loses its ASCII whitespace at both ends;
    a blank line is skipped. Tokens are ASCII decimal floats, finite, and ids
    non-negative, unique ASCII decimal int64s; a token may carry the
    whitespace that ``float`` and ``int`` skip.
    """
    text = raw.decode("utf-8", "surrogateescape").replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    rows, ids, width = [], [], None
    for lineno, line in enumerate(lines, start=1):
        fields = [tok.strip(string.whitespace) for tok in line.strip(string.whitespace).split(",")]
        if fields == [""]:
            continue
        width = width or len(fields)
        if len(fields) != width:
            return f"line {lineno}"
        if id_column is not None:
            tok = fields.pop(id_column)
            if not _INT.fullmatch(tok) or not 0 <= int(tok) < 2**63 or int(tok) in ids:
                return f"line {lineno}"
            ids.append(int(tok))
        if not all(_FLOAT.fullmatch(tok) and math.isfinite(float(tok)) for tok in fields):
            return f"line {lineno}"
        rows.append([float(tok) for tok in fields])
    if not rows:
        return f"line {len(lines) + 1}"
    return np.array(rows), ids or None


def reference_load(raw: bytes, id_column=None):
    return reference_binary(raw) if raw[:4] == MAGIC else reference_csv(raw, id_column)


# edits of a file: (position, replace / insert / delete, byte), the bytes drawn
# from all 256 and, as often, from the ones that CSV and the floats in it use
_EDITS = st.lists(
    st.tuples(
        st.integers(0, 1 << 16),
        st.sampled_from(["replace", "insert", "delete"]),
        st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789,.-+eE_ \t\r\n")),
    ),
    max_size=4,
)
_VALUES = st.floats(allow_nan=False, allow_infinity=False)
_ROWS = st.integers(1, 4).flatmap(lambda d: st.lists(st.lists(_VALUES, min_size=d, max_size=d), min_size=1, max_size=4))


def mutate(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for pos, kind, byte in edits:
        pos %= len(out) + 1
        if kind == "insert":
            out.insert(pos, byte)
        elif pos < len(out):
            if kind == "replace":
                out[pos] = byte
            else:
                del out[pos]
    return bytes(out)


def check_load(path, raw: bytes, id_column=None):
    """``load_dataset`` gives the reference's data, or a format error at the reference's place."""
    path.write_bytes(raw)
    want = reference_load(raw, id_column)
    if isinstance(want, str):
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path, id_column=id_column)
        assert re.search(rf"\b{want}\b", str(err.value)), (str(err.value), want)
        return
    ds = load_dataset(path, id_column=id_column)
    coords, ids = want
    assert ds.coords.tobytes() == np.ascontiguousarray(coords, dtype=np.float64).tobytes()
    assert ds.ids.tolist() == (ids if ids is not None else list(range(len(coords))))


@settings(max_examples=300)
@given(rows=_ROWS, edits=_EDITS)
def test_mutated_binary_file_loads_as_reference_or_names_offset(tmp_path_factory, rows, edits):
    raw = MAGIC + struct.pack("<II", len(rows), len(rows[0])) + np.array(rows, dtype="<f8").tobytes()
    check_load(tmp_path_factory.getbasetemp() / "fuzz.bin", mutate(raw, edits))


@settings(max_examples=300)
@given(rows=_ROWS, id_column=st.sampled_from([None, 0]), edits=_EDITS)
def test_mutated_csv_file_loads_as_reference_or_names_line(tmp_path_factory, rows, id_column, edits):
    ids = [[str(3 * i + 1)] if id_column == 0 else [] for i in range(len(rows))]
    lines = [",".join(ident + [repr(v) for v in row]) for ident, row in zip(ids, rows)]
    raw = ("\n".join(lines) + "\n").encode()
    check_load(tmp_path_factory.getbasetemp() / "fuzz.csv", mutate(raw, edits), id_column)
