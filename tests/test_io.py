import json
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logmatch import InvalidInputError, ParseError, PointCloud, PredictionOutcome, ProductBasket, ScoreReport
from logmatch import io
from logmatch.geometry import B
from logmatch.io import (
    REPORT_COLUMNS,
    default_baskets_path,
    load_baskets,
    load_dataset,
    load_manifest,
    load_predictions,
    load_scan,
    load_scans,
    write_predictions,
    write_report,
    write_scan,
)
from synthdata import box_cloud, write_dataset_files


class TestXyzFormat:
    def test_single_point(self, tmp_path):
        path = tmp_path / "one.xyz"
        path.write_text("1.0 2.0 3.0\n")
        cloud = load_scan(path)
        np.testing.assert_array_equal(cloud.xyz, [[1.0, 2.0, 3.0]])

    def test_blank_lines_carry_no_data(self, tmp_path):
        path = tmp_path / "two.xyz"
        path.write_text("1 2 3\n\n4 5 6\n")
        assert len(load_scan(path)) == 2

    def test_wrong_arity_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(ParseError, match="bad.xyz:2"):
            load_scan(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 five 6\n")
        with pytest.raises(ParseError, match=":2"):
            load_scan(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 nan\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_scan(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("")
        with pytest.raises(ParseError, match="no points"):
            load_scan(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ParseError, match="nowhere.xyz"):
            load_scan(tmp_path / "nowhere.xyz")


def test_parse_error_survives_pickling():
    for line in (3, None):
        original = ParseError("a.xyz", "bad float", line)
        copy = pickle.loads(pickle.dumps(original))
        assert type(copy) is ParseError
        assert (copy.path, copy.line, copy.message) == ("a.xyz", line, "bad float")
        assert str(copy) == str(original)


class TestCsvScanFormat:
    def test_round_trip_preserves_exact_values(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = box_cloud(rng, 500)
        path = tmp_path / "cloud.csv"
        write_scan(cloud, path)
        np.testing.assert_array_equal(load_scan(path).xyz, cloud.xyz)

    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y,z\n1,2,3\n4,5,6\n")
        cloud = load_scan(path)
        np.testing.assert_array_equal(cloud.xyz, [[1, 2, 3], [4, 5, 6]])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError, match="header"):
            load_scan(path)

    @pytest.mark.parametrize("text, line, message", [
        ('x,y,z\n"1\n2",3,4\nbad,5,6\n', 4, "non-numeric value 'bad'"),
        ('x,y,z\n"1\n2",3,4\n5,6\n', 4, "expected 3 columns, got 2"),
        ('x,y,z\n1,"2\n\n3",4\n\n5,6,7,8\n', 6, "expected 3 columns, got 4"),
    ])
    def test_errors_after_a_multi_line_cell_name_the_reader_line(self, tmp_path, text, line, message):
        """A quoted cell that spans lines does not shift later lines: each
        row is numbered by the csv reader's line, as in the table reader."""
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            load_scan(path)
        assert (excinfo.value.path, excinfo.value.line, excinfo.value.message) == (str(path), line, message)


XYZ_PROPERTIES = "property float x\nproperty float y\nproperty float z\n"
# (header after its "ply" and "format" lines, line, message)
PLY_HEADER_ERRORS = [
    ("element vertex\n" + XYZ_PROPERTIES + "end_header\n", 3, "malformed element declaration 'element vertex'"),
    ("element vertex x\n" + XYZ_PROPERTIES + "end_header\n", 3, "bad element count 'x'"),
    ("element vertex -1\n" + XYZ_PROPERTIES + "end_header\n", 3, "negative element count -1"),
    (XYZ_PROPERTIES + "end_header\n", 3, "property before any element"),
    ("element vertex 0\nproperty float\n" + XYZ_PROPERTIES + "end_header\n", 4,
     "malformed property declaration 'property float'"),
    ("element vertex 0\n" + XYZ_PROPERTIES, 6, "missing end_header"),
    ("element face 0\nproperty list uchar int vertex_indices\nend_header\n", 5, "missing vertex element"),
]


class TestPlyFormat:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 4\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
        )
        assert len(load_scan(path)) == 4

    def test_extra_vertex_properties_ignored(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment made by hand\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\n"
            "end_header\n1 2 3 255\n4 5 6 0\n"
        )
        cloud = load_scan(path)
        np.testing.assert_array_equal(cloud.xyz, [[1, 2, 3], [4, 5, 6]])

    def test_other_elements_ignored(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n1 2 3\n4 5 6\n3 0 1 0\n"
        )
        assert len(load_scan(path)) == 2

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 4\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 0 0\n"
        )
        with pytest.raises(ParseError):
            load_scan(path)

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n")
        with pytest.raises(ParseError, match="ASCII"):
            load_scan(path)

    def test_round_trip(self, tmp_path):
        cloud = box_cloud(np.random.default_rng(1), 50)
        path = tmp_path / "cloud.ply"
        write_scan(cloud, path)
        np.testing.assert_array_equal(load_scan(path).xyz, cloud.xyz)

    def test_trailing_rows_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(ParseError, match="trailing"):
            load_scan(path)

    def test_vertex_list_property_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property list uchar float weights\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(ParseError, match="list"):
            load_scan(path)

    def test_integer_typed_coordinate_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property int x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        with pytest.raises(ParseError, match="float-typed"):
            load_scan(path)

    @pytest.mark.parametrize("header, line, message", PLY_HEADER_ERRORS,
                             ids=[case[2] for case in PLY_HEADER_ERRORS])
    def test_header_error_names_its_line(self, tmp_path, header, line, message):
        path = tmp_path / "cloud.ply"
        path.write_text("ply\nformat ascii 1.0\n" + header)
        with pytest.raises(ParseError) as excinfo:
            load_scan(path)
        assert (excinfo.value.line, excinfo.value.message) == (line, message)

    def test_blank_header_line_is_skipped(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text("ply\nformat ascii 1.0\n\nelement vertex 1\n" + XYZ_PROPERTIES + "end_header\n1 2 3\n")
        np.testing.assert_array_equal(load_scan(path).xyz, [[1, 2, 3]])


def line_parser_load(path, fmt):
    """The line-by-line parser alone: the path load_scan falls back to."""
    lines = Path(path).read_bytes().decode("utf-8").splitlines()
    rows = {"xyz": io._parse_xyz, "csv": io._parse_csv_scan, "ply-ascii": io._parse_ply}[fmt](path, lines)
    if not rows:
        raise ParseError(path, "scan contains no points")
    return np.array(rows, dtype=np.float64)


def outcome(load, path, fmt):
    """Points bit for bit, or the error's message and line."""
    try:
        xyz = load(path, fmt)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("points", xyz.shape, xyz.tobytes())


def ply_text(rows, header=None, newline="\n"):
    header = header or ["element vertex {n}", "property float x", "property float y", "property float z"]
    lines = ["ply", "format ascii 1.0", *(h.format(n=len(rows)) for h in header), "end_header", *rows]
    return newline.join(lines) + newline


# Number forms: float() accepts some that np.loadtxt does not (underscores,
# non-ASCII digits and spaces), and both reject or refuse others. The last
# four sit at and beyond the coordinate bound B.
TOKENS = [
    "1", "-2.5", "+3", "+.5", "5.", "-0", "-0.0", "1e3", "1E-3", "4.9e-324", "2.2250738585072014e-308",
    "1.7976931348623157e308", "0.1000000000000000055511151231257827021181583404541015625",
    "123456789012345678901234567890", "1_0", "1__0", "_1", "1_", "1_0.5e1_0", "nan", "NaN", "-nan", "+nan",
    "inf", "-Infinity", "INF", "1e400", "-1e400", "1e-400", "0x10", "0X1p3", "1d3", "1D3", "\uff11\uff12",
    "\u0663.\u0665", "\U0001d7d9", "1,5", "abc", "1.2.3", "--1", "1e", "e3", "#1", "1#", "1+1", "\u00a01",
    "1\u2003", "1\x00", "\x7f1", "1\x1f", "\"1\"", "'1'", "(1)", "nan(1)",
    repr(B), repr(-B), repr(float(np.nextafter(B, np.inf))), "1e60",
]

XYZ_CASES = [
    *(f"{t} 2 3\n" for t in TOKENS),
    *(f"1 2 3\n4 5 {t}\n" for t in TOKENS),
    "1 2 3\n4 5 6\n", "1 2 3\n4 5 6", "1\t2\t3\n4 5\t6\n", "1 2 3\r\n4 5 6\r\n", "1 2 3\r4 5 6\r",
    "  1   2   3  \n", "1 2 3\n\n4 5 6\n", "1 2 3\n   \n4 5 6\n", "\n\n1 2 3\n", "1 2 3\n\t\n",
    "# comment\n1 2 3\n", "1 2 3 # comment\n", "1 2\n", "1 2 3 4\n", "1,2,3\n", "1 2 3\n4 5\n",
    "", "\n \n", "1 2 3\x0b4 5 6\n", "1 2 3\x0c4 5 6\n", "1\x1f2 3\n", "1 2 3\x1c\n",
    "1\u00a02 3\n", "1 2 3\u20284 5 6\n", "1 2 3\x854 5 6\n",
]

CSV_CASES = [
    *(f"x,y,z\n{t},2,3\n" for t in TOKENS),
    *(f"x,y,z\n1,2,3\n4,5, {t} \n" for t in TOKENS),
    "x,y,z\n1,2,3\n4,5,6\n", "x,y,z\n1,2,3", "x,y,z\r\n1,2,3\r\n", "x,y,z\r1,2,3\r", " x , y ,z\n1,2,3\n",
    '"x","y","z"\n1,2,3\n', "X,Y,Z\n1,2,3\n", "x,y\n1,2\n", "1,2,3\n", "x,y,z\n", "", "\nx,y,z\n1,2,3\n",
    "x,y,z\n 1 , 2 ,3 \n", "x,y,z\n1\t,2,\t3\n", "x,y,z\n1,2,3\n\n4,5,6\n", "x,y,z\n1,2,3\n  \n4,5,6\n",
    "x,y,z\n1,2,3\n\n", 'x,y,z\n"1",2,3\n', 'x,y,z\n" 1 ",2,3\n', 'x,y,z\n"1,2",3\n',
    'x,y,z\n"1\n2",3,4\n', 'x,y,z\n1,2,"3\n"\n', 'x,y,z\n1,2,3"\n', "x,y,z\n1,,2,3\n", "x,y,z\n1,2,3,\n",
    "x,y,z\n,1,2,3\n", "x,y,z\n1,2\n", "x,y,z\n1,,3\n", "x,y,z\n# c\n1,2,3\n", "x,y,z\n1 2 3\n",
    "x,y,z\n1;2;3\n", "x,y,z\n1,2,3\x0c4,5,6\n", "x,y,z\n1\u00a0,2,3\n",
    # cells over the csv field size limit (131072 characters)
    f"x,y,z\n{'1' * 200_000},2,3\n", f"x,y,z\n1,2,3\n4,5,{'a' * 200_000}\n",
    f"x,y,z\n1,\"{'2' * 200_000}\",3\n",
    # finite cells over that limit, which the array path must not take
    f"x,y,z\n{'0' * 200_000}1,2,3\n", f"x,y,z\n1,2,3\n4,5,1.{'0' * 200_000}\n",
]

PLY_CASES = [
    *(ply_text([f"{t} 2 3"]) for t in TOKENS),
    *(ply_text(["1 2 3", f"4 5 {t}"]) for t in TOKENS),
    ply_text(["1 2 3", "4 5 6"]),
    ply_text(["1 2 3", "4 5 6"]).rstrip("\n"),
    ply_text(["1 2 3", "4 5 6"], newline="\r\n"),
    ply_text(["1\t2\t3", " 4  5 6 "]),
    ply_text(["1 2 3"], ["comment made by hand", "element vertex {n}", "property float x",
                         "property float y", "property float z"]),
    ply_text(["1 2 3 255", "4 5 6 0"], ["element vertex {n}", "property float x", "property float y",
                                        "property float z", "property uchar red"]),
    ply_text(["1 2 3 red", "4 5 6 nan"], ["element vertex {n}", "property float x", "property float y",
                                          "property float z", "property uchar red"]),
    ply_text(["1 2 3 4", "5 6 7 8"], ["element vertex {n}", "property float z", "property double w",
                                      "property float x", "property float y"]),
    ply_text(["1 2 3", "4 5 6", "3 0 1 0"], ["element vertex 2", "property float x", "property float y",
                                            "property float z", "element face 1",
                                            "property list uchar int vertex_indices"]),
    ply_text(["3 0 1 0", "1 2 3", "4 5 6"], ["element face 1", "property list uchar int vertex_indices",
                                            "element vertex 2", "property float x", "property float y",
                                            "property float z"]),
    ply_text(["1 2 3", "", "4 5 6"]),
    ply_text(["1 2 3", "4 5 6", ""]),
    ply_text(["1 2 3", "4 5 6", "  "]),
    ply_text(["1 2 3", "4 5 6", ""], ["element vertex 2", "property float x", "property float y",
                                     "property float z", "element face 1",
                                     "property list uchar int vertex_indices"]),
    ply_text(["1 2 3", "", "3 0 1 0"], ["element vertex 1", "property float x", "property float y",
                                       "property float z", "element face 1",
                                       "property list uchar int vertex_indices"]),
    ply_text([], ["element vertex 0", "property float x", "property float y", "property float z"]),
    ply_text(["3 0 1 0"], ["element vertex 0", "property float x", "property float y", "property float z",
                           "element face 1", "property list uchar int vertex_indices"]),
    ply_text(["1 2 3"], ["element vertex 2", "property float x", "property float y", "property float z"]),
    ply_text(["1 2 3", "4 5 6"], ["element vertex 1", "property float x", "property float y",
                                 "property float z"]),
    ply_text(["1 2 3 4"]),
    ply_text(["1 2"]),
    ply_text(["# 1 2 3", "1 2 3"]),
    ply_text(["1,2,3"]),
    ply_text(["1 2 3"], ["element vertex {n}", "property int x", "property float y", "property float z"]),
    ply_text(["1 2 3"], ["element vertex {n}", "property float x", "property float y"]),
    ply_text(["1 2 3"], ["elemental vertex {n}"]),
    "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n",
    "ply\nelement vertex 1\nproperty float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n",
    "ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\nproperty float z\n1 2 3\n",
    "plyx\n", "",
]


class TestArrayPathInvariance:
    """load_scan gives what the line parsers give: the same array bit for
    bit, or the same ParseError message and line."""

    @pytest.mark.parametrize(
        "fmt, text",
        [pytest.param(fmt, text, id=f"{fmt}-{i}")
         for fmt, cases in (("xyz", XYZ_CASES), ("csv", CSV_CASES), ("ply-ascii", PLY_CASES))
         for i, text in enumerate(cases)],
    )
    def test_corpus(self, tmp_path, fmt, text):
        path = tmp_path / {"xyz": "scan.xyz", "csv": "scan.csv", "ply-ascii": "scan.ply"}[fmt]
        path.write_bytes(text.encode("utf-8"))
        assert outcome(lambda p, f: load_scan(p).xyz, path, fmt) == outcome(line_parser_load, path, fmt)

    @pytest.fixture()
    def no_line_parser(self, monkeypatch):
        def refuse(path, lines):
            raise AssertionError("the line parser ran")

        for fmt in io._LINE_PARSERS:
            monkeypatch.setitem(io._LINE_PARSERS, fmt, refuse)

    @pytest.mark.parametrize("suffix", ["xyz", "csv", "ply"])
    def test_written_files_take_the_array_path(self, tmp_path, suffix, no_line_parser):
        cloud = box_cloud(np.random.default_rng(2), 40)
        path = tmp_path / f"cloud.{suffix}"
        write_scan(cloud, path)
        assert load_scan(path).xyz.tobytes() == cloud.xyz.tobytes()

    def test_ply_extras_and_padded_csv_take_the_array_path(self, tmp_path, no_line_parser):
        ply = tmp_path / "extra.ply"
        ply.write_text(ply_text(["4 1 2 3 255", "8 5 6 7 0", "3 0 1 0"], [
            "comment made by hand", "element vertex 2", "property double w", "property float z",
            "property float x", "property float y", "property uchar red", "element face 1",
            "property list uchar int vertex_indices",
        ]))
        padded = tmp_path / "padded.csv"
        padded.write_text("x,y,z\r\n 1 ,\t2 ,3 \r\n-4,+5,6e0")
        np.testing.assert_array_equal(load_scan(ply).xyz, [[2, 3, 1], [6, 7, 5]])
        np.testing.assert_array_equal(load_scan(padded).xyz, [[1, 2, 3], [-4, 5, 6]])


# Coordinates beyond B are refused, as the TOKENS corpus checks.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 2.225073858507201e-308, B, -B, 0.1, 1 / 3]


@settings(max_examples=150, deadline=None)
@given(
    xyz=arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
               elements=st.one_of(st.floats(-B, B), st.sampled_from(EDGE_FLOATS))),
    suffix=st.sampled_from(["xyz", "csv", "ply"]),
)
def test_write_load_round_trip_is_bit_exact(xyz, suffix):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / f"cloud.{suffix}"
        write_scan(PointCloud(xyz), path)
        assert load_scan(path).xyz.tobytes() == xyz.tobytes()


class TestNotUtf8:
    def test_scan_names_the_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_bytes(b"1 2 3\n4 5 6\r\n7 \xff 9\n")
        with pytest.raises(ParseError) as excinfo:
            load_scan(path)
        assert (excinfo.value.line, excinfo.value.message) == (3, "not UTF-8 text (byte 0xff at offset 15)")

    def test_line_counts_every_line_break(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_bytes(b"1 2 3\r4 5 6\r\n\n\xe9")
        with pytest.raises(ParseError, match=r"bad.xyz:4: not UTF-8 text \(byte 0xe9 at offset 14\)"):
            load_scan(path)

    def test_truncated_sequence_at_the_end(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_bytes("1 2 3\n\u00e9".encode("utf-8")[:-1])
        with pytest.raises(ParseError, match=r":2: not UTF-8 text \(byte 0xc3 at offset 6\)"):
            load_scan(path)

    def test_baskets_and_manifest(self, tmp_path):
        baskets = tmp_path / "b.csv"
        baskets.write_bytes(b"id,p1\nlog\x801,2\n")
        with pytest.raises(ParseError, match=r"b.csv:2: not UTF-8 text"):
            load_baskets(baskets)
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"\xfeid,scan_path\n")
        with pytest.raises(ParseError, match=r"m.csv:1: not UTF-8 text"):
            load_manifest(manifest, baskets)


class TestBaskets:
    def test_basic_table(self, tmp_path):
        path = tmp_path / "baskets.csv"
        path.write_text("id,p1,p2\nA,1,0\n")
        assert load_baskets(path) == (("p1", "p2"), {"A": ProductBasket((1, 0))})

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "baskets.csv"
        path.write_text("id,p1\nA,1\nA,2\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_baskets(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "baskets.csv"
        path.write_text("id,p1\nA,-1\n")
        with pytest.raises(ParseError, match="negative"):
            load_baskets(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "baskets.csv"
        path.write_text("id,p1\nA,1.5\n")
        with pytest.raises(ParseError, match="non-integer"):
            load_baskets(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "baskets.csv"
        path.write_text("id,p1,p2\nA,1\n")
        with pytest.raises(ParseError, match="columns"):
            load_baskets(path)


class TestManifest:
    def test_load_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        entries = [
            (f"log{i}", box_cloud(rng, 20), ProductBasket((i, 1)))
            for i in range(4)
        ]
        manifest = write_dataset_files(tmp_path, entries)
        ds = load_dataset(manifest)
        assert tuple(rec.id for rec in ds.records) == ("log0", "log1", "log2", "log3")
        assert len(ds.product_names) == 2
        assert ds.product_names == ("p1", "p2")
        np.testing.assert_array_equal(ds.records[2].scan.xyz, entries[2][1].xyz)
        assert ds.records[3].basket.quantities == (3, 1)

    def test_manifest_rows_in_file_order(self, tmp_path):
        (tmp_path / "b.xyz").write_text("0 0 0\n")
        (tmp_path / "a.xyz").write_text("1 1 1\n")
        (tmp_path / "m.csv").write_text("id,scan_path\nB,b.xyz\nA,a.xyz\n")
        (tmp_path / "m.baskets.csv").write_text("id,p1,p2\nA,1,0\nB,0,0\nC,2,2\n")
        assert load_manifest(tmp_path / "m.csv") == (("p1", "p2"), [
            ("B", tmp_path / "b.xyz", ProductBasket((0, 0))),
            ("A", tmp_path / "a.xyz", ProductBasket((1, 0))),
        ])

    def test_default_baskets_path(self):
        assert default_baskets_path("dir/train.csv").name == "train.baskets.csv"

    def test_missing_scan_file_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text("id,scan_path\nA,missing.xyz\n")
        (tmp_path / "m.baskets.csv").write_text("id,p1\nA,1\n")
        with pytest.raises(ParseError, match="does not exist"):
            load_manifest(tmp_path / "m.csv")

    def test_missing_basket_row_rejected(self, tmp_path):
        (tmp_path / "a.xyz").write_text("0 0 0\n")
        (tmp_path / "m.csv").write_text("id,scan_path\nA,a.xyz\n")
        (tmp_path / "m.baskets.csv").write_text("id,p1\nB,1\n")
        with pytest.raises(ParseError, match="no row"):
            load_manifest(tmp_path / "m.csv")

    def test_load_scans_ignores_baskets(self, tmp_path):
        (tmp_path / "a.xyz").write_text("0 0 0\n1 1 1\n")
        (tmp_path / "m.csv").write_text("id,scan_path\nA,a.xyz\n")
        scans = load_scans(tmp_path / "m.csv")
        assert scans[0][0] == "A"
        assert len(scans[0][1]) == 2


class TestPredictions:
    def test_round_trip(self, tmp_path):
        predictions = {
            "b": PredictionOutcome(ProductBasket((1, 0)), "t1", 0.12345678901234567),
            "a": PredictionOutcome(ProductBasket((0, 2))),
        }
        path = tmp_path / "pred.csv"
        write_predictions(predictions, ("p1", "p2"), path)
        names, loaded = load_predictions(path)
        assert names == ("p1", "p2")
        assert loaded == predictions
        assert list(loaded) == ["b", "a"]

    def test_header_shape(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions({"a": PredictionOutcome(ProductBasket((1,)))}, ("p1",), path)
        first = path.read_text().splitlines()[0]
        assert first == "id,neighbor_id,distance,p1"

    def test_basket_wider_than_the_product_names_is_refused(self, tmp_path):
        with pytest.raises(InvalidInputError, match="^prediction for 'a' has 2 products, expected 1$"):
            write_predictions({"a": PredictionOutcome(ProductBasket((1, 2)))}, ("p1",), tmp_path / "pred.csv")


# (table, file text, line, message); "{root}" is the directory of the file.
TABLE_ERRORS = [
    ("baskets", "", 1, "missing header"),
    ("baskets", "\n \n", 2, "expected header id,<product columns>"),
    ("baskets", "name,p1\nA,1\n", 1, "expected header id,<product columns>"),
    ("baskets", "\n\nid\nA\n", 3, "expected header id,<product columns>"),
    ("baskets", "id,p1,p2\nA,1\n", 2, "expected 3 columns, got 2"),
    ("baskets", "id,p1\nA,1,2\n", 2, "expected 2 columns, got 3"),
    ("baskets", "id,p1\n ,1\n", 2, "empty id"),
    ("baskets", "id,p1\nA,1\n\n A ,2\n", 4, "duplicate id 'A'"),
    ("baskets", "id,p1\nA,1.5\n", 2, "non-integer quantity '1.5'"),
    ("baskets", "id,p1\nA, \n", 2, "non-integer quantity ''"),
    ("baskets", "id,p1\nA,-1\n", 2, "negative quantity -1"),
    ("baskets", "id,p1\nA,x\nB,1,2\n", 2, "non-integer quantity 'x'"),
    ("baskets", "id,p1,p2\nA,1\nB,-1,x\n", 2, "expected 3 columns, got 2"),
    ("baskets", "id,p1,p2\nA,-1,x\n", 2, "negative quantity -1"),
    ("manifest", "", 1, "missing header"),
    ("manifest", "id,path\nA,a.xyz\n", 1, "expected header id,scan_path"),
    ("manifest", "id,scan_path,extra\nA,a.xyz,1\n", 1, "expected header id,scan_path"),
    ("manifest", "id,scan_path\nA\n", 2, "expected 2 columns, got 1"),
    ("manifest", "id,scan_path\n,a.xyz\n", 2, "empty id"),
    ("manifest", "id,scan_path\nA,a.xyz\nB,a.xyz\nA,a.xyz\n", 4, "duplicate id 'A'"),
    ("manifest", "id,scan_path\nA,missing.xyz\n", 2, "scan file does not exist: {root}/missing.xyz"),
    ("manifest", "id,scan_path\nA,{root}/elsewhere/a.xyz\n", 2,
     "scan file does not exist: {root}/elsewhere/a.xyz"),
    ("manifest", "id,scan_path\nA,missing.xyz\n,a.xyz\n", 2, "scan file does not exist: {root}/missing.xyz"),
    ("manifest", "id,scan_path\nA,a.xyz\nA,missing.xyz\n", 3, "duplicate id 'A'"),
    ("predictions", "", 1, "missing header"),
    ("predictions", "id,neighbor_id,distance\nA,,\n", 1,
     "expected header id,neighbor_id,distance,<product columns>"),
    ("predictions", "id,neighbour_id,distance,p1\nA,,,1\n", 1,
     "expected header id,neighbor_id,distance,<product columns>"),
    ("predictions", "id,neighbor_id,distance,p1\nA,,\n", 2, "expected 4 columns, got 3"),
    ("predictions", "id,neighbor_id,distance,p1\n,t1,1.0,1\n", 2, "empty id"),
    ("predictions", "id,neighbor_id,distance,p1\nA,t1,1.0,1\nA,t1,1.0,1\n", 3, "duplicate id 'A'"),
    ("predictions", "id,neighbor_id,distance,p1\nA,t1,inf,1\n", 2, "non-finite value 'inf'"),
    ("predictions", "id,neighbor_id,distance,p1\nA,t1,x,1\n", 2, "non-numeric value 'x'"),
    ("predictions", "id,neighbor_id,distance,p1\nA,t1,1.0,2.0\n", 2, "non-integer quantity '2.0'"),
    ("predictions", "id,neighbor_id,distance,p1\nA,t1,1.0,-3\n", 2, "negative quantity -3"),
    ("predictions", "id,neighbor_id,distance,p1\nA,t1,nan,-3\n", 2, "non-finite value 'nan'"),
    ("predictions", "id,neighbor_id,distance,p1\nA,,,x\nA,,,1,2\n", 2, "non-integer quantity 'x'"),
    # a cell over the csv field size limit (131072 characters)
    ("baskets", f"id,p1\n{'A' * 200_000},1\n", 2, "field larger than field limit (131072)"),
    ("baskets", f"{'i' * 200_000},p1\nA,1\n", 1, "field larger than field limit (131072)"),
    ("manifest", f"id,scan_path\nA,a.xyz\n\nB,{'b' * 200_000}.xyz\n", 4, "field larger than field limit (131072)"),
    ("manifest", f"id,scan_path\nA,missing.xyz\nB,{'b' * 200_000}\n", 2,
     "scan file does not exist: {root}/missing.xyz"),
    ("predictions", f"id,neighbor_id,distance,p1\nA,t1,{'1' * 200_000},1\n", 2,
     "field larger than field limit (131072)"),
    # rows that no PredictionOutcome can be
    ("predictions", "id,neighbor_id,distance,p1\na,t1,,3\n", 2, "neighbor_id and distance must be present together"),
    ("predictions", "id,neighbor_id,distance,p1\nb,,0.5,2\n", 2, "neighbor_id and distance must be present together"),
    ("predictions", "id,neighbor_id,distance,p1\nc,t2,-1.0,1\n", 2, "distance must be finite and >= 0, got -1.0"),
    # product names that repeat or are empty, named by column
    ("baskets", "id,a,a\nA,1,2\n", 1, "repeated product name 'a' in column 3"),
    ("baskets", "id,a,\nA,1,2\n", 1, "empty product name in column 3"),
    ("baskets", "id, ,a\nA,1,2\n", 1, "empty product name in column 2"),
    ("baskets", "id,a,b, a \nA,1,2,3\n", 1, "repeated product name 'a' in column 4"),
    ("baskets", "id,a,a\nA,x\n", 1, "repeated product name 'a' in column 3"),
    ("predictions", "id,neighbor_id,distance,a,a\nA,,,1,0\n", 1, "repeated product name 'a' in column 5"),
    ("predictions", "id,neighbor_id,distance,a,\nA,,,1,0\n", 1, "empty product name in column 5"),
    ("predictions", "id,neighbor_id,distance, \nA,,,1\n", 1, "empty product name in column 4"),
]


@pytest.mark.parametrize("table, text, line, message", TABLE_ERRORS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(TABLE_ERRORS)])
def test_table_error_corpus(tmp_path, table, text, line, message):
    """Each table defect is one ParseError with this exact message and
    line; in a file with several defects the first by line is raised."""
    (tmp_path / "a.xyz").write_text("0 0 0\n")
    baskets = tmp_path / "b.csv"
    baskets.write_text("id,p1\nA,1\nB,2\n")
    path = tmp_path / "t.csv"
    path.write_text(text.format(root=tmp_path))
    load = {"baskets": load_baskets, "manifest": lambda p: load_manifest(p, baskets),
            "predictions": load_predictions}[table]
    with pytest.raises(ParseError) as excinfo:
        load(path)
    error = excinfo.value
    assert (error.path, error.line, error.message) == (str(path), line, message.format(root=tmp_path))


class TestReports:
    @staticmethod
    def report(value=1.0, n=3):
        return ScoreReport(value, value, value, value, value, value, n_evaluated=n)

    def test_csv_layout_and_rounding(self, tmp_path):
        path = tmp_path / "report.csv"
        other = ScoreReport(0.5, 1 / 3, 2 / 3, 0.66666, 0.12344, 0.9, n_evaluated=7)
        write_report([("icp", self.report(1.0)), ("mean", other)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "predictor,s_z,one_minus_dH,one_minus_dHplus,s_pre,s_pro,s_pro_x_pre,n"
        assert lines[1] == "icp,1.0000,1.0000,1.0000,1.0000,1.0000,1.0000,3"
        assert lines[2] == "mean,0.5000,0.3333,0.6667,0.6667,0.1234,0.9000,7"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        report = ScoreReport(0.25, 0.5, 0.75, 1.0, 0.1, 0.025, n_evaluated=4)
        write_report([("icp", report)], path, format="json")
        loaded = json.loads(path.read_text())
        assert loaded == {
            "predictor": "icp",
            "s_z": 0.25,
            "one_minus_dH": 0.5,
            "one_minus_dHplus": 0.75,
            "s_pre": 1.0,
            "s_pro": 0.1,
            "s_pro_x_pre": 0.025,
            "n": 4,
        }

    def test_sequence_keeps_order(self, tmp_path):
        path = tmp_path / "report.json"
        write_report([("a", self.report(n=1)), ("b", self.report(n=2))], path, format="json")
        loaded = json.loads(path.read_text())
        assert [row["n"] for row in loaded] == [1, 2]
        assert [row["predictor"] for row in loaded] == ["a", "b"]

    @pytest.mark.parametrize("count", [1, 2])
    def test_json_is_an_object_for_one_row_and_an_array_otherwise(self, tmp_path, count):
        path = tmp_path / "report.json"
        write_report([("a", self.report(n=1))] * count, path, format="json")
        row = dict(zip(REPORT_COLUMNS, ["a", 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1]))
        assert json.loads(path.read_text()) == (row if count == 1 else [row] * count)

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_report([("icp", self.report())], tmp_path / "missing_dir" / "report.csv")

    def test_unknown_format_is_refused(self, tmp_path):
        with pytest.raises(InvalidInputError, match="^unknown report format 'xml'; expected 'csv' or 'json'$"):
            write_report([("icp", self.report())], tmp_path / "r.xml", format="xml")


class TestFormatInference:
    def test_unknown_extension_rejected(self, tmp_path):
        from logmatch import InvalidInputError
        from logmatch.io import scan_format_for

        with pytest.raises(InvalidInputError):
            scan_format_for(tmp_path / "scan.las")

    def test_known_extensions(self):
        from logmatch.io import scan_format_for

        assert scan_format_for("a.xyz") == "xyz"
        assert scan_format_for("a.CSV") == "csv"
        assert scan_format_for("a.ply") == "ply-ascii"
