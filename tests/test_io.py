import json
import pickle

import numpy as np
import pytest

from logmatch import ParseError, ProductBasket, ScoreReport
from logmatch.io import (
    PredictionRow,
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


class TestBaskets:
    def test_basic_table(self, tmp_path):
        path = tmp_path / "baskets.csv"
        path.write_text("id,p1,p2\nA,1,0\n")
        table = load_baskets(path)
        assert table == {"A": ProductBasket((1, 0))}

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
        assert ds.ids() == ("log0", "log1", "log2", "log3")
        assert ds.product_count == 2
        assert ds.product_names == ("p1", "p2")
        np.testing.assert_array_equal(ds.records[2].scan.xyz, entries[2][1].xyz)
        assert ds.records[3].basket.quantities == (3, 1)

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
        rows = [
            PredictionRow("a", "t1", 0.12345678901234567, ProductBasket((1, 0))),
            PredictionRow("b", None, None, ProductBasket((0, 2))),
        ]
        path = tmp_path / "pred.csv"
        write_predictions(rows, ("p1", "p2"), path)
        loaded = load_predictions(path)
        assert loaded == rows

    def test_header_shape(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions([PredictionRow("a", None, None, ProductBasket((1,)))], ("p1",), path)
        first = path.read_text().splitlines()[0]
        assert first == "id,neighbor_id,distance,p1"


class TestReports:
    @staticmethod
    def report(value=1.0, n=3):
        return ScoreReport(value, value, value, value, value, value, n_evaluated=n)

    def test_csv_layout_and_rounding(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(
            [self.report(1.0), ScoreReport(0.5, 1 / 3, 2 / 3, 0.66666, 0.12344, 0.9, n_evaluated=7)],
            path,
            labels=["icp", "mean"],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "predictor,s_z,one_minus_dH,one_minus_dHplus,s_pre,s_pro,s_pro_x_pre,n"
        assert lines[1] == "icp,1.0000,1.0000,1.0000,1.0000,1.0000,1.0000,3"
        assert lines[2] == "mean,0.5000,0.3333,0.6667,0.6667,0.1234,0.9000,7"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        report = ScoreReport(0.25, 0.5, 0.75, 1.0, 0.1, 0.025, n_evaluated=4)
        write_report(report, path, format="json", labels="icp")
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
        write_report([self.report(n=1), self.report(n=2)], path, format="json", labels=["a", "b"])
        loaded = json.loads(path.read_text())
        assert [row["n"] for row in loaded] == [1, 2]
        assert [row["predictor"] for row in loaded] == ["a", "b"]

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_report(self.report(), tmp_path / "missing_dir" / "report.csv")

    def test_label_count_must_match(self, tmp_path):
        from logmatch import InvalidInputError

        with pytest.raises(InvalidInputError):
            write_report([self.report(), self.report()], tmp_path / "r.csv", labels=["only-one"])


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
