"""File formats: scan files, basket tables, manifests, predictions, reports.

Formats are deliberately small and exact:

- scans: ``xyz`` (whitespace-separated ``x y z`` per line), ``csv``
  (header ``x,y,z``), or minimal ASCII PLY (``ply-ascii``). Binary PLY is
  out of scope.
- baskets: csv with header ``id,<product...>`` and integer quantities.
- manifest: csv ``id,scan_path`` with a sibling baskets csv
  (``<name>.baskets.csv`` next to ``<name>.csv`` unless given explicitly);
  scan paths are resolved relative to the manifest's directory.
- predictions: csv ``id,neighbor_id,distance,<product...>``, read back as
  a ``PredictionOutcome`` per id. Neighbour and distance are both present
  or both empty, and the distance is finite and >= 0; any other row is a
  parse error at its line.
- score reports: csv ``predictor,s_z,one_minus_dH,one_minus_dHplus,s_pre,
  s_pro,s_pro_x_pre,n`` with fixed 4-decimal scores, or json mirroring the
  same field names.

Baskets, manifests and predictions are id-keyed tables, read by one
reader. Blank lines are skipped. The first row is the header; its cells
are stripped and must match the table's own rule. Every later row has
exactly as many cells as the header, and its first cell, stripped, is a
non-empty id no earlier row has. Quantities are non-negative integers.
Predictions, csv reports and the partition lists of ``split`` are written
by one csv writer, so cells are quoted as csv requires.

Cloud coordinates are written with shortest round-trip decimal formatting,
so a write/load cycle reproduces the numbers exactly. Parsers never skip a
malformed row; every defect is a hard error naming the file and line. A
scan coordinate must lie within geometry.B (1e48 mm): one beyond it is
such an error, naming its token.
Every file is read as UTF-8; other bytes are a parse error at their line.

Scan data lines are converted in one ``np.loadtxt`` call when the text is
ASCII, every data line is a row (no blank lines), csv cells are unquoted
and no csv line is longer than the csv module's field size limit, and the
result has the expected shape and only coordinates within B. That
call splits fields and converts numbers as ``str.split``, ``csv`` and
``float`` do, except that it rejects some forms ``float`` accepts, such as
``1_0``. Any other file, and any file it fails on, goes through the
line-by-line parser of its format, which raises the located error. So the
array path never accepts a file that the line parser rejects, and the
coordinates it returns are bit-identical to the line parser's.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset
from .errors import InvalidInputError, ParseError
from .geometry import B, PointCloud
from .metrics import ScoreReport
from .predictor import LogRecord, PredictionOutcome, ProductBasket

_PLY_FLOAT_TYPES = {"float", "float32", "float64", "double"}

REPORT_COLUMNS = ("predictor", "s_z", "one_minus_dH", "one_minus_dHplus",
                  "s_pre", "s_pro", "s_pro_x_pre", "n")


# ---------------------------------------------------------------------------
# scans


def scan_format_for(path) -> str:
    """Infer a scan format from a file extension."""
    suffix = Path(path).suffix.lower()
    if suffix == ".xyz":
        return "xyz"
    if suffix == ".csv":
        return "csv"
    if suffix == ".ply":
        return "ply-ascii"
    raise InvalidInputError(f"cannot infer scan format from {str(path)!r}; expected .xyz, .csv or .ply")


def load_scan(path) -> PointCloud:
    """Read a point cloud, preserving point order exactly as on disk."""
    fmt = scan_format_for(path)
    text = _read_text(path)
    lines = text.splitlines()
    points = _array_points(path, fmt, text, lines) if text.isascii() else None
    if points is None:
        rows = _LINE_PARSERS[fmt](path, lines)
        if not rows:
            raise ParseError(path, "scan contains no points")
        points = np.array(rows, dtype=np.float64)
    return PointCloud(points)


def _read_text(path) -> str:
    """The text of a UTF-8 file; an unreadable file or a byte sequence that
    is not UTF-8 is a ParseError, the latter at the line it starts on."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(path, f"cannot read file: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as str.splitlines does; the bytes before the bad one decode.
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            path, f"not UTF-8 text (byte 0x{data[exc.start]:02x} at offset {exc.start})", line
        ) from None


def _array_points(path, fmt: str, text: str, lines: list[str]) -> np.ndarray | None:
    """The points of an ASCII scan from one np.loadtxt call over its data
    lines, or None where the line parser must decide (see the module
    docstring). PLY header errors are raised here, as the line parser
    raises them."""
    if fmt == "xyz":
        points = _number_rows(lines, None, 3)
    elif fmt == "csv":
        if ('"' in text or not lines or [cell.strip() for cell in lines[0].split(",")] != ["x", "y", "z"]
                or max(map(len, lines)) > csv.field_size_limit()):
            return None
        points = _number_rows(lines[1:], ",", 3)
    else:
        data_start, elements, vertex_pos, vertex_props, columns = _ply_layout(path, lines)
        data = lines[data_start:]
        if len(data) != sum(count for _, count, _ in elements) or not all(map(str.strip, data)):
            return None
        first = sum(count for _, count, _ in elements[:vertex_pos])
        table = _number_rows(data[first:first + elements[vertex_pos][1]], None, len(vertex_props))
        points = None if table is None else table[:, [columns[axis] for axis in ("x", "y", "z")]]
    if points is None or not (-B <= points.min() and points.max() <= B):
        return None
    return points


def _number_rows(lines: list[str], delimiter: str | None, width: int) -> np.ndarray | None:
    """lines as a (len(lines), width) array when each is one row of width
    numbers np.loadtxt reads, else None; blank lines are not rows here."""
    if not lines or not all(map(str.strip, lines)):
        return None
    try:
        table = np.loadtxt(lines, dtype=np.float64, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape == (len(lines), width) else None


def _parse_float(path, lineno: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, f"non-numeric value {token!r}", lineno) from None
    if not math.isfinite(value):
        raise ParseError(path, f"non-finite value {token!r}", lineno)
    return value


def _parse_coordinate(path, lineno: int, token: str) -> float:
    value = _parse_float(path, lineno, token)
    if abs(value) > B:
        raise ParseError(path, f"coordinate {token!r} is beyond ±{B:g}", lineno)
    return value


def _parse_xyz(path, lines: list[str]) -> list[tuple[float, float, float]]:
    points = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue  # blank lines carry no data
        if len(parts) != 3:
            raise ParseError(path, f"expected 3 coordinates, got {len(parts)}", lineno)
        x, y, z = (_parse_coordinate(path, lineno, tok) for tok in parts)
        points.append((x, y, z))
    return points


def _csv_rows(path, lines: list[str]):
    """csv.reader over lines, as (reader line number, row), blank rows
    included. A row the reader refuses, such as one with a cell over the
    csv field size limit, is a ParseError at the reader's line."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(path, str(exc), reader.line_num) from None


def _parse_csv_scan(path, lines: list[str]) -> list[tuple[float, float, float]]:
    rows = _csv_rows(path, lines)
    lineno, header = next(rows, (1, None))
    if header is None:
        raise ParseError(path, "missing header", lineno)
    header = [cell.strip() for cell in header]
    if header != ["x", "y", "z"]:
        raise ParseError(path, f"expected header x,y,z, got {','.join(header)!r}", lineno)
    points = []
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(path, f"expected 3 columns, got {len(row)}", lineno)
        x, y, z = (_parse_coordinate(path, lineno, cell.strip()) for cell in row)
        points.append((x, y, z))
    return points


def _ply_layout(path, lines: list[str]):
    """Walk a PLY header. Returns the index of the first data line, the
    elements as (name, count, [(type, property)]), the vertex element's
    position and properties, and the column of each of x, y, z."""
    if not lines or lines[0].strip() != "ply":
        raise ParseError(path, "not a PLY file (missing 'ply' magic)", 1)

    elements: list[tuple[str, int, list[tuple[str, str]]]] = []  # (name, count, [(type, prop)])
    saw_format = False
    data_start = None
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        keyword = parts[0]
        if keyword == "comment":
            continue
        if keyword == "format":
            if len(parts) < 2 or parts[1] != "ascii":
                raise ParseError(path, "only ASCII PLY is supported", lineno)
            saw_format = True
        elif keyword == "element":
            if len(parts) != 3:
                raise ParseError(path, f"malformed element declaration {raw.strip()!r}", lineno)
            try:
                count = int(parts[2])
            except ValueError:
                raise ParseError(path, f"bad element count {parts[2]!r}", lineno) from None
            if count < 0:
                raise ParseError(path, f"negative element count {count}", lineno)
            elements.append((parts[1], count, []))
        elif keyword == "property":
            if not elements:
                raise ParseError(path, "property before any element", lineno)
            if len(parts) >= 2 and parts[1] == "list":
                if elements[-1][0] == "vertex":
                    raise ParseError(path, "list properties on the vertex element are unsupported", lineno)
                elements[-1][2].append(("list", parts[-1]))
            elif len(parts) == 3:
                elements[-1][2].append((parts[1], parts[2]))
            else:
                raise ParseError(path, f"malformed property declaration {raw.strip()!r}", lineno)
        elif keyword == "end_header":
            data_start = lineno
            break
        else:
            raise ParseError(path, f"unknown header keyword {keyword!r}", lineno)
    if data_start is None:
        raise ParseError(path, "missing end_header", lineno)
    if not saw_format:
        raise ParseError(path, "missing format declaration", data_start)

    vertex = [(i, count, props) for i, (name, count, props) in enumerate(elements) if name == "vertex"]
    if not vertex:
        raise ParseError(path, "missing vertex element", data_start)
    vertex_pos, _, vertex_props = vertex[0]
    columns = {}
    for col, (ptype, pname) in enumerate(vertex_props):
        if pname in ("x", "y", "z"):
            if ptype not in _PLY_FLOAT_TYPES:
                raise ParseError(path, f"vertex property {pname} must be float-typed, is {ptype}", data_start)
            columns[pname] = col
    missing = [name for name in ("x", "y", "z") if name not in columns]
    if missing:
        raise ParseError(path, f"vertex element lacks float properties {missing}", data_start)
    return data_start, elements, vertex_pos, vertex_props, columns


def _parse_ply(path, lines: list[str]) -> list[tuple[float, float, float]]:
    data_start, elements, vertex_pos, vertex_props, columns = _ply_layout(path, lines)
    data = [
        (no, raw.split())
        for no, raw in enumerate(lines[data_start:], start=data_start + 1)
        if raw.split()
    ]
    cursor = 0
    points: list[tuple[float, float, float]] = []
    for index, (name, count, props) in enumerate(elements):
        if cursor + count > len(data):
            raise ParseError(
                path, f"element {name!r} declares {count} rows but only {len(data) - cursor} remain",
                data[-1][0] if data else data_start,
            )
        if index == vertex_pos:
            for no, parts in data[cursor:cursor + count]:
                if len(parts) != len(vertex_props):
                    raise ParseError(path, f"expected {len(vertex_props)} values, got {len(parts)}", no)
                points.append(tuple(_parse_coordinate(path, no, parts[columns[axis]]) for axis in ("x", "y", "z")))
        cursor += count
    if cursor < len(data):
        raise ParseError(path, "trailing data after the declared elements", data[cursor][0])
    return points


_LINE_PARSERS = {"xyz": _parse_xyz, "csv": _parse_csv_scan, "ply-ascii": _parse_ply}


def write_scan(cloud: PointCloud, path) -> None:
    """Write a point cloud with shortest round-trip decimal coordinates."""
    fmt = scan_format_for(path)
    rows = [f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in cloud.xyz]
    if fmt == "xyz":
        text = "\n".join(rows) + "\n"
    elif fmt == "csv":
        text = "x,y,z\n" + "\n".join(row.replace(" ", ",") for row in rows) + "\n"
    else:
        header = [
            "ply",
            "format ascii 1.0",
            f"element vertex {len(cloud)}",
            "property double x",
            "property double y",
            "property double z",
            "end_header",
        ]
        text = "\n".join(header + rows) + "\n"
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# baskets


def load_baskets(path) -> dict[str, ProductBasket]:
    """Integer baskets keyed by log id, from a csv with header id,<product...>."""
    return _read_basket_table(path)[1]


def _read_basket_table(path) -> tuple[tuple[str, ...], dict[str, ProductBasket]]:
    header, rows = _read_table(path, lambda header: len(header) >= 2 and header[0] == "id",
                               "id,<product columns>")
    return tuple(header[1:]), {log_id: _basket(path, line, cells) for line, log_id, cells in rows}


def _read_table(path, header_ok, header_text: str):
    """The stripped header of an id-keyed table and a generator of its rows
    as (line, id, other cells) in file order. Each row is checked as it is
    drawn, so the first defect by line is raised, the caller's included."""
    rows = ((line, row) for line, row in _csv_rows(path, _read_text(path).splitlines()) if row)
    line, header = next(rows, (1, None))
    if header is None:
        raise ParseError(path, "missing header", line)
    header = [cell.strip() for cell in header]
    if not header_ok(header):
        raise ParseError(path, f"expected header {header_text}", line)
    return header, _table_rows(path, len(header), rows)


def _table_rows(path, width: int, rows):
    seen = set()
    for line, row in rows:
        if len(row) != width:
            raise ParseError(path, f"expected {width} columns, got {len(row)}", line)
        log_id = row[0].strip()
        if not log_id:
            raise ParseError(path, "empty id", line)
        if log_id in seen:
            raise ParseError(path, f"duplicate id {log_id!r}", line)
        seen.add(log_id)
        yield line, log_id, row[1:]


def _basket(path, line: int, cells: Sequence[str]) -> ProductBasket:
    quantities = []
    for cell in cells:
        token = cell.strip()
        try:
            value = int(token)
        except ValueError:
            raise ParseError(path, f"non-integer quantity {token!r}", line) from None
        if value < 0:
            raise ParseError(path, f"negative quantity {value}", line)
        quantities.append(value)
    return ProductBasket(tuple(quantities))


# ---------------------------------------------------------------------------
# manifests


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest row: the log id, its scan file, its basket."""

    id: str
    scan_path: Path
    basket: ProductBasket


@dataclass(frozen=True, eq=False)
class Manifest:
    """A validated list of scans with baskets; all referenced files exist."""

    product_names: tuple[str, ...]
    entries: tuple[ManifestEntry, ...]


def default_baskets_path(manifest_path) -> Path:
    """Sibling baskets table of a manifest: <name>.baskets.csv."""
    return Path(manifest_path).with_suffix(".baskets.csv")


def _read_manifest_rows(path) -> list[tuple[str, Path]]:
    _, rows = _read_table(path, lambda header: header == ["id", "scan_path"], "id,scan_path")
    out: list[tuple[str, Path]] = []
    for line, log_id, (cell,) in rows:
        scan_path = Path(path).parent / cell.strip()  # an absolute scan path stays as it is
        if not scan_path.is_file():
            raise ParseError(path, f"scan file does not exist: {scan_path}", line)
        out.append((log_id, scan_path))
    return out


def load_manifest(manifest_path, baskets_path=None) -> Manifest:
    """Validate a manifest against its baskets table without loading scans."""
    rows = _read_manifest_rows(manifest_path)
    baskets = default_baskets_path(manifest_path) if baskets_path is None else Path(baskets_path)
    names, table = _read_basket_table(baskets)
    entries = []
    for log_id, scan_path in rows:
        if log_id not in table:
            raise ParseError(manifest_path, f"id {log_id!r} has no row in {baskets}")
        entries.append(ManifestEntry(log_id, scan_path, table[log_id]))
    return Manifest(names, tuple(entries))


def load_scans(manifest_path) -> list[tuple[str, PointCloud]]:
    """Load (id, scan) pairs from a manifest, without requiring baskets."""
    return [(log_id, load_scan(scan_path)) for log_id, scan_path in _read_manifest_rows(manifest_path)]


def load_dataset(manifest_path, baskets_path=None) -> Dataset:
    """Assemble a full dataset: manifest rows, scans, and baskets."""
    manifest = load_manifest(manifest_path, baskets_path)
    records = tuple(
        LogRecord(entry.id, load_scan(entry.scan_path), entry.basket) for entry in manifest.entries
    )
    return Dataset(records, manifest.product_names)


# ---------------------------------------------------------------------------
# predictions


@contextmanager
def _open_out(path):
    if str(path) == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_rows(path, header: Sequence[object], rows) -> None:
    """Write a csv table to path, or to stdout for "-"."""
    with _open_out(path) as handle:
        _write_table(handle, header, rows)


def _write_table(handle, header: Sequence[object], rows) -> None:
    """Write a csv table to an open text handle."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_predictions(predictions: Mapping[str, PredictionOutcome], product_names: Sequence[str],
                      path) -> None:
    """Write predictions as csv: id,neighbor_id,distance,<product...>, one
    row per log id in the mapping's order."""
    def cells(log_id: str, outcome: PredictionOutcome) -> list[object]:
        if len(outcome.predicted) != len(product_names):
            raise InvalidInputError(
                f"prediction for {log_id!r} has {len(outcome.predicted)} products, "
                f"expected {len(product_names)}"
            )
        return [log_id, "" if outcome.neighbor_id is None else outcome.neighbor_id,
                "" if outcome.distance is None else repr(outcome.distance), *outcome.predicted.quantities]

    _write_rows(path, ["id", "neighbor_id", "distance", *product_names], (
        cells(log_id, outcome) for log_id, outcome in predictions.items()))


def load_predictions(path) -> dict[str, PredictionOutcome]:
    """Read a predictions csv back into outcomes keyed by log id, in file order."""
    _, rows = _read_table(
        path, lambda header: header[:3] == ["id", "neighbor_id", "distance"] and len(header) >= 4,
        "id,neighbor_id,distance,<product columns>",
    )
    return {log_id: _outcome(path, line, cells) for line, log_id, cells in rows}


def _outcome(path, line: int, cells: Sequence[str]) -> PredictionOutcome:
    """The prediction of one row's cells neighbor_id,distance,<quantities>;
    a row that is no PredictionOutcome is a ParseError at its line."""
    neighbor, distance, *quantities = (cell.strip() for cell in cells)
    parsed = _parse_float(path, line, distance) if distance else None
    try:
        return PredictionOutcome(_basket(path, line, quantities), neighbor or None, parsed)
    except InvalidInputError as exc:
        raise ParseError(path, str(exc), line) from None


# ---------------------------------------------------------------------------
# score reports


def write_report(
    reports: ScoreReport | Sequence[ScoreReport],
    path,
    format: str = "csv",
    labels: str | Sequence[str] | None = None,
) -> None:
    """Serialize score reports with fixed 4-decimal scores.

    csv columns: predictor,s_z,one_minus_dH,one_minus_dHplus,s_pre,s_pro,
    s_pro_x_pre,n; one row per report in input order. json mirrors the same
    field names (an object for a single report, an array for a sequence).
    The labels fill the predictor column.
    """
    single = isinstance(reports, ScoreReport)
    items: list[ScoreReport] = [reports] if single else list(reports)
    if labels is None:
        names = [""] * len(items)
    elif isinstance(labels, str):
        names = [labels] * len(items)
    else:
        names = [str(label) for label in labels]
    if len(names) != len(items):
        raise InvalidInputError(f"{len(names)} labels for {len(items)} reports")

    if format == "csv":
        _write_rows(path, REPORT_COLUMNS, (
            [label, *(f"{value:.4f}" for value in report.values()), report.n_evaluated]
            for label, report in zip(names, items)
        ))
    elif format == "json":
        payload: object = [
            dict(zip(REPORT_COLUMNS, [label, *(round(value, 4) for value in report.values()),
                                      report.n_evaluated]))
            for label, report in zip(names, items)
        ]
        if single:
            payload = payload[0]
        with _open_out(path) as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    else:
        raise InvalidInputError(f"unknown report format {format!r}; expected 'csv' or 'json'")
