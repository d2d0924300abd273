"""CSV emitters: column-wise rendering against a row-by-row reference."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from ncres.heatzeta import heat_samples
from ncres.spectral import SpectralWeight, SpectrumModel, dixmier_estimate, \
    enumerate_spectrum
from ncres.writers import _cells, _fmt, csv_bytes, dixmier_csv, heat_csv

EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1e16,
               1e22, -2.5, 0.0]


def _reference_table(header, rows):
    # one csv.writer row per record, one _fmt call per value
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header)
    out.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _table(data):
    return "".join(line for line in data.decode().splitlines(keepends=True)
                   if not line.startswith("#"))


def _assert_same_table(data, header, rows):
    # the first differing line, not a diff of thousands of lines
    got = _table(data).splitlines()
    want = _reference_table(header, rows).splitlines()
    assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None
    assert len(got) == len(want)


def test_float_column_renders_as_each_value():
    column = np.array(EDGE_FLOATS)
    # iterating the array gives float64 scalars, as the rows once held
    assert list(_cells(column)) == [_fmt(v) for v in column]
    assert list(_cells(EDGE_FLOATS)) == [repr(v) for v in EDGE_FLOATS]


def test_integral_float_column_renders_as_integers():
    points = np.array([2.0, 3.0, 1e6, 2.0 ** 53])
    assert list(_cells(points.astype(np.int64))) == \
        [_fmt(int(p)) for p in points] == \
        ["2", "3", "1000000", "9007199254740992"]


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_text_cells_are_quoted(cell):
    table = _table(csv_bytes({}, ["name", "value"],
                             [[cell, "plain"], [1.5, 2]]))
    assert list(csv.reader(io.StringIO(table, newline=""))) == \
        [["name", "value"], [cell, "1.5"], ["plain", "2"]]
    # a bare carriage return is quoted too, which csv.writer with a "\n"
    # line terminator leaves to the Python version
    if "\r" not in cell:
        assert table == _reference_table(["name", "value"],
                                         [(cell, 1.5), ("plain", 2)])


def test_dixmier_csv_matches_row_reference():
    spec = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 200))
    est = dixmier_estimate(spec, SpectralWeight(power=-1.0, shift=1.0))
    # an N at 2^53 and the edge floats in every float column
    k = len(EDGE_FLOATS)
    est = replace(
        est,
        cesaro_points=np.append(est.cesaro_points, 2.0 ** 53),
        sigma_values=np.append(est.sigma_values[:-k], EDGE_FLOATS + [1.0]),
        ratio_values=np.append(EDGE_FLOATS, est.ratio_values[k - 1:]),
        cesaro_values=np.append(est.cesaro_values, 1e22))
    rows = [(int(p), float(s), float(r), float(v))
            for p, s, r, v in zip(est.cesaro_points, est.sigma_values,
                                  est.ratio_values, est.cesaro_values)]
    assert len(rows) == est.cesaro_points.size > 1000
    _assert_same_table(dixmier_csv(est, {}),
                       ["N", "sigma_N", "sigma_over_lnN", "cesaro_mean"], rows)


def test_heat_csv_matches_row_reference():
    spec = enumerate_spectrum(SpectrumModel("torus_lattice", 2, 100))
    s = heat_samples(SpectralWeight(power=-1.0, shift=1.0),
                     SpectralWeight(power=1.0, shift=1.0), spec,
                     np.geomspace(1e-3, 40.0, 50))
    rows = list(zip(s.t, s.values, s.tail_bounds))
    _assert_same_table(heat_csv(s, {}), ["t", "value", "tail_bound"], rows)
