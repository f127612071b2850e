"""Tests for the SVG plot emitter."""

import numpy as np
import pytest

from garma import InvalidParamError, emit_plot, intensity, spectrum_test


def test_series_plot_deterministic(tmp_path):
    rows = np.random.default_rng(1).normal(size=(3, 12))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(rows, a)
    emit_plot(rows, b)
    content = a.read_text()
    assert content == b.read_text()
    assert content.startswith("<svg")
    assert content.rstrip().endswith("</svg>")
    assert content.count("<polyline") >= 3


def test_intensity_plot(tmp_path):
    iv = intensity(np.random.default_rng(2).normal(size=16))
    path = tmp_path / "iv.svg"
    emit_plot(iv, path)
    content = path.read_text()
    assert content.startswith("<svg")
    assert "<line" in content  # stem per frequency


def test_spectrum_result_plot_has_two_panels(tmp_path):
    x = np.random.default_rng(3).normal(size=20)
    result = spectrum_test(x, sims=200, seed=4, progress=False)
    path = tmp_path / "st.svg"
    emit_plot(result, path)
    content = path.read_text()
    assert content.count("<rect") >= 2  # panel frames plus histogram bars
    assert "p-value" in content or "null" in content.lower()


def test_single_point_series_still_valid_svg(tmp_path):
    path = tmp_path / "tiny.svg"
    emit_plot(np.array([[1.0]]), path)
    content = path.read_text()
    assert content.startswith("<svg")
    assert content.rstrip().endswith("</svg>")


def test_spectrum_result_with_n3_is_plotted(tmp_path):
    # With n = 3 the statistic and the null sample agree up to a few ulps,
    # too narrow a span for the histogram's 40 bins.
    result = spectrum_test(np.random.default_rng(5).standard_normal(3), sims=1, seed=1,
                           progress=False)
    path = tmp_path / "n3.svg"
    emit_plot(result, path)
    content = path.read_text()
    assert content.startswith("<svg")
    assert content.count('fill="#a6c8e0"') == 1  # one histogram bar


def test_series_vector_is_one_row(tmp_path):
    vector, matrix = tmp_path / "vector.svg", tmp_path / "matrix.svg"
    emit_plot(np.array([0.1, -0.2, 0.3]), vector)
    emit_plot(np.array([[0.1, -0.2, 0.3]]), matrix)
    assert vector.read_text() == matrix.read_text()
    assert vector.read_text().count("<polyline") == 1


def test_three_dimensional_array_rejected(tmp_path):
    path = tmp_path / "cube.svg"
    with pytest.raises(InvalidParamError, match="emit_plot accepts a finite series vector"):
        emit_plot(np.zeros((2, 2, 2)), path)
    assert not path.exists()
