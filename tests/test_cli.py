"""End-to-end tests for the command-line interface."""

import importlib.metadata
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from garma import rgarma, spectrum_test
from garma.cli import main

REFERENCE_ACF = [1.0, 0.83519207, 0.52763321, 0.25506815, 0.09852788, 0.02780867]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(path.read_text(encoding="utf-8"))


def _run_console_script(entry, *argv):
    """Run ``entry`` in a fresh interpreter as pip's console-script wrapper does."""
    wrapper = (
        f"import sys; from {entry.module} import {entry.attr}; "
        f"sys.exit({entry.attr}())"
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *argv], capture_output=True, text=True
    )


def parse_csv(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    return rows


class TestAcf:
    def test_reference_correlations(self, capsys):
        code, out, _ = run_cli(
            capsys, "acf", "--n", "6", "--ar", "0.8,-0.2", "--ma", "0.6,0.3", "--corr"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        values = [float(tok) for tok in rows[0]]
        assert np.max(np.abs(np.array(values) - REFERENCE_ACF)) < 5e-8

    def test_autocovariance_default(self, capsys):
        code, out, _ = run_cli(capsys, "acf", "--n", "3", "--ar", "0.5")
        assert code == 0
        values = [float(tok) for tok in parse_csv(out)[0]]
        assert values[0] == pytest.approx(4 / 3, rel=1e-12, abs=0.0)
        assert values[1] == pytest.approx(2 / 3, rel=1e-12, abs=0.0)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "acf", "--n", "2", "--ar", "0.5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["labels"] == ["Lag[0]", "Lag[1]"]
        assert payload["values"][0] == pytest.approx(4 / 3, rel=1e-12, abs=0.0)
        assert payload["warnings"] == []

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "acf", "--ar", "0.5")
        assert code == 1
        assert "--n" in err

    def test_nonstationary_is_model_error(self, capsys):
        code, _, err = run_cli(capsys, "acf", "--n", "3", "--ar", "1.1")
        assert code == 2
        assert "stationar" in err.lower()

    def test_bad_coefficient_string(self, capsys):
        code, _, err = run_cli(capsys, "acf", "--n", "3", "--ar", "0.5,oops")
        assert code == 1
        assert "--ar" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "acf.csv"
        code, out, _ = run_cli(
            capsys, "acf", "--n", "2", "--ar", "0.5", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("1.333")


class TestVar:
    def test_matrix_shape_and_symmetry(self, capsys):
        code, out, _ = run_cli(capsys, "var", "--n", "4", "--ar", "0.5")
        assert code == 0
        rows = parse_csv(out)
        matrix = np.array([[float(tok) for tok in row] for row in rows])
        assert matrix.shape == (4, 4)
        assert np.array_equal(matrix, matrix.T)

    def test_correlation_unit_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "var", "--n", "3", "--ar", "0.5", "--corr")
        matrix = np.array(
            [[float(tok) for tok in row] for row in parse_csv(out)]
        )
        assert np.array_equal(np.diag(matrix), np.ones(3))

    def test_conditional_drops_positions(self, capsys):
        code, out, _ = run_cli(
            capsys, "var", "--n", "3", "--ar", "0.5", "--condvals", "NA,0,NA"
        )
        assert code == 0
        rows = parse_csv(out)
        matrix = np.array([[float(tok) for tok in row] for row in rows])
        assert matrix.shape == (2, 2)
        # Conditioning on the middle position of a lag-one model makes the
        # outer pair independent.
        assert np.array_equal(matrix, np.eye(2))

    def test_conditional_correlation(self, capsys):
        code, out, _ = run_cli(
            capsys, "var", "--n", "3", "--ar", "0.5", "--condvals", "NA,NA,0", "--corr"
        )
        assert code == 0
        matrix = np.array([[float(tok) for tok in row] for row in parse_csv(out)])
        # Given x3: var(x1) = 5/4, var(x2) = 1 and cov(x1, x2) = 1/2.
        assert np.array_equal(np.diag(matrix), np.ones(2))
        assert matrix[0, 1] == pytest.approx(0.5 / np.sqrt(1.25), abs=1e-15)

    def test_condvals_from_file(self, capsys, tmp_path):
        cv = tmp_path / "cv.csv"
        cv.write_text("NA,0,NA\n")
        code, out, _ = run_cli(
            capsys, "var", "--n", "3", "--ar", "0.5", "--condvals", f"@{cv}"
        )
        assert code == 0
        assert len(parse_csv(out)) == 2

    def test_lowercase_nan_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "var", "--n", "3", "--ar", "0.5", "--condvals", "nan,0,nan"
        )
        assert code == 1
        assert "NA" in err


class TestDensity:
    def write_series(self, tmp_path, rows):
        path = tmp_path / "x.csv"
        path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        return path

    def test_density_values(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [[0.0, 0.0], [1.0, -1.0]])
        code, out, _ = run_cli(capsys, "density", "--input", str(path), "--ar", "0.5")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1 and len(rows[0]) == 2  # one value per series row
        assert float(rows[0][0]) > float(rows[0][1])

    def test_log_flag_json(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [[0.0, 0.0]])
        code, out, _ = run_cli(
            capsys,
            "density", "--input", str(path), "--ar", "0.5", "--log",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["log"] is True
        assert payload["values"][0] < 0.0

    def test_na_marginalises(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0.0,NA,0.5\n")
        code, out, _ = run_cli(capsys, "density", "--input", str(path), "--ar", "0.5")
        assert code == 0

    def test_nan_spelling_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0.0,nan,0.5\n")
        code, _, err = run_cli(capsys, "density", "--input", str(path), "--ar", "0.5")
        assert code == 1
        assert "NA" in err

    def test_cond_index_uses_row_value(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [[2.0, 0.5]])
        code, out, _ = run_cli(
            capsys, "density", "--input", str(path), "--ar", "0.5", "--cond", "1"
        )
        assert code == 0
        from scipy.stats import norm

        # X2 | X1=2 for the lag-one model is N(1, 1).
        assert float(parse_csv(out)[0][0]) == pytest.approx(
            norm.pdf(0.5, loc=1.0, scale=1.0), rel=1e-10, abs=0.0
        )

    def test_cond_index_value_overrides_row(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [[2.0, 0.5]])
        code, out, _ = run_cli(
            capsys, "density", "--input", str(path), "--ar", "0.5", "--cond", "1:0"
        )
        assert code == 0
        from scipy.stats import norm

        assert float(parse_csv(out)[0][0]) == pytest.approx(
            norm.pdf(0.5, loc=0.0, scale=1.0), rel=1e-10, abs=0.0
        )

    def test_all_conditioned_warning_in_json(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [[1.0, 2.0]])
        code, out, _ = run_cli(
            capsys,
            "density", "--input", str(path), "--ar", "0.5",
            "--cond", "1,2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == [1.0]
        assert len(payload["warnings"]) == 1
        assert "convention" in payload["warnings"][0]

    def test_all_conditioned_warning_on_stderr_for_csv(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [[1.0, 2.0]])
        code, out, err = run_cli(
            capsys, "density", "--input", str(path), "--ar", "0.5", "--cond", "1,2"
        )
        assert code == 0
        assert "convention" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "density", "--input", str(tmp_path / "absent.csv"), "--ar", "0.5"
        )
        assert code == 1

    def test_cond_zero_index_rejected(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [[1.0, 2.0]])
        code, _, err = run_cli(
            capsys, "density", "--input", str(path), "--ar", "0.5", "--cond", "0"
        )
        assert code == 1
        assert "--cond" in err

    def test_all_missing_row_is_model_error(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [["NA", "NA", "NA"]])
        code, out, err = run_cli(capsys, "density", "--input", str(path), "--ar", "0.5")
        assert code == 2
        assert out == ""
        assert "marginalised" in err

    def test_cond_on_missing_is_model_error(self, capsys, tmp_path):
        path = self.write_series(tmp_path, [["NA", 1.0]])
        code, out, err = run_cli(
            capsys, "density", "--input", str(path), "--ar", "0.5", "--cond", "1,2"
        )
        assert code == 2
        assert out == ""
        assert "missing" in err


class TestCdf:
    def write_series(self, tmp_path, text):
        path = tmp_path / "q.csv"
        path.write_text(text)
        return path

    def test_all_missing_row_is_model_error(self, capsys, tmp_path):
        path = self.write_series(tmp_path, "NA,NA,NA\n")
        code, out, err = run_cli(capsys, "cdf", "--input", str(path), "--ar", "0.5")
        assert code == 2
        assert out == ""
        assert "marginalised" in err

    def test_two_free_no_seed_needed(self, capsys, tmp_path):
        path = self.write_series(tmp_path, "0.0,0.0\n")
        code, out, _ = run_cli(capsys, "cdf", "--input", str(path), "--ar", "0.5")
        assert code == 0
        assert float(parse_csv(out)[0][0]) == pytest.approx(1 / 3, abs=1e-9)

    def test_three_free_requires_seed(self, capsys, tmp_path):
        path = self.write_series(tmp_path, "0.0,0.0,0.0\n")
        code, _, err = run_cli(capsys, "cdf", "--input", str(path), "--ar", "0.5")
        assert code == 1
        assert "--seed" in err and "--nondeterministic" in err

    def test_three_free_with_seed(self, capsys, tmp_path):
        path = self.write_series(tmp_path, "0.0,0.0,0.0\n")
        code, out, _ = run_cli(
            capsys, "cdf", "--input", str(path), "--ar", "0.5", "--seed", "11"
        )
        assert code == 0
        value = float(parse_csv(out)[0][0])
        assert 0.2 < value < 0.4

    def test_three_free_nondeterministic(self, capsys, tmp_path):
        path = self.write_series(tmp_path, "0.0,0.0,0.0\n")
        code, out, _ = run_cli(
            capsys, "cdf", "--input", str(path), "--ar", "0.5", "--nondeterministic"
        )
        assert code == 0

    def test_conditioning_reduces_free_count(self, capsys, tmp_path):
        # Three positions but one conditioned: no seed requirement.
        path = self.write_series(tmp_path, "1.0,0.0,0.0\n")
        code, out, _ = run_cli(
            capsys, "cdf", "--input", str(path), "--ar", "0.5", "--cond", "1"
        )
        assert code == 0

    def test_empty_cond_tokens_are_skipped(self, capsys, tmp_path):
        path = self.write_series(tmp_path, "1.0,0.5,0.0,-0.2\n")
        args = ("cdf", "--input", str(path), "--ar", "0.5", "--format", "json", "--cond")
        want = run_cli(capsys, *args, "1,2")
        assert want[0] == 0
        assert run_cli(capsys, *args, "1,,2") == want

    def test_seeded_rerun_identical(self, capsys, tmp_path):
        path = self.write_series(tmp_path, "0.1,0.2,0.3\n")
        _, first, _ = run_cli(
            capsys, "cdf", "--input", str(path), "--ar", "0.5", "--seed", "42"
        )
        _, second, _ = run_cli(
            capsys, "cdf", "--input", str(path), "--ar", "0.5", "--seed", "42"
        )
        assert first == second


class TestSample:
    def test_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--n", "2", "--m", "3")
        assert code == 1
        assert "--seed" in err

    def test_negative_seed_is_typed_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "1", "--m", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: seed must be a non-negative integer, got -1"

    def test_seeded_rerun_byte_identical(self, capsys):
        args = ("sample", "--n", "3", "--m", "4", "--ar", "0.5", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert len(parse_csv(first)) == 3

    def test_matches_library_bitwise_through_csv(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sample", "--n", "2", "--m", "3", "--ar", "0.6", "--ma", "0.2",
            "--seed", "77",
        )
        got = np.array(
            [[float(tok) for tok in row] for row in parse_csv(out)]
        )
        from garma import ArmaSpec

        want = rgarma(2, 3, ArmaSpec(ar=(0.6,), ma=(0.2,)), seed=77)
        assert np.array_equal(got, want)  # %.17g survives the round trip

    def test_condvals_pinned_in_output(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sample", "--n", "4", "--m", "3", "--ar", "0.5",
            "--condvals", "NA,-4,NA", "--seed", "3",
        )
        rows = parse_csv(out)
        pinned = [row[1] for row in rows]
        assert pinned == ["-4"] * 4

    def test_plot_written(self, capsys, tmp_path):
        svg = tmp_path / "draws.svg"
        code, _, _ = run_cli(
            capsys,
            "sample", "--n", "2", "--m", "8", "--ar", "0.5", "--seed", "1",
            "--plot", str(svg),
        )
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg")
        assert "polyline" in content

    def test_nondeterministic_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "1", "--m", "2", "--nondeterministic"
        )
        assert code == 0


class TestIntensity:
    def test_csv_labels_and_values(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0,3.0,4.0\n")
        code, out, _ = run_cli(capsys, "intensity", "--input", str(path))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1 and len(rows[0]) == 3
        assert float(rows[0][0]) == 0.0

    def test_flag_combinations(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0,3.0,4.0\n")
        code, out, _ = run_cli(
            capsys,
            "intensity", "--input", str(path),
            "--no-centred", "--no-scaled", "--no-nyquist",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows[0]) == 4  # full frequency range
        assert float(rows[0][0]) == pytest.approx(10 / 2, rel=1e-12, abs=0.0)  # |sum|/sqrt(n)

    def test_constant_series_error(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("2.0,2.0,2.0\n")
        code, _, err = run_cli(capsys, "intensity", "--input", str(path))
        assert code == 2

    def test_plot_written(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,5.0,2.0,4.0,3.0,1.0\n")
        svg = tmp_path / "iv.svg"
        code, _, _ = run_cli(
            capsys, "intensity", "--input", str(path), "--plot", str(svg)
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")


class TestSpectrumTest:
    def write_series(self, tmp_path, values):
        path = tmp_path / "x.csv"
        path.write_text(",".join(map(str, values)) + "\n")
        return path

    def test_requires_seed(self, capsys, tmp_path):
        path = self.write_series(tmp_path, np.arange(10.0))
        code, _, err = run_cli(capsys, "spectrum-test", "--input", str(path))
        assert code == 1
        assert "--seed" in err

    def test_json_fields(self, capsys, tmp_path):
        rng = np.random.default_rng(41)
        path = self.write_series(tmp_path, rng.normal(size=16))
        code, out, _ = run_cli(
            capsys,
            "spectrum-test", "--input", str(path), "--sims", "200", "--seed", "9",
            "--no-progress", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sims"] == 200
        assert payload["seed"] == 9
        assert 0.0 < payload["p_value"] <= 1.0
        assert payload["statistic"] > 0.0

    def test_matches_library(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        x = rng.normal(size=14)
        path = self.write_series(tmp_path, x)
        _, out, _ = run_cli(
            capsys,
            "spectrum-test", "--input", str(path), "--sims", "300", "--seed", "5",
            "--no-progress", "--format", "json",
        )
        payload = json.loads(out)
        direct = spectrum_test(x, sims=300, seed=5, progress=False)
        assert payload["p_value"] == direct.p_value

    def test_worker_invariance_through_cli(self, capsys, tmp_path):
        rng = np.random.default_rng(43)
        path = self.write_series(tmp_path, rng.normal(size=32))
        base = (
            "spectrum-test", "--input", str(path), "--sims", "2000", "--seed", "3",
            "--no-progress",
        )
        _, one, _ = run_cli(capsys, *base, "--workers", "1")
        _, four, _ = run_cli(capsys, *base, "--workers", "4")
        assert one == four

    def test_plot_written(self, capsys, tmp_path):
        rng = np.random.default_rng(44)
        path = self.write_series(tmp_path, rng.normal(size=20))
        svg = tmp_path / "st.svg"
        code, _, _ = run_cli(
            capsys,
            "spectrum-test", "--input", str(path), "--sims", "100", "--seed", "2",
            "--no-progress", "--plot", str(svg),
        )
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg")

    def test_plot_of_three_observations(self, capsys, tmp_path):
        # The null sample spans a few ulps here; the plot is still drawn.
        path = self.write_series(tmp_path, np.random.default_rng(5).standard_normal(3))
        svg = tmp_path / "n3.svg"
        code, _, err = run_cli(
            capsys,
            "spectrum-test", "--input", str(path), "--sims", "1", "--seed", "1",
            "--no-progress", "--plot", str(svg),
        )
        assert (code, err) == (0, "")
        assert svg.read_text().startswith("<svg")

    def test_multi_row_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        code, _, err = run_cli(
            capsys, "spectrum-test", "--input", str(path), "--seed", "1"
        )
        assert code != 0


class TestFlagValues:
    """Count, tolerance, variance and mean flags are checked while parsing: a
    bad value is a usage error that names the flag."""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (("acf",), "--n", "0"),
            (("var",), "--n", "0"),
            (("sample", "--m", "3", "--seed", "1"), "--n", "0"),
            (("sample", "--n", "2", "--seed", "1"), "--m", "0"),
            (("spectrum-test", "--seed", "1"), "--sims", "0"),
            (("spectrum-test", "--seed", "1"), "--workers", "0"),
            (("cdf",), "--tol", "0"),
            (("cdf",), "--tol", "-0.5"),
            (("cdf",), "--tol", "nan"),
            (("cdf",), "--tol", "inf"),
            (("cdf",), "--tol", "-1e-5"),
            (("acf", "--n", "2"), "--errorvar", "0"),
            (("acf", "--n", "2"), "--errorvar", "-1"),
            (("acf", "--n", "2"), "--errorvar", "nan"),
            (("acf", "--n", "2"), "--errorvar", "inf"),
        ],
    )
    def test_value_out_of_range(self, capsys, tmp_path, argv, flag, value):
        path = tmp_path / "x.csv"
        path.write_text("0.5,1.0,-0.5,2.0\n")
        if argv[0] in ("cdf", "spectrum-test"):
            argv = (*argv, "--input", str(path))
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out) == (1, "")
        assert err == f"usage error: argument {flag}: must be finite and > 0, got {value}\n"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_mean_not_finite(self, capsys, value):
        code, out, err = run_cli(capsys, "acf", "--n", "2", "--mean", value)
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --mean: must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("acf", "--n", "3", "--ar", "-0.5,0.2"), 0),
            (("acf", "--n", "3", "--ma", "-1e-3"), 0),
            (("var", "--n", "3", "--condvals", "-1,NA,2"), 0),
            (("cdf", "--input", "x.csv", "--tol", "-1e-5"), 1),
        ],
    )
    def test_negative_value_after_flag(self, capsys, argv, code):
        # A value starting with '-' and a digit belongs to the flag before it,
        # exactly as in the --flag=value spelling.
        spaced = run_cli(capsys, *argv)
        joined = run_cli(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
        assert spaced == joined
        assert spaced[0] == code
        assert "expected one argument" not in spaced[2]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("acf", "--n", "x"), "argument --n: invalid int value: 'x'"),
            (("acf", "--n", "1.5"), "argument --n: invalid int value: '1.5'"),
            (("cdf", "--input", "x.csv", "--tol", "a"), "argument --tol: invalid float value: 'a'"),
        ],
    )
    def test_unparsable_value(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")


# Input files for the usage-error tests, by the name their argv uses.
FILES = {
    "na.csv": "0.3,NA,0.1,0.5\n",
    "ok.csv": "0.3,0.2\n",
    "two.csv": "1,2\n3,4\n",
    "empty.csv": "\n\n",
    "ragged.csv": "1,2,3\n4,5\n",
}


def with_files(tmp_path, argv):
    """``argv`` with each name in FILES written to ``tmp_path`` and replaced
    by its path there (an ``@`` prefix kept)."""
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)

    def path(arg):
        at, name = ("@", arg[1:]) if arg.startswith("@") else ("", arg)
        return f"{at}{tmp_path / name}" if name in FILES else arg

    return [path(arg) for arg in argv]


class TestNonFiniteTokens:
    """A non-finite number other than the token NA is a usage error naming
    its flag, in a CSV cell and in every flag that takes numbers."""

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999"])
    def test_input_cell(self, capsys, tmp_path, token):
        path = tmp_path / "x.csv"
        path.write_text(f"0.3,{token},0.1\n")
        code, out, err = run_cli(capsys, "density", "--input", str(path), "--ar", "0.5")
        assert (code, out) == (1, "")
        assert err == (f"usage error: --input: values must be finite numbers or the token NA, "
                       f"not {token!r}\n")

    @pytest.mark.parametrize("argv, flag, token", [
        (("var", "--n", "3", "--condvals", "1,inf,NA"), "--condvals", "inf"),
        (("sample", "--n", "1", "--m", "2", "--seed", "1", "--condvals=-inf,NA"),
         "--condvals", "-inf"),
        (("density", "--input", "ok.csv", "--cond", "1:inf"), "--cond", "inf"),
        (("acf", "--n", "3", "--ar", "0.5,inf"), "--ar", "inf"),
        (("acf", "--n", "3", "--ma=-inf"), "--ma", "-inf"),
    ])
    def test_flag_value(self, capsys, tmp_path, argv, flag, token):
        code, out, err = run_cli(capsys, *with_files(tmp_path, argv))
        assert (code, out) == (1, "")
        assert err == (f"usage error: {flag}: values must be finite numbers or the token NA, "
                       f"not {token!r}\n")


class TestUsageErrors:
    """Malformed input files and flag values are usage errors, each with its
    own message."""

    @pytest.mark.parametrize("argv, message", [
        (("intensity", "--input", "na.csv"), "--input: intensity input must not contain NA values"),
        (("spectrum-test", "--input", "na.csv", "--seed", "1"),
         "--input: spectrum-test input must not contain NA values"),
        (("var", "--n", "3", "--condvals", "1,NA"), "--condvals has length 2, --n is 3"),
        (("var", "--n", "2", "--condvals", "@two.csv"),
         "--condvals: {two} must contain exactly one row"),
        (("density", "--input", "ok.csv", "--cond", "x"), "--cond: bad index 'x'"),
        (("density", "--input", "ok.csv", "--cond", "1:NA"),
         "--cond: conditioning values must be numbers, not NA"),
        (("acf", "--n", "3", "--ar", "NA"), "--ar/--ma coefficients must be numbers, not NA"),
        (("density", "--input", "empty.csv"), "--input: {empty} contains no data rows"),
        (("density", "--input", "ragged.csv"),
         "--input: rows in {ragged} have unequal lengths [2, 3]"),
    ])
    def test_message(self, capsys, tmp_path, argv, message):
        code, out, err = run_cli(capsys, *with_files(tmp_path, argv))
        paths = {name.removesuffix(".csv"): tmp_path / name for name in FILES}
        assert (code, out) == (1, "")
        assert err == f"usage error: {message.format(**paths)}\n"


class TestUnwritablePaths:
    def test_output(self, capsys, tmp_path):
        target = tmp_path / "absent" / "acf.csv"
        code, out, err = run_cli(
            capsys, "acf", "--n", "2", "--ar", "0.5", "--output", str(target)
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: --output: cannot write {target}: ")

    def test_plot_fails_before_any_output(self, capsys, tmp_path):
        target = tmp_path / "absent" / "draws.svg"
        base = ("sample", "--n", "2", "--m", "3", "--seed", "1", "--plot", str(target))
        code, out, err = run_cli(capsys, *base)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: --plot: cannot write {target}: ")
        csv = tmp_path / "draws.csv"
        code, _, _ = run_cli(capsys, *base, "--output", str(csv))
        assert code == 1
        assert not csv.exists()


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_console_script_installed(self):
        # The console script declared in pyproject.toml, run the way the
        # wrapper that pip generates runs it, so no install step is needed.
        scripts = _pyproject()["project"]["scripts"]
        assert scripts["garma"] == "garma.cli:main"
        entry = importlib.metadata.EntryPoint(
            name="garma", value=scripts["garma"], group="console_scripts"
        )
        assert entry.load() is main

        result = _run_console_script(entry, "acf", "--n", "2", "--ar", "0.5")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("1.333")
        # The 0/1/2 exit codes reach the shell only because the wrapper
        # hands main's return value to sys.exit.
        assert _run_console_script(entry, "frobnicate").returncode == 1

    @pytest.mark.skipif(
        shutil.which("garma") is None,
        reason="the garma console script is not installed on PATH",
    )
    def test_console_script_on_path(self):
        result = subprocess.run(
            ["garma", "acf", "--n", "2", "--ar", "0.5"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("1.333")

    def test_python_dash_m_entry(self):
        result = subprocess.run(
            [sys.executable, "-m", "garma.cli", "acf", "--n", "2"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
