"""Command-line interface.

Subcommands mirror the library: acf, var, density, cdf, sample, intensity,
spectrum-test.  Series move through CSV (one series per row, no header, the
case-sensitive token NA for missing values, 17 significant digits) or
through JSON, which also carries any warnings raised during the run.

Exit codes: 0 success, 1 usage error, 2 computation error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
import warnings

import numpy as np

from . import __version__
from .arma import ArmaSpec, acf_vector, variance_matrix
from .conditioning import build_pattern
from .distribution import dgarma, pgarma, rgarma
from .errors import GarmaError, GarmaWarning
from .mvn import DEFAULT_CDF_SEED
from .spectral import ALTERNATIVE_TEXT, intensity, spectrum_test
from .svgplots import emit_plot

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token like -1e-3 or -0.5,0.2 is a value, as -5 and -0.5 are to argparse.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _fmt_value(v) -> str:
    if np.isnan(v):
        return "NA"
    return format(float(v), ".17g")


def _csv_text(rows):
    return "".join(",".join(_fmt_value(v) for v in row) + "\n"
                   for row in np.atleast_2d(np.asarray(rows, dtype=float)))


def _parse_float_token(token, where):
    token = token.strip()
    if token == "NA":
        return float("nan")
    try:
        value = float(token)
    except ValueError:
        raise UsageError(f"{where}: cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise UsageError(f"{where}: values must be finite numbers or the token NA, not {token!r}")
    return value


def _read_csv(path, where):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise UsageError(f"{where}: cannot read {path}: {exc}") from None
    if not lines:
        raise UsageError(f"{where}: {path} contains no data rows")
    rows = [
        [_parse_float_token(tok, where) for tok in line.split(",")]
        for line in lines
    ]
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise UsageError(f"{where}: rows in {path} have unequal lengths {sorted(lengths)}")
    return np.asarray(rows, dtype=float)


def _parse_list(text, flag):
    return [ _parse_float_token(tok, flag) for tok in text.split(",") if tok.strip() != "" ]


def _parse_condvals(text, length, length_flag):
    """--condvals as a vector of the ``length`` that ``length_flag`` sets."""
    if text.startswith("@"):
        rows = _read_csv(text[1:], "--condvals")
        if rows.shape[0] != 1:
            raise UsageError(f"--condvals: {text[1:]} must contain exactly one row")
        values = rows[0]
    else:
        values = np.asarray(_parse_list(text, "--condvals"), dtype=float)
    if len(values) != length:
        raise UsageError(f"--condvals has length {len(values)}, {length_flag} is {length}")
    return values


def _parse_cond(text, rows):
    """--cond entries are 1-based indices, either bare (condition on the value
    already in each data row) or index:value (pin that value into every row
    of ``rows``, as it is parsed).  Returns the flags."""
    m = rows.shape[1]
    flags = np.zeros(m, dtype=bool)
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            idx_text, value_text = token.split(":", 1)
        else:
            idx_text, value_text = token, None
        try:
            idx = int(idx_text)
        except ValueError:
            raise UsageError(f"--cond: bad index {idx_text!r}") from None
        if not 1 <= idx <= m:
            raise UsageError(f"--cond: index {idx} outside 1..{m}")
        flags[idx - 1] = True
        if value_text is not None:
            value = _parse_float_token(value_text, "--cond")
            if np.isnan(value):
                raise UsageError("--cond: conditioning values must be numbers, not NA")
            rows[:, idx - 1] = value
    return flags


def _spec_from_args(args) -> ArmaSpec:
    ar = _parse_list(args.ar, "--ar")
    ma = _parse_list(args.ma, "--ma")
    if any(np.isnan(v) for v in ar) or any(np.isnan(v) for v in ma):
        raise UsageError("--ar/--ma coefficients must be numbers, not NA")
    return ArmaSpec(ar=ar, ma=ma, mean=args.mean, error_var=args.errorvar)


def _effective_seed(args, needed_reason):
    if args.seed is not None or args.nondeterministic:
        return args.seed
    raise UsageError(
        f"--seed is required {needed_reason} "
        "(pass --nondeterministic to opt out of reproducibility)"
    )


def _finite(parse, low=-math.inf):
    """An argparse type: ``parse``, then require ``low < value < inf``.  Its name
    stays ``parse``'s, so argparse still reports "invalid int value"."""
    def check(text):
        value = parse(text)
        if not low < value < math.inf:
            bound = "" if low == -math.inf else f" and > {low}"
            raise argparse.ArgumentTypeError(f"must be finite{bound}, got {text}")
        return value

    check.__name__ = parse.__name__
    return check


def _add_model_flags(sub):
    sub.add_argument("--ar", default="", metavar="C1,C2,...",
                     help="autoregressive coefficients")
    sub.add_argument("--ma", default="", metavar="C1,C2,...",
                     help="moving-average coefficients")
    sub.add_argument("--mean", type=_finite(float), default=0.0, help="stationary mean")
    sub.add_argument("--errorvar", type=_finite(float, 0), default=1.0,
                     help="innovation variance (> 0)")


def _add_cond_flags(sub, log_help):
    sub.add_argument("--cond", metavar="I or I:V,...",
                     help="1-based positions to condition on (optionally pinned to V)")
    sub.add_argument("--log", action="store_true", help=log_help)


def _add_seed_flags(sub, seed_help):
    sub.add_argument("--seed", type=int, help=seed_help)
    sub.add_argument("--nondeterministic", action="store_true",
                     help="allow running without --seed")


def _add_io_flags(sub, handler, plot=False):
    """Bind the command's ``handler`` and add the output flags every command has."""
    sub.set_defaults(handler=handler)
    sub.add_argument("--output", metavar="PATH", help="write results here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    if plot:
        sub.add_argument("--plot", metavar="PATH.svg", help="also write an SVG plot")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="garma",
                     description="Stationary Gaussian ARMA distributions and spectral tests")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    acf = subs.add_parser("acf", help="autocovariance or autocorrelation at lags 0..n-1")
    acf.add_argument("--n", type=_finite(int, 0), required=True, help="number of lags (>= 1)")
    acf.add_argument("--corr", action="store_true", help="return correlations")
    _add_model_flags(acf)
    _add_io_flags(acf, _cmd_acf)

    var = subs.add_parser("var", help="(conditional) variance or correlation matrix")
    var.add_argument("--n", type=_finite(int, 0), required=True,
                     help="number of observations (>= 1)")
    var.add_argument("--corr", action="store_true", help="return correlations")
    var.add_argument("--condvals", metavar="V1,NA,V3,... or @FILE.csv",
                     help="conditioning pattern: numbers condition, NA stays free")
    _add_model_flags(var)
    _add_io_flags(var, _cmd_var)

    density = subs.add_parser("density", help="density of each series row")
    density.add_argument("--input", required=True, metavar="FILE.csv",
                         help="series rows; NA marginalises a position")
    _add_cond_flags(density, "return log-densities")
    _add_model_flags(density)
    _add_io_flags(density, _cmd_density)

    cdf = subs.add_parser("cdf", help="P(free positions <= row values)")
    cdf.add_argument("--input", required=True, metavar="FILE.csv")
    _add_cond_flags(cdf, "return log-probabilities")
    cdf.add_argument("--tol", type=_finite(float, 0), default=1e-5,
                     help="standard-error target for the monte carlo CDF (default 1e-5)")
    _add_seed_flags(cdf, "seed (required when 3+ free positions remain)")
    _add_model_flags(cdf)
    _add_io_flags(cdf, _cmd_cdf)

    smp = subs.add_parser("sample", help="draw series rows from the model")
    smp.add_argument("--n", type=_finite(int, 0), required=True,
                     help="number of series to draw")
    smp.add_argument("--m", type=_finite(int, 0), required=True, help="length of each series")
    smp.add_argument("--condvals", metavar="V1,NA,V3,... or @FILE.csv",
                     help="pin positions with numbers; NA positions are drawn")
    _add_seed_flags(smp, "seed (required unless --nondeterministic)")
    _add_model_flags(smp)
    _add_io_flags(smp, _cmd_sample, plot=True)

    inten = subs.add_parser("intensity", help="Fourier intensity of each series row")
    inten.add_argument("--input", required=True, metavar="FILE.csv")
    inten.add_argument("--centred", action=argparse.BooleanOptionalAction, default=True,
                       help="subtract the mean first (default on)")
    inten.add_argument("--scaled", action=argparse.BooleanOptionalAction, default=True,
                       help="scale to unit average square (default on)")
    inten.add_argument("--nyquist", action=argparse.BooleanOptionalAction, default=True,
                       help="truncate real input beyond the folding frequency (default on)")
    _add_io_flags(inten, _cmd_intensity, plot=True)

    stest = subs.add_parser("spectrum-test",
                            help="permutation test for a periodic signal")
    stest.add_argument("--input", required=True, metavar="FILE.csv",
                       help="a single series row")
    stest.add_argument("--sims", type=_finite(int, 0), default=1_000_000,
                       help="number of permutations (default 1000000)")
    _add_seed_flags(stest, "seed (required unless --nondeterministic)")
    stest.add_argument("--workers", type=_finite(int, 0), default=1,
                       help="worker threads; does not change the result")
    stest.add_argument("--progress", action=argparse.BooleanOptionalAction, default=True,
                       help="progress line on stderr (default on)")
    _add_io_flags(stest, _cmd_spectrum_test, plot=True)

    return parser


def _cmd_acf(args):
    spec = _spec_from_args(args)
    acv = acf_vector(args.n, spec, corr=args.corr)
    return {
        "csv": acv.values[None, :],
        "json": {
            "labels": acv.labels,
            "values": acv.values.tolist(),
            "correlation": bool(acv.is_correlation),
        },
    }


def _cmd_var(args):
    spec = _spec_from_args(args)
    cond = None
    if args.condvals:
        cond = build_pattern(condvals=_parse_condvals(args.condvals, args.n, "--n"))
    vm = variance_matrix(args.n, spec, cond=cond, corr=args.corr)
    return {
        "csv": vm.entries,
        "json": {
            "index_labels": list(vm.index_labels),
            "entries": vm.entries.tolist(),
            "correlation": bool(args.corr),
        },
    }


def _input_rows(args):
    """The --input rows with any --cond values pinned, and the --cond flags."""
    rows = _read_csv(args.input, "--input")
    return rows, _parse_cond(args.cond, rows) if args.cond else None


def _per_row(values, log, **fields):
    """The payload of one value per series row, as density and cdf give."""
    return {
        "csv": values[None, :],
        "json": {
            "labels": [f"Series[{i + 1}]" for i in range(len(values))],
            "values": values.tolist(),
            "log": bool(log),
            **fields,
        },
    }


def _cmd_density(args):
    spec = _spec_from_args(args)
    rows, flags = _input_rows(args)
    return _per_row(dgarma(rows, spec, cond=flags, log=args.log), args.log)


def _cmd_cdf(args):
    spec = _spec_from_args(args)
    rows, flags = _input_rows(args)
    pattern = build_pattern(missing=np.isnan(rows[0]), cond_flags=flags)
    if np.count_nonzero(pattern.free_mask) >= 3:
        seed = _effective_seed(args, "for cdf with 3 or more free positions")
    else:
        seed = args.seed if args.seed is not None else DEFAULT_CDF_SEED
    values = pgarma(rows, spec, cond=flags, log=args.log, tol=args.tol, seed=seed)
    return _per_row(values, args.log, tol=args.tol, seed=seed)


def _cmd_sample(args):
    spec = _spec_from_args(args)
    condvals = _parse_condvals(args.condvals, args.m, "--m") if args.condvals else None
    seed = _effective_seed(args, "for sample")
    draws = rgarma(args.n, args.m, spec, condvals=condvals, seed=seed)
    return {
        "csv": draws,
        "json": {"rows": draws.tolist(), "seed": seed},
        "plot": draws,
    }


def _cmd_intensity(args):
    rows = _read_csv(args.input, "--input")
    if np.isnan(rows).any():
        raise UsageError("--input: intensity input must not contain NA values")
    iv = intensity(rows if rows.shape[0] > 1 else rows[0],
                   centred=args.centred, scaled=args.scaled, nyquist=args.nyquist)
    return {
        "csv": np.atleast_2d(iv.values),
        "json": {
            "labels": iv.labels,
            "frequencies": iv.frequencies.tolist(),
            "values": np.atleast_2d(iv.values).tolist(),
            "centred": iv.centred,
            "scaled": iv.scaled,
            "nyquist_truncated": iv.nyquist_truncated,
            "dof": iv.dof,
        },
        "plot": iv,
    }


def _cmd_spectrum_test(args):
    rows = _read_csv(args.input, "--input")
    if rows.shape[0] != 1:
        raise UsageError("--input: spectrum-test expects exactly one series row")
    if np.isnan(rows).any():
        raise UsageError("--input: spectrum-test input must not contain NA values")
    seed = _effective_seed(args, "for spectrum-test")
    result = spectrum_test(rows[0], sims=args.sims, seed=seed,
                           progress=args.progress, workers=args.workers)
    return {
        "csv": np.asarray([[result.statistic, result.p_value]]),
        "json": {
            "statistic": result.statistic,
            "p_value": result.p_value,
            "n": result.series_len,
            "sims": result.sims,
            "seed": result.seed,
            "alternative": ALTERNATIVE_TEXT,
        },
        "plot": result,
    }


def _jsonable(obj):
    """A payload of plain values for strict JSON: each non-finite float becomes ``None``."""
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


@contextlib.contextmanager
def _writing(flag, path):
    """Report an OSError raised while writing ``path`` as a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"{flag}: cannot write {path}: {exc}") from None


def _emit(payload, args, caught):
    # The plot goes first, so a plot that cannot be written leaves no output.
    if getattr(args, "plot", None):
        with _writing("--plot", args.plot):
            emit_plot(payload["plot"], args.plot)
    if args.format == "json":
        doc = _jsonable(payload["json"])
        doc["warnings"] = [str(w.message) for w in caught]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        text = _csv_text(payload["csv"])
    if args.output:
        with _writing("--output", args.output), open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (try --help)")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GarmaWarning)
            payload = args.handler(args)
        _emit(payload, args, caught)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GarmaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # defensive: unexpected failures are still reported
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
