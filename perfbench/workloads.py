"""The benchmark's workloads: seeded inputs, one cycle of operations, checks.

A workload is built from a numpy Generator and only hands the generated
inputs to garma's public API.  `ops` is one cycle of the closed loop: a fixed
list of operations whose sizes and mix do not depend on the seed, so runs
with different seeds do the same amount of work.  `check` compares the
results of the first cycle against `oracle`, which shares no code with
garma; it is imported there, after the timed region, so that its scipy
imports never hide garma's own import time in `setup_s`.

Call garma through the module attribute (``g.dgarma``) at call time, never
through a name bound earlier: the traced run rebinds those attributes.
"""

import importlib
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


class Op:
    """One closed-loop operation: ``call()`` runs it, ``kind`` groups its
    latencies, ``units`` divides its latency (rows for pgarma), ``perms``
    counts the permutations it draws (spectrum_test)."""

    __slots__ = ("kind", "call", "units", "perms")

    def __init__(self, kind, call, units=1, perms=0):
        self.kind, self.call, self.units, self.perms = kind, call, units, perms


def _poly_from_roots(roots):
    """c_1 .. c_k of prod_i (1 - z / root_i) = 1 + c_1 z + ... + c_k z^k, for
    real roots or conjugate pairs."""
    poly = np.array([1.0 + 0j])
    for r in roots:
        poly = np.convolve(poly, [1.0, -1.0 / r])
    return tuple(float(c) for c in poly.real[1:])


def _real_roots(rng, count, low, high):
    return [rng.uniform(low, high) * rng.choice([-1.0, 1.0]) for _ in range(count)]


def draw_model(rng, p, q, root, complex_pair=False):
    """Seeded ARMA(p, q) parameters whose smallest AR root modulus is ``root``:
    a conjugate pair at that modulus, or one real root there and any other
    real root with modulus in [2.5, 4].  MA roots have modulus in [2, 4], so
    the spectral density stays away from zero and the covariance matrices
    stay well conditioned."""
    if p == 0:
        ar_roots = []
    elif complex_pair:
        angle = rng.uniform(0.3, 2.8)
        ar_roots = [root * np.exp(1j * angle), root * np.exp(-1j * angle)]
    else:
        ar_roots = [root * rng.choice([-1.0, 1.0])] + _real_roots(rng, p - 1, 2.5, 4.0)
    return dict(
        ar=tuple(-c for c in _poly_from_roots(ar_roots)),
        ma=_poly_from_roots(_real_roots(rng, q, 2.0, 4.0)),
        mean=float(rng.uniform(-1.0, 1.0)),
        error_var=float(rng.uniform(0.5, 2.0)),
    )


def simulate(model, rows, m, rng):
    """Rows of the ARMA recursion started from zero, after a burn-in long
    enough for the start to decay below 1e-12."""
    ar, ma = np.asarray(model["ar"]), np.asarray(model["ma"])
    q = ma.size
    min_root = np.abs(np.roots(np.concatenate((-ar[::-1], [1.0])))).min() if ar.size else np.e
    burn = int(math.ceil(28.0 / math.log(min_root)))
    e = rng.standard_normal((rows, m + burn + q)) * math.sqrt(model["error_var"])
    x = e[:, q:].copy()
    for j in range(q):
        x += ma[j] * e[:, q - j - 1 : q - j - 1 + m + burn]
    y = np.zeros_like(x)
    for t in range(x.shape[1]):
        acc = x[:, t]
        for i in range(min(ar.size, t)):
            acc = acc + ar[i] * y[:, t - i - 1]
        y[:, t] = acc
    return model["mean"] + y[:, burn:]


def _choose(rng, m, count, exclude=None):
    pool = np.arange(m) if exclude is None else np.setdiff1d(np.arange(m), exclude)
    return np.sort(rng.choice(pool, size=count, replace=False))


def _check_density(model, rows, missing, flags, got):
    from oracle import acvf, pattern_log_density

    gamma = acvf(model["ar"], model["ma"], model["error_var"], rows.shape[1])
    want = pattern_log_density(rows, model["mean"], gamma, missing, flags)
    err = np.abs(np.asarray(got, dtype=float) - want)
    if err.shape != want.shape or np.any(err > 1e-8 * np.maximum(1.0, np.abs(want))):
        return f"dgarma log-density off by {np.max(err):.3g} (relative bound 1e-8)"
    return None


class Workload:
    """Base: subclasses build their inputs and `ops` from the Generator and
    override `check`, and where they need to, the other hooks."""

    def __init__(self, g, rng, work_dir, nproc):
        self.g, self.work_dir, self.nproc = g, work_dir, nproc
        self.ops = []
        self.traced = False

    def arma_spec(self, model):
        return self.g.ArmaSpec(**model)

    def warm_up(self):
        """Run each distinct kind of operation once on small inputs."""

    def check(self, results):
        """Map op index -> failure message for every op whose first-cycle
        result is wrong."""
        return {}

    def extra(self, results):
        """Workload-specific counts reported with the per-layer metrics."""
        return {}

    def set_traced(self, traced):
        """Switch operations between plain and traced runs."""
        self.traced = traced

    def collect_spans(self, tracer):
        """Merge spans recorded outside this process into ``tracer``."""
        return {}


# ---------------------------------------------------------------- long-series

class LongSeries(Workload):
    """dgarma and rgarma on m in {500, 1000, 2000}, 8 rows per call."""

    SIZES = (500, 1000, 2000)
    ROWS = 8
    SHARE = 0.05  # marginalised, conditioned or pinned positions per pattern
    # (kind, patterned, smallest AR root modulus).  The modulus is fixed per
    # case so that every seed gives the same work: with roots and MA
    # coefficients drawn freely, the conditioned m = 2000 calls took 0.4 s
    # for some seeds and 0.9 s for others.
    CASES = (("dgarma", False, 1.25), ("dgarma", True, 3.0),
             ("rgarma", False, 3.0), ("rgarma", True, 1.25))

    def __init__(self, g, rng, work_dir, nproc):
        super().__init__(g, rng, work_dir, nproc)
        self.cases = []
        for m in self.SIZES:
            k = int(round(self.SHARE * m))
            for kind, patterned, root in self.CASES:
                p = int(rng.integers(1, 3))
                model = draw_model(rng, p, int(rng.integers(0, 3)), root,
                                   complex_pair=p == 2 and rng.random() < 0.5)
                case = dict(kind=kind, m=m, model=model, spec=self.arma_spec(model))
                if kind == "dgarma":
                    rows = simulate(model, self.ROWS, m, rng)
                    missing = np.zeros(m, dtype=bool)
                    flags = np.zeros(m, dtype=bool)
                    if patterned:
                        missing[_choose(rng, m, k)] = True
                        flags[_choose(rng, m, k, exclude=np.nonzero(missing)[0])] = True
                        rows[:, missing] = np.nan
                    case.update(rows=rows, missing=missing, flags=flags, cond=flags if patterned else None)
                else:
                    condvals = None
                    if patterned:
                        condvals = np.full(m, np.nan)
                        pinned = _choose(rng, m, k)
                        condvals[pinned] = simulate(model, 1, m, rng)[0, pinned]
                    case.update(condvals=condvals, seed=int(rng.integers(1 << 31)))
                self.cases.append(case)
        self.ops = [Op(c["kind"], self._call(c)) for c in self.cases]

    def _call(self, c):
        g = self.g
        if c["kind"] == "dgarma":
            return lambda: g.dgarma(c["rows"], c["spec"], cond=c["cond"], log=True)
        return lambda: g.rgarma(self.ROWS, c["m"], c["spec"], condvals=c["condvals"], seed=c["seed"])

    def warm_up(self):
        spec = self.g.ArmaSpec(ar=(0.5,))
        self.g.dgarma(np.zeros((2, 16)), spec, log=True)
        self.g.rgarma(2, 16, spec, condvals=[0.0] + [np.nan] * 15, seed=0)

    def check(self, results):
        bad = {}
        for i, (c, got) in enumerate(zip(self.cases, results)):
            if c["kind"] == "dgarma":
                msg = _check_density(c["model"], c["rows"], c["missing"], c["flags"], got)
            else:
                msg = _check_sample(c, got, self.ROWS)
            if msg:
                bad[i] = msg
        return bad


def _check_sample(c, draws, n):
    """Pinned positions reproduce condvals bit for bit, and the pooled mean of
    the free positions lies within 6 standard errors of its conditional mean."""
    from oracle import acvf, conditional, toeplitz_cov

    m, model = c["m"], c["model"]
    draws = np.asarray(draws)
    if draws.shape != (n, m) or not np.all(np.isfinite(draws)):
        return f"rgarma returned shape {draws.shape} or non-finite values"
    vals = c["condvals"] if c["condvals"] is not None else np.full(m, np.nan)
    cond = np.nonzero(np.isfinite(vals))[0]
    free = np.nonzero(~np.isfinite(vals))[0]
    pinned = np.ascontiguousarray(draws[:, cond])
    if not np.array_equal(pinned.view(np.int64), np.broadcast_to(vals[cond], pinned.shape).view(np.int64)):
        return "rgarma changed a pinned position"
    gamma = acvf(model["ar"], model["ma"], model["error_var"], m)
    mean, cov = conditional(np.full(m, model["mean"]), toeplitz_cov(gamma, np.arange(m)),
                            free, cond, vals[cond][None, :])
    pooled = float(np.mean(draws[:, free] - mean[0]))
    se = math.sqrt(float(cov.sum()) / (free.size**2 * n))
    if abs(pooled) > 6.0 * se:
        return f"rgarma pooled mean {pooled:.4g} is {abs(pooled) / se:.1f} standard errors out"
    return None


# ------------------------------------------------------------------ short-fit

class ShortFit(Workload):
    """A seeded sweep of small ARMA(p<=2, q<=2) models, two of them persistent,
    each hit by acf_vector, variance_matrix, dgarma and two pgarma calls."""

    # (p, q, smallest AR root modulus, conjugate pair) per slot.  Slots 2 and 4
    # are persistent: root 1.009, phi ~ 0.991.  Each modulus sits inside a
    # band where garma's psi-weight truncation length is the same for every
    # seed, and the sizes are fixed per slot, so the work is seed-independent.
    SLOTS = ((1, 0, 1.25, False), (0, 1, None, False), (1, 1, 1.009, False),
             (2, 0, 1.45, True), (2, 1, 1.009, False), (0, 2, None, False),
             (1, 2, 1.85, False), (2, 2, 1.25, True))
    ACF_N = (20, 30, 40, 50, 60, 80, 100, 25)
    VAR_M = (20, 24, 30, 36, 40, 48, 60, 28)
    DENSITY_M = (20, 40, 60, 80, 100, 30, 50, 70)
    ROWS = 4
    CDF_ROWS = 2
    # At 1e-4 every QMC row of 500 seeds met the tolerance in mvn_cdf's first
    # round of points; at 1e-5 one seed in eight had a row that took a second,
    # four times larger round, so the seed changed the cycle's work by ~10%.
    TOL = 1e-4

    def __init__(self, g, rng, work_dir, nproc):
        super().__init__(g, rng, work_dir, nproc)
        self.cases = []
        for slot, (p, q, root, complex_pair) in enumerate(self.SLOTS):
            model = draw_model(rng, p, q, root, complex_pair)
            spec = self.arma_spec(model)
            base = dict(model=model, spec=spec)
            self.cases.append(dict(base, kind="acf", n=self.ACF_N[slot]))

            m = self.VAR_M[slot]
            condvals = np.full(m, np.nan)
            pinned = _choose(rng, m, m // 4)
            condvals[pinned] = simulate(model, 1, m, rng)[0, pinned]
            self.cases.append(dict(base, kind="varmat", m=m, condvals=condvals))

            m = self.DENSITY_M[slot]
            missing = np.zeros(m, dtype=bool)
            flags = np.zeros(m, dtype=bool)
            if slot % 2:
                missing[_choose(rng, m, m // 10)] = True
                flags[_choose(rng, m, m // 10, exclude=np.nonzero(missing)[0])] = True
            rows = simulate(model, self.ROWS, m, rng)
            rows[:, missing] = np.nan
            self.cases.append(dict(base, kind="dgarma", rows=rows, missing=missing, flags=flags,
                                   cond=flags if slot % 2 else None))

            # pgarma: 1-2 free positions (closed form, quadrature), then 3-6 (QMC),
            # each beside two conditioned and two marginalised positions.
            for free in (1 + slot % 2, 3 + slot % 4):
                m = free + 4
                state = rng.permutation(np.array([0] * free + [1, 1, 2, 2]))
                rows = simulate(model, self.CDF_ROWS, m, rng)
                rows[:, state == 2] = np.nan
                self.cases.append(dict(base, kind="pgarma", rows=rows, missing=state == 2,
                                       flags=state == 1, free=free,
                                       seed=int(rng.integers(1 << 31))))
        self.ops = [Op(c["kind"], self._call(c), self.CDF_ROWS if c["kind"] == "pgarma" else 1)
                    for c in self.cases]

    def _call(self, c):
        g, kind = self.g, c["kind"]
        if kind == "acf":
            return lambda: g.acf_vector(c["n"], c["spec"])
        if kind == "varmat":
            return lambda: g.variance_matrix(c["m"], c["spec"], cond=g.build_pattern(condvals=c["condvals"]))
        if kind == "dgarma":
            return lambda: g.dgarma(c["rows"], c["spec"], cond=c["cond"], log=True)
        return lambda: g.pgarma(c["rows"], c["spec"], cond=c["flags"], tol=self.TOL, seed=c["seed"])

    def warm_up(self):
        spec = self.g.ArmaSpec(ar=(0.5,), ma=(0.2,))
        self.g.acf_vector(4, spec)
        self.g.variance_matrix(4, spec, cond=self.g.build_pattern(condvals=[1.0, np.nan, np.nan, np.nan]))
        self.g.dgarma(np.zeros((2, 4)), spec, log=True)
        self.g.pgarma(np.zeros((1, 4)), spec, seed=0)

    def check(self, results):
        bad = {}
        for i, (c, got) in enumerate(zip(self.cases, results)):
            msg = getattr(self, "_check_" + c["kind"])(c, got)
            if msg:
                bad[i] = msg
        return bad

    def _check_acf(self, c, got):
        from oracle import acvf

        want = acvf(c["model"]["ar"], c["model"]["ma"], c["model"]["error_var"], c["n"])
        if got.values.shape != want.shape or np.max(np.abs(got.values - want)) > 1e-10 * want[0]:
            return "acf_vector differs from the spectral-density ACVF"
        return None

    def _check_varmat(self, c, got):
        from oracle import acvf, conditional, toeplitz_cov

        m, model = c["m"], c["model"]
        gamma = acvf(model["ar"], model["ma"], model["error_var"], m)
        cond = np.nonzero(np.isfinite(c["condvals"]))[0]
        free = np.nonzero(~np.isfinite(c["condvals"]))[0]
        _, want = conditional(np.zeros(m), toeplitz_cov(gamma, np.arange(m)), free, cond,
                              np.zeros((1, cond.size)))
        if tuple(got.index_labels) != tuple(free + 1):
            return "variance_matrix labels the wrong positions"
        if got.entries.shape != want.shape or np.max(np.abs(got.entries - want)) > 1e-8 * gamma[0]:
            return "variance_matrix differs from the dense Schur complement"
        return None

    def _check_dgarma(self, c, got):
        return _check_density(c["model"], c["rows"], c["missing"], c["flags"], got)

    def _check_pgarma(self, c, got):
        from oracle import acvf, conditional, mvn_cdf, toeplitz_cov

        rows, model = c["rows"], c["model"]
        m = rows.shape[1]
        gamma = acvf(model["ar"], model["ma"], model["error_var"], m)
        free = np.nonzero(~c["missing"] & ~c["flags"])[0]
        cond = np.nonzero(c["flags"])[0]
        means, cov = conditional(np.full(m, model["mean"]), toeplitz_cov(gamma, np.arange(m)),
                                 free, cond, rows[:, cond])
        for r in range(rows.shape[0]):
            want, oracle_err = mvn_cdf(rows[r, free], means[r], cov)
            # QMC reports one standard error <= tol from 10 batches, and scipy's
            # integrator its own absolute error target; 10 of each is far in
            # the tails of both.
            bound = 10.0 * (self.TOL + oracle_err) if c["free"] >= 3 else 1e-12 + oracle_err
            if abs(got[r] - want) > bound:
                return f"pgarma row {r} off by {abs(got[r] - want):.3g} (bound {bound:.3g})"
        return None


# ------------------------------------------------------------------- spectrum

class Spectrum(Workload):
    """spectrum_test on white-noise and planted-cosine series at workers=1 and
    workers=nproc, a few series with n <= 7, and intensity on a row matrix."""

    # (n, sims): three permutation chunks per long series.
    LONG = ((64, 20000), (256, 20000), (1024, 12000))
    SHORT = ((3, 20000), (5, 20000), (7, 20000))
    INTENSITY = (32, 512)  # rows x n
    TIE_REL = 1e-12

    def __init__(self, g, rng, work_dir, nproc):
        super().__init__(g, rng, work_dir, nproc)
        self.chunk_ms = []
        self.cases = []
        for n, sims in self.LONG:
            for planted in (False, True):
                x = rng.standard_normal(n)
                if planted:
                    freq = int(rng.integers(n // 8, n // 3))
                    x += 1.5 * np.cos(2 * np.pi * freq * np.arange(n) / n + rng.uniform(0, 2 * np.pi))
                self.cases.append(dict(x=x, sims=sims, planted=planted, seed=int(rng.integers(1 << 31))))
        for n, sims in self.SHORT:
            self.cases.append(dict(x=rng.standard_normal(n), sims=sims, planted=False,
                                   seed=int(rng.integers(1 << 31))))
        g = self.g
        self.ops, self.op_case = [], []
        for index, c in enumerate(self.cases):
            for workers in sorted({1, nproc}):
                self.ops.append(Op("spectrum", self._call(c, workers), perms=c["sims"]))
                self.op_case.append(index)
            if index % 3 == 2:
                rows = rng.standard_normal(self.INTENSITY)
                self.ops.append(Op("intensity", lambda rows=rows: g.intensity(rows)))
                self.op_case.append(rows)

    def _call(self, c, workers):
        g = self.g

        def run():
            ticks = [time.perf_counter()]
            result = g.spectrum_test(c["x"], sims=c["sims"], seed=c["seed"], workers=workers,
                                     progress=lambda done, total: ticks.append(time.perf_counter()))
            if self.traced:
                self.chunk_ms.extend(np.diff(ticks) * 1e3)
            return result

        return run

    def warm_up(self):
        self.g.spectrum_test(np.arange(8.0) % 3, sims=64, seed=0, progress=False, workers=self.nproc)
        self.g.intensity(np.ones((2, 8)) + np.eye(2, 8))

    def check(self, results):
        from oracle import intensity_rows, max_intensity

        bad, first = {}, {}
        for i, (case, got) in enumerate(zip(self.op_case, results)):
            if isinstance(case, np.ndarray):
                want = intensity_rows(case)
                if got.values.shape != want.shape or np.max(np.abs(got.values - want)) > 1e-10:
                    bad[i] = "intensity differs from the direct FFT"
                continue
            c = self.cases[case]
            if abs(got.statistic - max_intensity(c["x"])) > 1e-10 * got.statistic:
                bad[i] = "spectrum_test statistic differs from the direct FFT maximum"
            elif not 0.0 < got.p_value <= 1.0:
                bad[i] = f"spectrum_test p-value {got.p_value} outside (0, 1]"
            elif c["planted"] and got.p_value > 0.01:
                bad[i] = f"planted cosine at n={c['x'].size} gave p={got.p_value}"
            elif case in first:
                other = results[first[case]]
                if (got.statistic, got.p_value) != (other.statistic, other.p_value) or not (
                    np.array_equal(got.null_sample, other.null_sample)
                ):
                    bad[i] = bad[first[case]] = "spectrum_test result depends on workers"
            first.setdefault(case, i)
        return bad

    def extra(self, results):
        """Null maxima tied with the statistic (within TIE_REL) that the
        p-value did not count, summed over one cycle's tests, and the median
        time between progress callbacks of traced tests."""
        ties = 0
        for got in results:
            if hasattr(got, "null_sample"):
                gap = got.statistic - got.null_sample
                ties += int(np.count_nonzero((gap > 0) & (gap <= self.TIE_REL * got.statistic)))
        out = {"spectral.ties_uncounted": ties}
        if self.chunk_ms:
            out["spectral.chunk_ms.p50"] = float(np.median(self.chunk_ms))
        return out


# ------------------------------------------------------------------------ cli

class Cli(Workload):
    """Fresh `python -m garma.cli` processes: every subcommand in CSV and in
    JSON on small inputs, plus one --plot."""

    def __init__(self, g, rng, work_dir, nproc):
        super().__init__(g, rng, work_dir, nproc)
        self.spawned = 0
        model = draw_model(rng, 2, 1, 1.5)
        spec = self.arma_spec(model)
        flags = ["--ar=" + ",".join(repr(v) for v in model["ar"]),
                 "--ma=" + ",".join(repr(v) for v in model["ma"]),
                 f"--mean={model['mean']!r}", f"--errorvar={model['error_var']!r}"]
        path = lambda name: os.path.join(work_dir, name)  # noqa: E731

        density_rows = simulate(model, 3, 12, rng)
        cdf_rows = simulate(model, 2, 6, rng)
        intensity_rows = rng.standard_normal((3, 16))
        series = rng.standard_normal(32)
        var_vals = np.full(6, np.nan)
        var_vals[[0, 3]] = simulate(model, 1, 6, rng)[0, [0, 3]]
        for name, rows in (("density.csv", density_rows), ("cdf.csv", cdf_rows),
                           ("intensity.csv", intensity_rows), ("series.csv", series[None, :])):
            with open(path(name), "w", encoding="utf-8") as fh:
                fh.write("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        seed = int(rng.integers(1 << 31))
        cond = np.zeros(12, dtype=bool)
        cond[[1, 4]] = True
        cdf_cond = np.zeros(6, dtype=bool)
        cdf_cond[0] = True
        g = self.g
        # (argv, in-library value, how to read the value out of the output)
        commands = [
            (["acf", "--n", "8", *flags], lambda: g.acf_vector(8, spec).values, "values"),
            (["var", "--n", "6", "--condvals=" + ",".join("NA" if np.isnan(v) else repr(float(v)) for v in var_vals), *flags],
             lambda: g.variance_matrix(6, spec, cond=g.build_pattern(condvals=var_vals)).entries, "entries"),
            (["density", "--input", path("density.csv"), "--cond", "2,5", *flags],
             lambda: g.dgarma(density_rows, spec, cond=cond), "values"),
            (["cdf", "--input", path("cdf.csv"), "--cond", "1", "--seed", str(seed), *flags],
             lambda: g.pgarma(cdf_rows, spec, cond=cdf_cond, seed=seed), "values"),
            (["sample", "--n", "3", "--m", "20", "--seed", str(seed), *flags],
             lambda: g.rgarma(3, 20, spec, seed=seed), "rows"),
            (["intensity", "--input", path("intensity.csv")],
             lambda: g.intensity(intensity_rows).values, "values"),
            (["spectrum-test", "--input", path("series.csv"), "--sims", "4000", "--seed", str(seed),
              "--no-progress"], lambda: self._spectrum(series, seed), ("statistic", "p_value")),
        ]
        self.commands = []
        for argv, library, key in commands:
            self.commands.append((argv + ["--format", "csv"], library, None))
            self.commands.append((argv + ["--format", "json"], library, key))
        self.plot = path("spectrum.svg")
        self.commands.append((commands[-1][0] + ["--plot", self.plot], commands[-1][1], None))
        self.ops = [Op("cli", self._call(argv)) for argv, _, _ in self.commands]

    def _spectrum(self, series, seed):
        r = self.g.spectrum_test(series, sims=4000, seed=seed, progress=False)
        return np.array([r.statistic, r.p_value])

    def _call(self, argv):
        def run():
            if self.traced:
                self.spawned += 1
                spans = os.path.join(self.work_dir, f"spans-{self.spawned}.json")
                cmd = [sys.executable, os.path.join(HERE, "cli_driver.py"), spans, *argv]
            else:
                cmd = [sys.executable, "-m", "garma.cli", *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        return run

    def warm_up(self):
        # Compile and cache garma.cli once, as an installed package would have.
        importlib.import_module("garma.cli")

    def check(self, results):
        bad = {}
        for i, ((argv, library, key), (code, out, err)) in enumerate(zip(self.commands, results)):
            if code != 0:
                bad[i] = f"exit {code}: {err.strip()[-200:]}"
                continue
            try:
                if key is None:
                    got = np.array([[float(t) for t in line.split(",")] for line in out.split()])
                elif isinstance(key, tuple):
                    doc = json.loads(out)
                    got = np.array([doc[k] for k in key])
                else:
                    got = np.array(json.loads(out)[key], dtype=float)
            except (ValueError, KeyError) as exc:
                bad[i] = f"unparsable output: {exc}"
                continue
            want = np.asarray(library(), dtype=float)
            if got.size != want.size or not np.allclose(got.ravel(), want.ravel(), rtol=1e-12, atol=0.0):
                bad[i] = f"`garma {argv[0]}` output differs from the library value"
        try:
            ElementTree.parse(self.plot)
        except (OSError, ElementTree.ParseError) as exc:
            bad[len(self.commands) - 1] = f"--plot wrote no well-formed SVG: {exc}"
        return bad

    def collect_spans(self, tracer):
        """Merge the span files the traced CLI processes wrote."""
        import_s = []
        for k in range(1, self.spawned + 1):
            path = os.path.join(self.work_dir, f"spans-{k}.json")
            if not os.path.exists(path):  # that process failed, and counts as failed
                continue
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            offset = len(tracer.spans)
            for name, start, end, parent, _ in doc["spans"]:
                tracer.spans.append((name, start, end, parent + offset if parent >= 0 else -1, k))
            tracer.counts.update(doc["counts"])
            import_s.append(doc["import_s"])
        return {"cli.import_s": float(np.median(import_s))} if import_s else {}


WORKLOADS = {"long-series": LongSeries, "short-fit": ShortFit, "spectrum": Spectrum, "cli": Cli}
