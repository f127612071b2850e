"""The memos of the set-up steps: a call that finds a model's roots, its
autocovariance head or its state-space form, or a seed's Sobol scrambles,
already stored gives the bits, the warnings and the errors of a call that
computes them, and no caller can change what a later call reads."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from garma import (
    ArmaSpec,
    GarmaError,
    InvalidParamError,
    NearUnitRootWarning,
    acf_vector,
    build_pattern,
    dgarma,
    mvn,
    pgarma,
    rgarma,
    validate_stationary,
    variance_matrix,
)
from garma import _statespace, arma
from garma._memo import Memo
from conftest import clear_memos

# Distances of an AR root modulus from 1, from nearer than NearUnitRootWarning's
# margin of 1e-6 to far.
DISTANCES = (1e-7, 1e-5, 1e-3, 0.05, 0.5, 2.0)
ZEROS = st.sampled_from((0.0, -0.0))


@st.composite
def models(draw):
    """ARMA(p, q) models, p, q <= 3, with real AR roots, some near the unit
    circle, and some AR and MA coefficients +0.0 or -0.0."""
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    roots = [draw(st.sampled_from((-1.0, 1.0))) * (1.0 + draw(st.sampled_from(DISTANCES)))
             for _ in range(p)]
    poly = np.polynomial.polynomial.polyfromroots(roots)
    ar = (-poly[1:] / poly[0]).tolist()
    if p and draw(st.booleans()):
        ar[-1] = draw(ZEROS)
    ma = [draw(st.one_of(ZEROS, st.sampled_from((0.4, -0.7, 1.3)))) for _ in range(q)]
    return ArmaSpec(ar=ar, ma=ma, mean=draw(st.sampled_from((0.0, 0.3))),
                    error_var=draw(st.sampled_from((1.0, 2.5))))


def _flip_zeros(values):
    return tuple(-v if v == 0.0 else v for v in values)


def _nudge(values):
    return tuple(np.nextafter(v, np.inf) if v else v for v in values)


# A second model whose inputs differ from the first in the bits a memo key
# must see: the sign of a zero, one ulp of every non-zero AR coefficient or
# of every non-zero parameter, the innovation variance, the mean, or one more
# MA coefficient, -0.0 or not.
VARIANTS = {
    "signs": lambda s: ArmaSpec(_flip_zeros(s.ar), _flip_zeros(s.ma), s.mean, s.error_var),
    "ar_ulps": lambda s: ArmaSpec(_nudge(s.ar), s.ma, s.mean, s.error_var),
    "ulps": lambda s: ArmaSpec(_nudge(s.ar), _nudge(s.ma), s.mean, *_nudge((s.error_var,))),
    "error_var": lambda s: ArmaSpec(s.ar, s.ma, s.mean, 2.0 * s.error_var),
    "mean": lambda s: ArmaSpec(s.ar, s.ma, s.mean + 1.0, s.error_var),
    "ma_zero": lambda s: ArmaSpec(s.ar, (*s.ma, -0.0), s.mean, s.error_var),
    "ma": lambda s: ArmaSpec(s.ar, (*s.ma, 0.5), s.mean, s.error_var),
}


def bits(result):
    """``result`` as shapes, bytes and plain values, so == compares every bit."""
    if isinstance(result, (np.ndarray, float)):
        result = np.asarray(result)
        return result.shape, result.tobytes()
    return tuple(bits(v) if isinstance(v, (np.ndarray, float)) else v
                 for v in vars(result).values())


def outcome(call, spec):
    """What ``call(spec)`` gives: its result's bits or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = bits(call(spec))
        except GarmaError as exc:
            result = type(exc), str(exc)
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def entry_points(free):
    """One call of each public function the memos serve; ``pgarma`` has
    ``free`` free positions beside one conditioned and one marginalised."""
    values = [0.3, -0.4, np.nan, 1.1, 0.2, -0.9, 0.5, 0.0]
    flags = np.zeros(8, dtype=bool)
    flags[[1, 6]] = True
    upper = np.array([0.4, -0.2, 0.9, 0.1, -0.5, 0.7, 0.3, 0.6][:free + 2])
    upper[free] = np.nan
    cdf_flags = np.zeros(free + 2, dtype=bool)
    cdf_flags[free + 1] = True
    return {
        "acf_vector": lambda spec: acf_vector(8, spec),
        "variance_matrix": lambda spec: variance_matrix(
            6, spec, cond=build_pattern(condvals=[np.nan, 0.3, np.nan, np.nan, -0.2, np.nan])),
        "dgarma": lambda spec: dgarma([values, values[::-1]], spec, cond=flags, log=True),
        "pgarma": lambda spec: pgarma(upper, spec, cond=cdf_flags, tol=1e-3),
        "rgarma": lambda spec: rgarma(2, 8, spec, condvals=[np.nan, 0.5, np.nan, np.nan,
                                                             np.nan, -0.5, np.nan, np.nan], seed=3),
        "mvn_cdf": lambda spec: mvn.mvn_cdf(
            upper[:free], mvn.GaussianParams(np.zeros(free), variance_matrix(free, spec).entries),
            tol=1e-3),
    }


@settings(max_examples=25, deadline=None)
@given(first=models(), variant=st.sampled_from(sorted(VARIANTS)), free=st.integers(3, 6))
@example(first=ArmaSpec(ar=(1.8, -0.81)), variant="ar_ulps", free=3)
def test_warm_calls_equal_cold_calls(first, variant, free):
    # Each call cold, after the memos are emptied; then the two models in
    # turn, twice, so every call but the first finds something stored.
    second = VARIANTS[variant](first)
    for name, call in entry_points(free).items():
        cold = []
        for spec in (first, second):
            clear_memos()
            cold.append(outcome(call, spec))
        warm = [outcome(call, spec) for spec in (first, second, first, second)]
        assert warm == cold * 2, name


# Seeds that differ from the first in one part of the key each: the entropy,
# the spawn key, the pool size and the bit generator.
SEEDS = {
    "int": lambda: 5,
    "list": lambda: [5, 1],
    "spawn_key": lambda: np.random.SeedSequence(5, spawn_key=(1,)),
    "pool_size": lambda: np.random.SeedSequence(5, pool_size=8),
    "mt19937": lambda: np.random.Generator(np.random.MT19937(5)),
}


def test_scrambles_of_each_seed_and_dimension_are_their_own():
    upper = [0.4, -0.2, 0.9, 0.1, -0.5]
    params = mvn.GaussianParams(np.zeros(5), 0.5 ** np.abs(np.subtract.outer(range(5), range(5))))
    cases = [(seed, d) for seed in SEEDS for d in (4, 5)]

    def value(seed, d):
        result = mvn.mvn_cdf(upper[:d], (params.mean[:d], params.cov[:d, :d]),
                             tol=1e-2, seed=SEEDS[seed]())
        return result.value, result.error_estimate

    cold = []
    for case in cases:
        clear_memos()
        cold.append(value(*case))
    assert len(set(cold)) == len(cold)
    assert [value(*case) for case in cases] == cold
    assert [value(*case) for case in cases[::-1]] == cold[::-1]


@pytest.mark.parametrize("bit_type", [np.random.PCG64, np.random.MT19937])
def test_two_calls_sharing_a_generator(bit_type):
    # The second call scrambles the generator's next ten children, cold or
    # warm; the values are those the code gave before the memo.
    want = {np.random.PCG64: [0.21132548810050816, 0.2113289004055742],
            np.random.MT19937: [0.21132735715385803, 0.21132341200926655]}[bit_type]
    clear_memos()
    for _ in range(2):
        gen = np.random.Generator(bit_type(7))
        got = [pgarma([0.2, -0.1, 0.4, 0.3], ArmaSpec(ar=(0.5,)), seed=gen)[0] for _ in range(2)]
        assert got == want
        assert gen.bit_generator._seed_seq.n_children_spawned == 20


def test_writing_into_results_changes_no_later_call():
    spec = ArmaSpec(ar=(0.6, -0.2), ma=(0.3,))
    moduli = validate_stationary(spec)
    want = moduli.copy()
    moduli[:] = 0.5
    assert np.array_equal(validate_stationary(spec), want)

    cond = build_pattern(condvals=[np.nan, 1.0, np.nan, np.nan, np.nan])
    for make in (lambda: variance_matrix(5, spec), lambda: variance_matrix(5, spec, cond=cond)):
        entries = make().entries
        want = entries.copy()
        entries.setflags(write=True)
        entries[:] = 0.0
        assert np.array_equal(make().entries, want)


def test_stored_arrays_are_read_only():
    spec = ArmaSpec(ar=(0.6, -0.2), ma=(0.3,))
    moduli = validate_stationary(spec)
    stored = [arma._poly_roots(spec.ma), arma._solve_head(spec.ar, np.array([1.0, 0.3, 0.0])),
              *_statespace._state_space(spec, moduli)]
    for array in stored:
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_a_refused_model_stores_nothing():
    # A double AR root 1e-7 from the unit circle: the autocovariance system
    # does not refine, so every call raises afresh.
    spec = ArmaSpec(ar=(2 * (1 - 1e-7), -(1 - 1e-7) ** 2))
    clear_memos()
    for _ in range(2):
        with pytest.warns(NearUnitRootWarning):
            with pytest.raises(InvalidParamError, match="autocovariance system"):
                acf_vector(4, spec)
        assert len(arma._solve_head.memo) == 0


# One call per memo on the k-th of many distinct keys.  The memo of Sobol
# direction bits is left out: it holds some 17,000 of its smallest entries,
# or one of its largest, which takes 0.2 s to compute.
FILLS = {
    arma._poly_roots: lambda k: arma._poly_roots(np.array([k + 0.5])),
    arma._solve_head: lambda k: arma._solve_head((0.5,), np.array([k + 1.0, 0.0])),
    _statespace._state_space: lambda k: _statespace._state_space(
        ArmaSpec(ar=(0.5,), error_var=k + 1.0), np.array([2.0])),
    mvn._scrambles: lambda k: mvn._scrambles(np.random.PCG64,
                                             np.random.SeedSequence(k).spawn(10), 3),
}


@pytest.mark.parametrize("memoised", FILLS, ids=lambda f: f.__name__)
def test_memo_stays_within_its_bound(memoised, monkeypatch):
    # The scrambles are stood in for by zeros of their shapes, which take the
    # bytes of the real ones without their cost; the memo is emptied after.
    # The first key is used again every tenth call, so it is never the least
    # recently used one and stays.
    monkeypatch.setattr(mvn, "_sobol_scramble",
                        lambda gen, d: (np.zeros((d, 30), np.uint32), np.zeros(d, np.uint32)))
    fill, memo = FILLS[memoised], memoised.memo
    try:
        memo.clear()
        first = fill(0)
        fits = memo.max_bytes // memo.nbytes
        for k in range(1, 10 * fits):
            fill(k)
            assert memo.nbytes <= memo.max_bytes
            if k % 10 == 0:
                assert fill(0) is first
        # Full to within two entries, with the other keys evicted.
        assert memo.nbytes > memo.max_bytes - 2 * memo.nbytes / len(memo)
        assert len(memo) <= fits
    finally:
        memo.clear()


def test_threads_share_one_memo():
    # More threads than cores look up overlapping keys in one small memo with
    # a short switch interval; a lost update would leave its byte count off
    # the sum of its entries, or hand a thread another key's result.
    memo = Memo(64 * 1024)
    wrong = []

    def work(seed):
        for k in np.random.default_rng(seed).integers(0, 200, size=2000).tolist():
            got = memo.get((k.to_bytes(2, "little"),), lambda: np.full(16, float(k)))
            if got[0] != k:
                wrong.append((k, got[0]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert memo.nbytes == sum(size for _, size in memo._entries.values()) <= memo.max_bytes
