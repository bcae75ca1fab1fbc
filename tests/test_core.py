import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco import (
    ConfigError, FccoProblem, GapHinge, Identity, NonFiniteError, SeededRng, sample_components,
    sample_data_batch,
)
from fcco.core import TRACE_HEADER, SolverTrace, TraceRow, _ranked, ensure_finite
from fcco.problems import SyntheticFccoSpec, make_synthetic_fcco
from util import read_trace


def _gen(seed, counter=0):
    return SeededRng(seed).philox(0, counter)


def test_sample_components_full_set_is_forced():
    got = sample_components(_gen(0), 5, 5)
    assert np.array_equal(got, np.arange(5))


def test_sample_components_singleton():
    assert np.array_equal(sample_components(_gen(0), 1, 1), [0])


def test_sample_components_deterministic():
    a = sample_components(_gen(42), 100, 10)
    b = sample_components(_gen(42), 100, 10)
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == 10
    assert a.min() >= 0 and a.max() < 100


@pytest.mark.parametrize("b1", [0, 6])
def test_sample_components_bad_sizes(b1):
    with pytest.raises(ConfigError):
        sample_components(_gen(0), 5, b1)


def test_sample_data_batch_full_population():
    assert np.array_equal(sample_data_batch(_gen(1), [3], 3), [[0, 1, 2]])


def test_sample_data_batch_singleton_in_range():
    got = sample_data_batch(_gen(7), [10], 1)
    assert got.shape == (1, 1)
    assert 0 <= got[0, 0] < 10


def test_sample_data_batch_uniform_frequencies():
    # each element frequency within 3 sigma of b2/population over 10^4 draws
    population, b2, trials = 10, 3, 10_000
    counts = np.zeros(population)
    rng = SeededRng(123)
    for t in range(trials):
        counts[sample_data_batch(rng.philox(0, t), [population], b2)[0]] += 1
    p = b2 / population
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - trials * p) < 3.5 * sigma)


@pytest.mark.parametrize(
    "populations, b2",
    [((50, 70), 10), ((7, 5, 9), 5), ((50, 70, 14_400), 4), ((14_400,), 10), ((20, 14_400), 20)],
    ids=["ranked", "ranked-near-full", "redrawn", "large-population", "mixed"],
)
def test_sample_data_batch_rows_sorted_distinct_in_own_population(populations, b2):
    rng = SeededRng(5)
    pops = np.array(populations)
    for t in range(300):
        rows = sample_data_batch(rng.philox(3, t), pops, b2)
        assert rows.shape == (len(pops), b2)
        assert np.all(np.diff(rows, axis=1) > 0)  # sorted and distinct
        assert np.all(rows >= 0) and np.all(rows < pops[:, None])


@pytest.mark.parametrize("populations, b2", [((5, 8), 3), ((40, 60), 2)], ids=["ranked", "redrawn"])
def test_sample_data_batch_ragged_uniform_frequencies(populations, b2):
    # on ragged populations every row is uniform over its own population
    trials = 6000
    rng = SeededRng(77)
    counts = [np.zeros(pop) for pop in populations]
    for t in range(trials):
        for row, count in zip(sample_data_batch(rng.philox(1, t), populations, b2), counts):
            count[row] += 1
    for pop, count in zip(populations, counts):
        p = b2 / pop
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(count - trials * p) < 4.0 * sigma)


# sha256 of the draws at counters 0-199: one case per sampler path, so a
# change to how a draw is made must keep every draw bit-identical
_EXACT_DRAWS = {
    "ranked": (((200,) * 20, 25), "e88e5122460444d8de5eb5b8674089ef3b68329ab5eec375d9061c48c7ac3633"),
    "ranked-padded": (((7, 5, 9), 5), "48ed94773f73ee8f71b220be3927c8d847657d644a6a8b24b157ee5d62ae34ab"),
    "redrawn-repeats": (((50,) * 3, 7), "c0b855ea2ed642f5fe82d862273cc895ec219d7d4465358bcf34dbc6ba151b4d"),
    "redrawn-large": (((14_400,), 10), "0538643d83890be33e594b2aa7ece815cf4fcce48a5987a860165870c55f39b5"),
    "redrawn-ragged": (((50, 70, 14_400), 4), "1620deae82dc74afe8658f259219658dc86e26cd4f5968cd611487a68d800752"),
    "mixed": (((20, 14_400), 20), "fbcb45b4a115e9e183d1d3935cd46914d7cd899bf3fde14a261d59bbde16222b"),
    "components-small": ((6, 3), "f6108b26c2cd5e7dc739f9080b032f6b2dab2fcec6a3c137d521eb00049ffe4c"),
    "components-large": ((2000, 4), "b3d72196951721faaf0e7a7fab136805eebd48e34e727e152ac7af1c024dde79"),
}


@pytest.mark.parametrize("case", sorted(_EXACT_DRAWS))
def test_sampler_draws_are_pinned(case):
    (arg, size), digest = _EXACT_DRAWS[case]
    rng = SeededRng(22)
    h = hashlib.sha256()
    for t in range(200):
        if case.startswith("components"):
            h.update(sample_components(rng.philox(0, t), arg, size).tobytes())
        else:
            h.update(sample_data_batch(rng.philox(1, t), np.array(arg), size).tobytes())
    assert h.hexdigest() == digest


def test_ranked_tie_at_the_cut_keeps_the_argpartition_rows():
    # row 0's third smallest value, 0.5, is tied, so four elements sit at or
    # below it; the draw falls back to argpartition's pick
    u = np.array([[0.5, 0.1, 0.5, 0.9, 0.3], [0.2, 0.4, 0.6, 0.8, 0.1]])

    class Gen:
        def random(self, shape):
            assert shape == u.shape
            return u.copy()

    got = _ranked(Gen(), np.array([5, 5]), 3, 5, 5)
    assert np.array_equal(got, np.sort(np.argpartition(u, 2, axis=1)[:, :3], axis=1))
    assert got[1].tolist() == [0, 1, 4]


@pytest.mark.parametrize("b2", [0, 6])
def test_sample_data_batch_bad_sizes(b2):
    # b2 must fit the smallest population
    with pytest.raises(ConfigError):
        sample_data_batch(_gen(0), [9, 5, 7], b2)


def test_philox_draws_depend_on_key_and_counter_only():
    rng = SeededRng(9, 4)
    first = rng.philox(2, 17).random(6)
    rng.philox(2, 3).random(50)  # another block in between
    rng.philox(5, 17).random(3)  # another purpose
    assert np.array_equal(SeededRng(9, 4).philox(2, 17).random(6), first)
    assert not np.array_equal(rng.philox(2, 18).random(6), first)
    assert not np.array_equal(rng.philox(3, 17).random(6), first)
    assert not np.array_equal(SeededRng(10, 4).philox(2, 17).random(6), first)
    assert not np.array_equal(SeededRng(9, 5).philox(2, 17).random(6), first)


def test_seeded_rng_same_stream_same_sequence():
    a = SeededRng(9, 4).gen.normal(size=8)
    b = SeededRng(9, 4).gen.normal(size=8)
    assert np.array_equal(a, b)


def test_seeded_rng_distinct_streams_differ():
    a = SeededRng(9, 0).gen.normal(size=8)
    b = SeededRng(9, 1).gen.normal(size=8)
    assert not np.array_equal(a, b)


def test_spawn_is_deterministic_and_keyed():
    r = SeededRng(5)
    assert r.spawn(3, 7).stream == r.spawn(3, 7).stream
    assert r.spawn(3, 7).stream != r.spawn(7, 3).stream


def test_problem_rejects_outer_of_another_dimension():
    with pytest.raises(ConfigError, match="dimension 2 does not match problem d1=1"):
        FccoProblem(
            d=1, d1=1, outer=GapHinge(0.3),
            inner_value=lambda idx, w, batches: np.full((len(idx), 1), w[0]),
            inner_vjp=lambda idx, w, batches, Y: np.array([Y[:, 0].mean()]),
            populations=(1, 1),
        )


def test_problem_size_is_the_population_count():
    oracles = dict(
        inner_value=lambda idx, w, batches: np.full((len(idx), 1), w[0]),
        inner_vjp=lambda idx, w, batches, Y: np.array([Y[:, 0].mean()]),
        populations=(1, 1, 1),
    )
    assert FccoProblem(d=1, d1=1, outer=Identity(), **oracles).n == 3
    with pytest.raises(TypeError):
        FccoProblem(n=3, d=1, d1=1, outer=Identity(), **oracles)


def test_trace_row_has_one_field_per_column():
    assert len(TraceRow(0, 0, 0).to_csv_line().split(",")) == len(TRACE_HEADER.split(","))


def test_trace_header_and_formatting(tmp_path):
    trace = SolverTrace()
    trace.append(TraceRow(0, 4, 0, f_value=0.1, f_lambda_value=None, grad_norm=2.0))
    trace.append(TraceRow(1, 8, 2, max_violation=None))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[1] == "4"
    assert float(fields[3]) == 0.1  # 17 significant digits round-trip
    assert fields[4] == ""  # missing metric renders empty, not 0
    assert read_trace(path)[1]["max_violation"] == ""


def test_trace_rejects_decreasing_oracle_counts():
    trace = SolverTrace()
    trace.append(TraceRow(0, 10, 0))
    with pytest.raises(ValueError):
        trace.append(TraceRow(1, 9, 0))


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(-3, 3),
    beta=st.floats(-3, 3),
    seed=st.integers(0, 10),
)
def test_inner_vjp_linear_in_y(alpha, beta, seed):
    spec = SyntheticFccoSpec(
        n=3, d=4, d1=2, inner_kind="sigmoid", outer_kind="gap_hinge", outer_param=0.1,
        sigma1=0.2, population=6, seed=seed,
    )
    prob = make_synthetic_fcco(spec)
    gen = np.random.default_rng(seed)
    w = gen.normal(size=4)
    idx, batches = np.array([1, 2]), np.array([[0, 2, 5], [1, 3, 4]])
    y1, y2 = gen.normal(size=(2, 2)), gen.normal(size=(2, 2))
    lhs = prob.inner_vjp(idx, w, batches, alpha * y1 + beta * y2)
    rhs = alpha * prob.inner_vjp(idx, w, batches, y1) + beta * prob.inner_vjp(idx, w, batches, y2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_inner_vjp_linear_for_every_registered_problem():
    from fcco.penalty import build_penalty_problem
    from fcco.problems import (
        GdroCvarSpec,
        RocFairnessSpec,
        make_gdro_cvar,
        make_roc_fairness_fcco,
        make_toy_constrained,
    )

    problems = [
        make_synthetic_fcco(SyntheticFccoSpec(n=4, d=3, d1=1, inner_kind="quadratic", seed=1)),
        make_gdro_cvar(GdroCvarSpec(n_groups=3, p=2, samples_per_group=15, ratio=0.5, seed=2)),
        make_roc_fairness_fcco(RocFairnessSpec(thresholds=[0.0], margin=0.05, n_pos=8, n_neg=8, seed=3)),
        build_penalty_problem(make_toy_constrained("circle"), 5.0),
    ]
    gen = np.random.default_rng(0)
    for prob in problems:
        w = gen.normal(size=prob.d)
        idx, batches = np.array([0]), np.array([[0, min(2, prob.populations[0] - 1)]])
        y1, y2 = gen.normal(size=(1, prob.d1)), gen.normal(size=(1, prob.d1))
        a, b = 1.7, -0.4
        lhs = prob.inner_vjp(idx, w, batches, a * y1 + b * y2)
        rhs = a * prob.inner_vjp(idx, w, batches, y1) + b * prob.inner_vjp(idx, w, batches, y2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_ensure_finite_rejects_nan_and_inf(bad, shape):
    arr = np.ones(shape)
    arr[(0,) * len(shape)] = bad
    with pytest.raises(NonFiniteError, match="iterate"):
        ensure_finite(arr, "iterate")


@pytest.mark.parametrize("arr", [np.array(-0.0), np.array([1e308, -0.0]), np.full((2, 2), -1e308),
                                 np.empty(0), np.empty((0, 3))])
def test_ensure_finite_passes_finite_and_empty_arrays(arr):
    ensure_finite(arr, "iterate")


@pytest.mark.parametrize(
    "d, d1, populations", [(0, 1, (1,)), (1, 0, (1,)), (1, 1, ())], ids=["d", "d1", "n"]
)
def test_problem_rejects_empty_sizes(d, d1, populations):
    with pytest.raises(ConfigError) as info:
        FccoProblem(
            d=d, d1=d1, outer=Identity(),
            inner_value=lambda idx, w, batches: np.full((len(idx), 1), w[0]),
            inner_vjp=lambda idx, w, batches, Y: np.array([Y[:, 0].mean()]),
            populations=populations,
        )
    assert info.type is ConfigError and "n, d, d1 must be positive" in str(info.value)
