"""Monte Carlo harness: determinism, calibration sanity, generators."""

import itertools
import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from phasorstats import (
    ComplexSample,
    RateTable,
    SimulationSpec,
    anova2circ_independent,
    ci_test,
    covariance_summary,
    manova_oneway,
    simulate_amplitude_skew,
    simulate_ci_distribution,
    simulate_grid,
    simulate_outlier_effect,
    simulate_rates,
    t2_one_sample,
    t2circ_one_sample,
)
from phasorstats.exceptions import (
    DegenerateCovariance,
    InvalidSpec,
    PhasorStatsError,
    SingularWithinScatter,
)
from phasorstats import simulate
from phasorstats.kernels import condition_index
from phasorstats.simulate import _CONTRACTS, _blocks, _p_values

LINE = np.array([1.0, 2.0, 3.0, 5.0]) * (1 + 1j)  # rank-one covariance
SAME = np.full(4, 2 + 1j)  # zero residual power

RAYLEIGH_SKEW = 2 * math.sqrt(math.pi) * (math.pi - 3) / (4 - math.pi) ** 1.5


class TestSpecValidation:
    def test_bad_fields(self):
        with pytest.raises(InvalidSpec):
            SimulationSpec(test="nope")
        with pytest.raises(InvalidSpec):
            SimulationSpec(test="T2", n=1)
        with pytest.raises(InvalidSpec):
            SimulationSpec(test="T2", correlation=1.0)
        with pytest.raises(InvalidSpec):
            SimulationSpec(test="T2", variance_ratio=0.0)
        with pytest.raises(InvalidSpec):
            SimulationSpec(test="ANOVA2circ", k=1)
        # non-integral sizes used to fail later with a raw TypeError
        for fields in (dict(n=5.0), dict(n_reps=10.5), dict(k=2.0), dict(n="8")):
            with pytest.raises(InvalidSpec, match="must be an integer"):
                SimulationSpec(test="T2", **fields)
        # NaN and inf pass the range comparisons, so finiteness and type
        # are checked on their own
        for name in ("d", "correlation", "variance_ratio", "alpha",
                     "planted_outlier_distance"):
            for value in (math.nan, math.inf, -math.inf, "0.5", 0.5j, [0.5]):
                with pytest.raises(InvalidSpec, match="must be a finite real"):
                    SimulationSpec(test="CI_test", **{name: value})

    # math.isfinite of an int past the float range used to raise a raw
    # OverflowError
    @pytest.mark.parametrize("name", ["d", "alpha", "planted_outlier_distance"])
    def test_int_past_the_float_range_raises_invalid_spec(self, name):
        with pytest.raises(InvalidSpec, match="must be a finite real"):
            SimulationSpec(test="CI_test", **{name: 10**400})

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", [1, 2], None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidSpec, match="seed must be a non-negative integer"):
            SimulationSpec(test="T2", seed=seed)

    def test_seed_stored_as_plain_int(self):
        spec = SimulationSpec(test="T2", seed=np.uint32(4))
        assert spec.seed == 4 and type(spec.seed) is int
        spec = SimulationSpec(test="T2", n=np.int64(6), n_reps=np.int32(9))
        assert (spec.n, spec.n_reps) == (6, 9)
        assert type(spec.n) is int and type(spec.n_reps) is int

    @pytest.mark.parametrize("fields", [
        dict(test="T2", n=2),
        dict(test="CI_test", n=2),
        dict(test="T2circ", n=1),
        dict(test="ANOVA2circ", n=1, k=3),
        dict(test="MANOVA", n=2, k=2),
    ])
    def test_size_below_test_minimum(self, fields):
        with pytest.raises(InvalidSpec, match="needs"):
            SimulationSpec(**fields)

    @pytest.mark.parametrize("fields", [
        dict(test="T2", n=3),
        dict(test="CI_test", n=3),
        dict(test="T2circ", n=2),
        dict(test="ANOVA2circ", n=2, k=2),
        dict(test="MANOVA", n=3, k=2),
        dict(test="MANOVA", n=2, k=3),
    ])
    def test_smallest_sizes_run(self, fields):
        rate = simulate_rates(SimulationSpec(n_reps=50, seed=3, **fields))
        assert 0.0 <= rate.cells[0].rate <= 1.0


class TestDeterminism:
    def test_rates_bit_identical(self):
        spec = SimulationSpec(test="T2circ", n=8, d=0.5, n_reps=500, seed=42)
        a = simulate_rates(spec)
        b = simulate_rates(spec)
        assert a == b

    def test_seed_changes_output(self):
        base = SimulationSpec(test="T2circ", n=8, d=0.5, n_reps=500, seed=1)
        other = SimulationSpec(test="T2circ", n=8, d=0.5, n_reps=500, seed=2)
        assert simulate_rates(base).cells[0].rate != pytest.approx(
            simulate_rates(other).cells[0].rate, abs=1e-12
        ) or True  # rates can tie; the draws must differ
        assert not np.array_equal(
            simulate_ci_distribution(6, 100, 1),
            simulate_ci_distribution(6, 100, 2),
        )

    def test_grid_csv_round_trip_stable(self):
        base = SimulationSpec(test="T2", n_reps=200, seed=7)
        t1 = simulate_grid(base, tests=["T2", "T2circ"], d_values=[0.0, 1.0])
        t2 = simulate_grid(base, tests=["T2", "T2circ"], d_values=[0.0, 1.0])
        assert t1.to_csv() == t2.to_csv()
        assert t1.to_json() == t2.to_json()


def scalar_hits(spec, cell_index=0):
    """Per-replicate reference: the outlier angles of every replicate
    first, then one normal draw per replicate, public scalar tests on
    ComplexSamples, p < alpha."""
    rng = np.random.default_rng([spec.seed, cell_index])
    r, v, n = spec.correlation, spec.variance_ratio, spec.n
    dist = spec.planted_outlier_distance
    if dist:
        angles = rng.uniform(0.0, 2.0 * math.pi, spec.n_reps)
    hits = 0
    for rep in range(spec.n_reps):
        z = rng.standard_normal((spec.k * n, 2))
        values = z[:, 0] + 1j * (r * math.sqrt(v) * z[:, 0]
                                 + math.sqrt(v * (1.0 - r * r)) * z[:, 1])
        groups = [values[g * n:(g + 1) * n].copy() for g in range(spec.k)]
        groups[0] = groups[0] + spec.d
        if dist:
            groups[0][0] = groups[0][1:].mean() + dist * complex(
                math.cos(angles[rep]), math.sin(angles[rep]))
        samples = [ComplexSample(g, str(i)) for i, g in enumerate(groups)]
        if spec.test == "T2":
            res = t2_one_sample(samples[0], 0j)
        elif spec.test == "T2circ":
            res = t2circ_one_sample(samples[0], 0j)
        elif spec.test == "ANOVA2circ":
            res = anova2circ_independent(samples)
        elif spec.test == "MANOVA":
            res = manova_oneway(samples)
        else:
            res = ci_test(samples[0])
        hits += res.p_value < spec.alpha
    return hits


class TestBatchedMatchesScalar:
    # cells span several blocks (8192 values, so n = 64: 128 replicates per
    # block) and every branch of the block generator
    CELLS = [
        dict(test="T2", n=5, correlation=0.6),
        dict(test="T2", n=64, d=0.3, variance_ratio=4.0),
        dict(test="T2circ", n=8, d=0.5),
        dict(test="T2circ", n=64, correlation=-0.3),
        dict(test="ANOVA2circ", n=6, k=3, d=0.8),
        dict(test="MANOVA", n=4, k=3, d=1.0, correlation=0.3),
        dict(test="MANOVA", n=5, k=2, d=1.0),
        dict(test="CI_test", n=10, variance_ratio=2.0),
        dict(test="CI_test", n=32, planted_outlier_distance=3.0),
        dict(test="T2circ", n=6, planted_outlier_distance=2.0, d=0.5),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fields", CELLS)
    def test_hit_for_hit(self, fields, seed, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 8192)
        spec = SimulationSpec(n_reps=300, seed=seed, **fields)
        rate = simulate_rates(spec).cells[0].rate
        assert round(rate * spec.n_reps) == scalar_hits(spec)

    @pytest.mark.parametrize("fields", [
        dict(test="T2circ", n=6, d=0.5),
        dict(test="CI_test", n=8, planted_outlier_distance=3.0),
    ])
    def test_block_size_leaves_the_rates(self, fields, monkeypatch):
        # planted outlier angles are drawn ahead of the normals, so no
        # cell's output depends on how its replicates are blocked
        spec = SimulationSpec(n_reps=300, seed=3, **fields)
        expected = simulate_rates(spec).to_json()  # one block of 2^16 values
        for block in (8192, 7 * spec.n, spec.n, 1):
            monkeypatch.setattr(simulate, "_BLOCK_VALUES", block)
            assert simulate_rates(spec).to_json() == expected

    def test_grid_cells_use_their_own_stream(self):
        base = SimulationSpec(test="T2circ", n=5, n_reps=200, seed=4)
        table = simulate_grid(base, d_values=[0.0, 0.5, 1.0])
        for index, cell in enumerate(table.cells):
            spec = replace(base, d=cell.d)
            assert round(cell.rate * 200) == scalar_hits(spec, index)

    @pytest.mark.parametrize("test,k,error", [
        ("T2", 1, DegenerateCovariance),
        ("CI_test", 1, DegenerateCovariance),
        ("MANOVA", 2, SingularWithinScatter),
    ])
    def test_degenerate_replicate_raises_scalar_error(self, test, k, error):
        # the second axis carries ~1e-15 of the variance: rank deficient
        spec = SimulationSpec(test=test, k=k, n=6, variance_ratio=1e-30,
                              n_reps=20, seed=1)
        with pytest.raises(error):
            scalar_hits(spec)
        with pytest.raises(error):
            simulate_rates(spec)

    @pytest.mark.parametrize("test,groups,scalar", [
        ("T2", [LINE], lambda s: t2_one_sample(s[0])),
        ("T2circ", [SAME], lambda s: t2circ_one_sample(s[0])),
        ("CI_test", [LINE], lambda s: ci_test(s[0])),
        ("ANOVA2circ", [SAME, SAME + 1.0], anova2circ_independent),
        ("MANOVA", [LINE, LINE + 1.0], manova_oneway),
    ], ids=["T2", "T2circ", "CI_test", "ANOVA2circ", "MANOVA"])
    def test_degenerate_batch_raises_the_contract_error(self, test, groups, scalar):
        # each test's contract is declared once: the scalar test and the
        # simulator's p-value path raise the same class with the same message
        rng = np.random.default_rng(2)
        z = rng.standard_normal((len(groups), 4, 2))
        X = np.stack([z[..., 0] + 1j * z[..., 1], groups])  # replicate 1 is bad
        with pytest.raises(PhasorStatsError) as from_scalar:
            scalar([ComplexSample(g, str(j)) for j, g in enumerate(groups)])
        with pytest.raises(PhasorStatsError) as from_batch:
            _p_values(SimulationSpec(test=test, k=len(groups), n=4), X)
        assert type(from_scalar.value) is _CONTRACTS[test].error
        assert type(from_batch.value) is type(from_scalar.value)
        assert str(from_batch.value) == str(from_scalar.value)


class TestCalibrationQuick:
    @pytest.mark.parametrize("test,k", [("T2", 1), ("T2circ", 1),
                                        ("ANOVA2circ", 3), ("MANOVA", 3)])
    def test_null_rate_near_alpha(self, test, k):
        spec = SimulationSpec(test=test, n=10, k=k, n_reps=2000, seed=5)
        rate = simulate_rates(spec).cells[0].rate
        assert rate == pytest.approx(0.05, abs=0.02)


class TestGenerator:
    def test_covariance_structure(self):
        # the Cholesky transform must deliver the requested covariance
        spec = SimulationSpec(test="T2", n=50000, correlation=0.6,
                              variance_ratio=4.0, n_reps=1, seed=9)
        from phasorstats.simulate import _blocks

        rng = np.random.default_rng(10)
        values = next(_blocks(rng, spec))[0, 0]
        cov = covariance_summary(ComplexSample(values)).cov
        assert cov[0, 0] == pytest.approx(1.0, abs=0.03)
        assert cov[1, 1] == pytest.approx(4.0, abs=0.1)
        assert cov[0, 1] == pytest.approx(0.6 * 2.0, abs=0.05)

    def test_signal_direction_irrelevant(self):
        # rotation invariance: power with d along re equals power with the
        # same d along im (checked by rotating the draws inside the test)
        spec = SimulationSpec(test="T2circ", d=1.0, n=8, n_reps=3000, seed=11)
        rate_axis = simulate_rates(spec).cells[0].rate
        from phasorstats.simulate import _blocks

        rng = np.random.default_rng([11, 0])
        hits = 0
        for block in _blocks(rng, spec):
            for groups in block:
                values = groups[0] * 1j  # rotate 90 degrees
                if t2circ_one_sample(ComplexSample(values), 0j).p_value < 0.05:
                    hits += 1
        assert hits / spec.n_reps == pytest.approx(rate_axis, abs=1e-12)


def assert_same_bits(X, Y):
    assert X.dtype == Y.dtype and X.shape == Y.shape
    assert np.array_equal(X.view(np.uint64), Y.view(np.uint64))


def formula_blocks(rng, spec):
    """The documented generator, one array per step: z0 + 1j*(a*z0 + c*z1)
    from (B, k*n, 2) draws, then the shift and the planted outlier."""
    kn = spec.k * spec.n
    per_block = max(1, simulate._BLOCK_VALUES // kn)
    dist = spec.planted_outlier_distance
    if dist:
        angles = rng.uniform(0.0, 2.0 * math.pi, spec.n_reps)
        offsets = dist * (np.cos(angles) + 1j * np.sin(angles))
    r, v = spec.correlation, spec.variance_ratio
    a, c = r * math.sqrt(v), math.sqrt(v * (1.0 - r * r))
    for start in range(0, spec.n_reps, per_block):
        b = min(per_block, spec.n_reps - start)
        z = rng.standard_normal((b, kn, 2))
        X = z[..., 0] + 1j * (a * z[..., 0] + c * z[..., 1])
        X = X.reshape(b, spec.k, spec.n)
        X[:, 0] += spec.d
        if dist:
            X[:, 0, 0] = X[:, 0, 1:].mean(axis=-1) + offsets[start:start + b]
        yield X


class TestBlocksMatchFormula:
    # the blocks are drawn in place; they must hold the formula's bits,
    # signs of zero included, block for block
    @pytest.mark.parametrize("fields", [
        dict(test="T2", n=8),
        dict(test="T2", n=8, correlation=0.6),
        dict(test="T2", n=8, correlation=-0.9, variance_ratio=0.125),
        dict(test="T2circ", n=8, variance_ratio=4.0),
        dict(test="T2circ", n=8, d=0.5),
        dict(test="ANOVA2circ", n=6, k=3, d=0.8),
        dict(test="MANOVA", n=4, k=3, d=1.0, correlation=0.3),
        dict(test="CI_test", n=16, planted_outlier_distance=3.0),
        dict(test="CI_test", n=16, planted_outlier_distance=0.0),
        dict(test="T2", n=64, d=0.3, correlation=0.3, variance_ratio=2.0),
    ])
    def test_bit_for_bit(self, fields, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 256)  # 4 to 32 per block
        spec = SimulationSpec(n_reps=700, seed=0, **fields)
        got = _blocks(np.random.default_rng([8, 1]), spec)
        want = formula_blocks(np.random.default_rng([8, 1]), spec)
        # each block as it is drawn: it is valid until the next one is
        count = 0
        for X, Y in itertools.zip_longest(got, want):
            assert X is not None and Y is not None, "block counts differ"
            assert_same_bits(X, Y)
            count += 1
        assert count >= 5


def first_address(spec, seed=0):
    """The address of the memory that a cell's first block is drawn into."""
    return next(_blocks(np.random.default_rng(seed), spec)).ctypes.data


class TestKeptBlock:
    # a thread draws every cell into one kept buffer, so a cell does not
    # allocate and fault in a fresh block

    def test_consecutive_cells_share_one_buffer(self, monkeypatch):
        addresses = []

        def recording(spec, X):
            addresses.append(X.ctypes.data)
            return p_values(spec, X)

        p_values = simulate._p_values
        monkeypatch.setattr(simulate, "_p_values", recording)
        simulate_rates(SimulationSpec(test="ANOVA2circ", k=3, n=16, n_reps=400))
        simulate_rates(SimulationSpec(test="T2", n=8, n_reps=50))
        simulate_grid(SimulationSpec(test="MANOVA", k=3, n=8, n_reps=100),
                      d_values=[0.0, 1.0])
        assert len(addresses) == 4 and len(set(addresses)) == 1

    def test_interleaved_generators_do_not_alias(self, monkeypatch):
        # the second live generator finds no spare and draws into its own
        # buffer, so neither overwrites the other's block
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 256)  # 14 per block
        first = SimulationSpec(test="ANOVA2circ", k=3, n=6, d=0.8, n_reps=700)
        second = SimulationSpec(test="T2", n=18, correlation=0.6, n_reps=700)
        got = [_blocks(np.random.default_rng([8, i]), spec)
               for i, spec in enumerate((first, second))]
        want = [formula_blocks(np.random.default_rng([8, i]), spec)
                for i, spec in enumerate((first, second))]
        count = 0
        for X, Y, U, V in itertools.zip_longest(*got, *want):
            assert not np.shares_memory(X, Y)
            assert_same_bits(X, U)
            assert_same_bits(Y, V)
            count += 1
        assert count == 50

    def test_threads_give_the_serial_tables(self):
        # more threads than cores, switching often: each draws into its own
        # buffer, so every table is the one a serial run gives
        specs = [SimulationSpec(test=test, k=k, n=n, d=d, n_reps=300, seed=seed)
                 for seed, (test, k, n, d) in enumerate([
                     ("ANOVA2circ", 3, 16, 0.5), ("MANOVA", 2, 8, 0.0),
                     ("T2circ", 1, 64, 0.3), ("CI_test", 1, 12, 0.0)])]
        serial = [simulate_rates(spec).to_json() for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(simulate_rates, spec)
                           for _ in range(4) for spec in specs]
                tables = [f.result(timeout=120).to_json() for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert tables == serial * 4

    def test_large_replicate_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(simulate, "_spare", threading.local())
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 256)
        small = SimulationSpec(test="T2", n=8, n_reps=100)
        simulate_rates(small)
        kept = simulate._spare.buffer
        assert kept.size <= 256
        # one replicate of 300 values draws into an array of its own
        large = SimulationSpec(test="T2", n=300, n_reps=3)
        assert first_address(large) != kept.ctypes.data
        simulate_rates(large)
        assert simulate._spare.buffer.size <= 256
        assert first_address(small) == kept.ctypes.data

    def test_a_new_thread_draws_without_a_spare(self):
        spec = SimulationSpec(test="T2circ", n=8, n_reps=200, seed=2)
        expected = simulate_rates(spec).to_json()
        result = []
        thread = threading.Thread(target=lambda: result.append(
            (simulate_rates(spec).to_json(), simulate._spare.buffer.size)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result == [(expected, 200 * 8)]


class TestHugeCounts:
    # 2**62 used to reach numpy's allocator ("array is too big") or start a
    # block loop that would not end; it is refused before any generator
    # is built
    @pytest.mark.parametrize("call", [
        lambda: SimulationSpec(test="T2", n_reps=2**62),
        lambda: simulate_ci_distribution(4, 2**62, 0),
        lambda: simulate_amplitude_skew(1.0, 2**62, 0),
        lambda: simulate_outlier_effect(8, 1.0, 2**62, 0),
    ], ids=["SimulationSpec", "simulate_ci_distribution",
            "simulate_amplitude_skew", "simulate_outlier_effect"])
    def test_refused_before_drawing(self, call, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("drew before refusing the count")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(InvalidSpec, match="n_reps must be <= 4294967295"):
            call()

    # a cell of 2**62 draws per replicate used to reach numpy's allocator
    @pytest.mark.parametrize("call", [
        lambda: SimulationSpec(test="T2", n=2**62, n_reps=1),
        lambda: SimulationSpec(test="T2", k=2**31, n=2, n_reps=1),
        lambda: simulate_ci_distribution(2**62, 1, 0),
    ], ids=["SimulationSpec-n", "SimulationSpec-k", "simulate_ci_distribution"])
    def test_cell_size_refused_before_drawing(self, call, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("drew before refusing the cell size")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(InvalidSpec, match=r"k \* n must be <= 4294967295"):
            call()


class TestCiDistribution:
    def test_all_at_least_one(self):
        cis = simulate_ci_distribution(4, 2000, seed=13)
        assert np.all(cis >= 1.0)

    def test_vectorized_matches_covariance_summary(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((50, 6, 2))
        X = z[:, :, 0] + 1j * z[:, :, 1]
        vec = condition_index(X)[0]
        for i in range(50):
            summary = covariance_summary(ComplexSample(X[i]))
            assert vec[i] == pytest.approx(summary.condition_index, rel=1e-10)

    def test_needs_three(self):
        with pytest.raises(InvalidSpec):
            simulate_ci_distribution(2, 100, 0)


class TestAmplitudeSkew:
    def test_amplitudes_nonnegative(self):
        amps, _ = simulate_amplitude_skew(0.5, 5000, seed=15)
        assert np.all(amps >= 0.0)

    def test_rayleigh_skew_at_zero(self):
        _, skew = simulate_amplitude_skew(0.0, 100000, seed=16)
        assert skew == pytest.approx(RAYLEIGH_SKEW, abs=0.05)

    def test_near_normal_at_d4(self):
        _, skew = simulate_amplitude_skew(4.0, 100000, seed=17)
        assert abs(skew) < 0.05

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_raises_invalid_spec(self, seed):
        with pytest.raises(InvalidSpec, match="seed"):
            simulate_amplitude_skew(1.0, 100, seed=seed)

    # d = nan used to return a NaN skew, d = inf to warn, and n_reps = 2.5
    # to raise a raw TypeError
    @pytest.mark.parametrize("d,n_reps,match", [
        (-1.0, 100, "d must be >= 0"),
        (math.nan, 10, "d must be a finite real"),
        (math.inf, 10, "d must be a finite real"),
        (1.0, 1, "n_reps must be >= 2"),
        (1.0, 2.5, "n_reps must be an integer"),
        # d + noise rounds to a few floats: 1e18 gave skew 1.0
        (1e13, 10, r"must be below 2\^43"),
        (1e18, 10, r"must be below 2\^43"),
        (1e300, 10, r"must be below 2\^43"),
    ])
    def test_bad_arguments_raise_invalid_spec(self, d, n_reps, match):
        with pytest.raises(InvalidSpec, match=match):
            simulate_amplitude_skew(d, n_reps, seed=0)

    @pytest.mark.parametrize("d", [1e12, math.nextafter(2.0**43, 0.0)])
    def test_largest_resolved_d_returns(self, d):
        _, skew = simulate_amplitude_skew(d, 20000, seed=0)
        assert abs(skew) < 0.1

    def test_draws_rounding_to_one_amplitude_raise_invalid_spec(self):
        # below the bound, two draws can still round to one float
        with pytest.raises(InvalidSpec, match="without spread"):
            simulate_amplitude_skew(2.0**42, 2, seed=11962)

    # 1e20 used to raise ZeroDivisionError (every amplitude rounds to d) and
    # 1e300 to return a NaN skew with overflow warnings
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d", [1e20, 1e150, 1e300, 1.7e308])
    def test_amplitudes_without_spread_raise_invalid_spec(self, d):
        with pytest.raises(InvalidSpec, match="leaves the amplitudes without"):
            simulate_amplitude_skew(d, 10, seed=0)

    def test_skew_decreases_with_d(self):
        skews = [simulate_amplitude_skew(d, 50000, seed=18)[1]
                 for d in (0.0, 1.0, 2.0, 4.0)]
        assert skews[0] > skews[1] > skews[2] > skews[3]


class TestOutlierEffect:
    def test_zero_distance_is_null(self):
        rate = simulate_outlier_effect(16, 0.0, 2000, seed=19)
        assert rate == pytest.approx(0.05, abs=0.02)

    def test_displaced_point_inflates_rejections_at_every_n(self):
        se = math.sqrt(0.05 * 0.95 / 10000)
        for n in (8, 16, 32):
            rate = simulate_outlier_effect(n, 5.0, 10000, seed=5)
            assert rate > 0.05 + 3 * se, (n, rate)

    def test_threshold_equals_p_value_decision(self):
        # the quantile shortcut must agree with the p-value route
        from phasorstats import ConditionIndexDistribution, ci_test

        rng = np.random.default_rng(20)
        dist = ConditionIndexDistribution(10, "modified")
        threshold = dist.quantile(0.95)
        for _ in range(50):
            z = rng.standard_normal((10, 2))
            s = ComplexSample(z[:, 0] + 1j * z[:, 1])
            res = ci_test(s)
            assert (res.p_value < 0.05) == (res.statistic > threshold)

    def test_needs_four(self):
        with pytest.raises(InvalidSpec):
            simulate_outlier_effect(3, 1.0, 100, 0)

    # each used to escape as a raw TypeError from the n >= 4 comparison
    @pytest.mark.parametrize("n", ["x", None])
    def test_bad_arguments_raise_invalid_spec(self, n):
        with pytest.raises(InvalidSpec, match="n must be an integer"):
            simulate_outlier_effect(n, 1.0, 10, 0)


class TestRateTable:
    def test_csv_header_and_shape(self):
        base = SimulationSpec(test="T2circ", n_reps=100, seed=21)
        table = simulate_grid(base, d_values=[0.0, 1.0], n_values=[4, 8])
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "test,d,n,correlation,variance_ratio,k,rate,se,n_reps"
        assert len(lines) == 1 + 4

    def test_rate_lookup(self):
        base = SimulationSpec(test="T2circ", n_reps=100, seed=22)
        table = simulate_grid(base, d_values=[0.0, 1.0])
        assert 0.0 <= table.rate(d=1.0) <= 1.0
        with pytest.raises(KeyError):
            table.rate(d=2.0)

    def test_json_round_trip(self):
        base = SimulationSpec(test="T2circ", n_reps=100, seed=24)
        table = simulate_grid(base, d_values=[0.0, 1.0])
        text = table.to_json()
        assert list(json.loads(text)) == ["seed", "cells"]
        assert RateTable.from_json(text).to_json() == text
        assert RateTable.from_json(text) == table

    def test_se_is_binomial(self):
        table = simulate_rates(SimulationSpec(test="T2", n_reps=400, seed=23))
        cell = table.cells[0]
        assert cell.se == pytest.approx(
            math.sqrt(cell.rate * (1 - cell.rate) / 400), rel=1e-12
        )
