"""Tests for the synthetic CM1 model (storm, microphysics, reflectivity)."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from repro.cm1.config import CM1Config, StormConfig
from repro.cm1.dataset import CM1Dataset
from repro.cm1.microphysics import Microphysics, correlated_noise, perturb
from repro.cm1.reflectivity import (
    _SPECIES_COEFFS,
    DBZ_MAX,
    DBZ_MIN,
    equivalent_reflectivity,
    reflectivity_dbz,
)
from repro.cm1 import simulation as simulation_module
from repro.cm1.simulation import FIELD_DTYPE, CM1Simulation
from repro.cm1.storm import STORM_FAMILIES, SupercellStorm
from repro.grid.domain import Domain
from repro.grid.rectilinear import RectilinearGrid
from repro.scenarios import ExperimentScenario
from repro.scenarios.catalog import create_scenario_config
from repro.scenarios.scenario import live_dataset
from repro.utils.random import derive_seed, rng_from_seed

# -- the replaced bodies, kept verbatim as oracles ------------------------------


def oracle_dense_mesh(grid: RectilinearGrid) -> list:
    """``CM1Simulation._normalised_mesh`` before the open mesh: three dense
    ``(nx, ny, nz)`` float64 coordinate meshes."""
    x, y, z = grid.x, grid.y, grid.z

    def normalise(axis: np.ndarray) -> np.ndarray:
        span = axis[-1] - axis[0]
        if span <= 0:
            return np.zeros_like(axis)
        return (axis - axis[0]) / span

    return np.meshgrid(normalise(x), normalise(y), normalise(z), indexing="ij")


def oracle_correlated_noise(shape, sigma_points, seed):
    """``correlated_noise`` before it divided in place."""
    rng = rng_from_seed(seed)
    white = rng.standard_normal(shape)
    if sigma_points > 0:
        smooth = ndimage.gaussian_filter(white, sigma=sigma_points, mode="nearest")
    else:
        smooth = white
    std = smooth.std()
    if std > 0:
        smooth = smooth / std
    return smooth.astype(np.float64)


def oracle_mixing_ratios(self, xn, yn, zn, iteration):
    """``Microphysics.mixing_ratios`` before the slab loop: it drew the
    whole-grid noise itself (here through ``oracle_correlated_noise``)."""
    cfg: StormConfig = self.storm.config
    env = self.storm.envelopes(xn, yn, zn, iteration)
    shape = np.broadcast(xn, yn, zn).shape
    geo = self.storm.geometry(iteration)

    # Turbulence correlation length in grid points along the first axis.
    sigma = max(1.0, cfg.turbulence_scale * geo.radius * shape[0])
    turb_r = oracle_correlated_noise(shape, sigma, derive_seed(self.seed, "qr", iteration))
    turb_s = oracle_correlated_noise(shape, sigma * 1.5, derive_seed(self.seed, "qs", iteration))
    turb_g = oracle_correlated_noise(shape, sigma * 0.7, derive_seed(self.seed, "qg", iteration))

    # core * (1 - 0.85 * weak_echo), in one buffer.
    core = env["weak_echo"] * -0.85
    core += 1.0
    core *= env["core"]
    hook = env["hook"]
    anvil = env["anvil"]

    t = cfg.turbulence
    qr = perturb(core + 0.8 * hook, turb_r, t, self.QR_MAX)
    qs = perturb(anvil + 0.15 * core, turb_s, t, self.QS_MAX)
    qg = perturb(0.75 * core + 0.5 * hook, turb_g, t, self.QG_MAX)
    return {"qr": qr, "qs": qs, "qg": qg}


def oracle_snapshot(self, snapshot_index):
    """``CM1Simulation.snapshot`` before the slab loop: every pass on the
    whole grid, cast to float32 at the end."""
    iteration = self.model_iteration(snapshot_index)
    ratios = oracle_mixing_ratios(
        self.microphysics, *self._normalised_mesh(), snapshot_index
    )
    dbz = np.asarray(reflectivity_dbz(ratios), dtype=FIELD_DTYPE)
    return Domain(grid=self.grid, fields={"dbz": dbz}, iteration=iteration)


def oracle_perturb(envelope, noise, turbulence, peak):
    """The ``perturb`` closure of ``Microphysics.mixing_ratios`` before it
    worked in the noise buffer, with the peak factor its caller applied."""
    pert = 1.0 + turbulence * noise
    return peak * np.clip(envelope * pert, 0.0, None)


def oracle_equivalent_reflectivity(mixing_ratios, rho_air=1.0):
    """``equivalent_reflectivity`` before its in-place passes, with the air
    density it took (1.0, the only value any caller passed)."""
    if rho_air <= 0:
        raise ValueError(f"rho_air must be > 0, got {rho_air}")
    z_total = None
    for name, (a, b) in _SPECIES_COEFFS.items():
        q = mixing_ratios.get(name)
        if q is None:
            continue
        content = np.clip(np.asarray(q, dtype=np.float64), 0.0, None) * rho_air
        z = a * np.power(content, b)
        z_total = z if z_total is None else z_total + z
    if z_total is None:
        raise ValueError(
            f"no known hydrometeor species found; expected one of {list(_SPECIES_COEFFS)}"
        )
    return z_total


def oracle_reflectivity_dbz(mixing_ratios, rho_air=1.0, clip=True):
    """``reflectivity_dbz`` before its in-place passes, with the density and
    clipping it took (the only values any caller passed)."""
    z = oracle_equivalent_reflectivity(mixing_ratios, rho_air)
    # Floor at the value corresponding to DBZ_MIN to avoid log10(0).
    z_floor = 10.0 ** (DBZ_MIN / 10.0)
    dbz = 10.0 * np.log10(np.maximum(z, z_floor))
    if clip:
        dbz = np.clip(dbz, DBZ_MIN, DBZ_MAX)
    return dbz


def assert_same_bits(got, want):
    """Same shape, dtype and bytes.  NaN positions must agree but not their
    payloads: IEEE leaves the payload of an operation on two NaNs to the
    hardware, so even the oracle's is not fixed."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


#: Values an in-place rewrite can get wrong, salted into the law inputs.
SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf, -1e-3)


def salted(rng, shape, dtype, scale):
    """Normal values of ``scale``, about a third replaced by ``SPECIALS``."""
    values = rng.normal(0.0, scale, shape)
    hits = rng.random(shape) < 0.3
    values[hits] = rng.choice(SPECIALS, int(hits.sum()))
    return values.astype(dtype)


class TestConfigs:
    def test_tiny_config_valid(self, tiny_cm1):
        assert tiny_cm1.shape == (44, 44, 12)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            CM1Config(shape=(2, 8, 8))

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            CM1Config(shape=(8, 8, 8), iteration_stride=0)

    def test_storm_config_validation(self):
        with pytest.raises(ValueError):
            StormConfig(initial_radius=-0.1)
        with pytest.raises(ValueError):
            StormConfig(core_height=1.5)
        with pytest.raises(ValueError):
            StormConfig(radius_growth_per_iteration=-0.1)


class TestStorm:
    def setup_method(self):
        self.storm = SupercellStorm(StormConfig())
        n = 32
        x = np.linspace(0, 1, n)
        self.mesh = np.meshgrid(x, x, np.linspace(0, 1, 8), indexing="ij")

    def test_geometry_grows_and_moves(self):
        g0 = self.storm.geometry(0)
        g20 = self.storm.geometry(20)
        assert g20.radius >= g0.radius
        assert g20.center != g0.center
        assert 0.0 < g0.intensity <= 1.0

    def test_geometry_radius_saturates(self):
        g = self.storm.geometry(10_000)
        assert g.radius == pytest.approx(self.storm.config.max_radius)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            self.storm.geometry(-1)

    def test_envelopes_in_unit_range(self):
        env = self.storm.envelopes(*self.mesh, iteration=5)
        for name in ("core", "hook", "weak_echo", "anvil"):
            assert env[name].min() >= 0.0
            assert env[name].max() <= 1.5  # intensity-scaled envelopes stay bounded

    def test_core_peaks_near_center(self):
        env = self.storm.envelopes(*self.mesh, iteration=5)
        geo = self.storm.geometry(5)
        idx = np.unravel_index(np.argmax(env["core"]), env["core"].shape)
        xn = self.mesh[0][idx]
        yn = self.mesh[1][idx]
        assert abs(xn - geo.center[0]) < 0.15
        assert abs(yn - geo.center[1]) < 0.15

    def test_interest_mask_is_localized(self):
        env = self.storm.envelopes(*self.mesh, iteration=5)
        fraction = (env["core"] + env["hook"] + env["anvil"] > 0.05).mean()
        assert 0.0 < fraction < 0.5


def ratios_on(micro, mesh, iteration):
    """The mixing ratios on a whole mesh: its turbulence drawn first."""
    turbulence = micro.turbulence(np.broadcast(*mesh).shape, iteration)
    return micro.mixing_ratios(*mesh, iteration, turbulence)


class TestMicrophysics:
    def test_mixing_ratios_nonnegative_and_localized(self):
        storm = SupercellStorm(StormConfig())
        micro = Microphysics(storm, seed=1)
        n = 24
        x = np.linspace(0, 1, n)
        mesh = np.meshgrid(x, x, np.linspace(0, 1, 8), indexing="ij")
        ratios = ratios_on(micro, mesh, iteration=3)
        for name in ("qr", "qs", "qg"):
            q = ratios[name]
            assert q.min() >= 0.0
            assert q.max() > 0.0
            # Most of the domain is quiet.
            assert (q > 0.1 * q.max()).mean() < 0.5

    def test_deterministic_given_seed(self):
        storm = SupercellStorm(StormConfig())
        n = 16
        x = np.linspace(0, 1, n)
        mesh = np.meshgrid(x, x, x[:6], indexing="ij")
        a = ratios_on(Microphysics(storm, seed=7), mesh, iteration=2)
        b = ratios_on(Microphysics(storm, seed=7), mesh, iteration=2)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seed_differs(self):
        storm = SupercellStorm(StormConfig())
        n = 16
        x = np.linspace(0, 1, n)
        mesh = np.meshgrid(x, x, x[:6], indexing="ij")
        a = ratios_on(Microphysics(storm, seed=7), mesh, iteration=2)
        b = ratios_on(Microphysics(storm, seed=8), mesh, iteration=2)
        assert not np.allclose(a["qr"], b["qr"])

    def test_correlated_noise_unit_variance(self):
        noise = correlated_noise((32, 32, 8), sigma_points=2.0, seed=3)
        assert noise.std() == pytest.approx(1.0, rel=1e-6)
        assert noise.shape == (32, 32, 8)


class TestReflectivity:
    def test_range_clipped(self):
        q = {"qr": np.array([[[0.0, 1e-2, 10.0]]])}
        dbz = reflectivity_dbz(q)
        assert dbz.min() >= DBZ_MIN and dbz.max() <= DBZ_MAX

    def test_zero_mixing_ratio_is_floor(self):
        dbz = reflectivity_dbz({"qr": np.zeros((2, 2, 2))})
        np.testing.assert_allclose(dbz, DBZ_MIN)

    def test_monotone_in_rain_content(self):
        small = reflectivity_dbz({"qr": np.full((1, 1, 1), 1e-4)})
        big = reflectivity_dbz({"qr": np.full((1, 1, 1), 5e-3)})
        assert big > small

    def test_species_sum(self):
        q = {"qr": np.full((1, 1, 1), 1e-3), "qg": np.full((1, 1, 1), 1e-3)}
        z_both = equivalent_reflectivity(q)
        z_rain = equivalent_reflectivity({"qr": q["qr"]})
        assert z_both > z_rain

    def test_unknown_species_only_rejected(self):
        with pytest.raises(ValueError):
            reflectivity_dbz({"qx": np.ones((1, 1, 1))})

    @settings(deadline=None, max_examples=30)
    @given(q=st.floats(min_value=0.0, max_value=0.05, allow_nan=False))
    def test_dbz_always_in_physical_range_property(self, q):
        dbz = reflectivity_dbz({"qr": np.full((1, 1, 1), q)})
        assert DBZ_MIN <= float(dbz.item()) <= DBZ_MAX


class TestModelStateAndSimulation:
    def test_snapshot_fields_and_iteration(self, tiny_simulation):
        domain = tiny_simulation.snapshot(2)
        assert domain.iteration == tiny_simulation.config.start_iteration + 2
        assert list(domain.fields) == ["dbz"]
        assert domain.get_field("dbz").shape == tiny_simulation.config.shape
        assert domain.get_field("dbz").dtype == np.float32

    def test_snapshot_dbz_range_and_locality(self, tiny_field):
        assert tiny_field.min() >= DBZ_MIN
        assert tiny_field.max() <= DBZ_MAX
        assert tiny_field.max() > 30.0  # there is a storm
        # The interesting region is a minority of the domain.
        assert (tiny_field > 20.0).mean() < 0.5

    def test_storm_evolves_between_snapshots(self, tiny_simulation):
        a = tiny_simulation.snapshot(0).get_field("dbz")
        b = tiny_simulation.snapshot(5).get_field("dbz")
        assert not np.allclose(a, b)

    def test_iterate_yields_requested_count(self, tiny_simulation):
        domains = list(tiny_simulation.iterate(3))
        assert len(domains) == 3
        assert domains[0].iteration < domains[2].iteration

    def test_snapshot_deterministic(self, tiny_cm1):
        config = replace(tiny_cm1, seed=5)
        a = CM1Simulation(config).snapshot(1).get_field("dbz")
        b = CM1Simulation(config).snapshot(1).get_field("dbz")
        np.testing.assert_array_equal(a, b)


def simulation_on(shape, storm, dense):
    """A ``CM1Simulation`` of ``shape``, on the open mesh or on the dense oracle."""
    config = CM1Config(shape=tuple(max(n, 4) for n in shape), seed=11, storm=storm)
    sim = CM1Simulation(config)
    if min(shape) < 4:
        # CM1Config refuses axes under 4 points (its stretched grid needs
        # them); the law also covers length-1 axes, so a uniform grid of the
        # drawn shape and that shape are swapped in.
        object.__setattr__(config, "shape", shape)
        sim.grid = RectilinearGrid.uniform(shape)
    if dense:
        sim._normalised_mesh = lambda: oracle_dense_mesh(sim.grid)
    return sim


def float64_parts(sim, iteration):
    """The float64 fields a snapshot is made of: envelopes and mixing ratios."""
    mesh = sim._normalised_mesh()
    parts = {f"env.{k}": v for k, v in sim.storm.envelopes(*mesh, iteration).items()}
    parts.update(ratios_on(sim.microphysics, mesh, iteration))
    return parts


class TestOpenMeshLaw:
    @pytest.mark.parametrize(
        "storm", [family() for family in STORM_FAMILIES], ids=lambda s: type(s).__name__
    )
    @settings(deadline=None, max_examples=20)
    @given(
        shape=st.tuples(*[st.just(1) | st.integers(min_value=4, max_value=24)] * 3),
        iteration=st.integers(min_value=0, max_value=15),
    )
    def test_open_mesh_state_equals_dense_mesh_state(self, storm, shape, iteration):
        """Every registered storm family, on the open mesh, gives the
        envelopes, mixing ratios and reflectivity the dense mesh gives,
        bitwise, and every envelope has the full shape.

        Fails with ``TurbulenceFieldStorm``'s ``zero`` built from ``xn.shape``
        (an envelope of shape ``(nx, 1, 1)``) and with ``turbulence`` drawn
        in ``xn.shape``.  The dense side's snapshot is the whole-grid oracle
        ``oracle_snapshot``.  Both sides run the same envelope
        arithmetic, so a rewrite that changes the bytes on any mesh (the
        core's ``exp(-(rho / r) ** 2)`` as a product of an x and a y exponential) is
        not this law's to catch.
        """
        sim = simulation_on(shape, storm, dense=False)
        oracle = simulation_on(shape, storm, dense=True)

        xn, yn, zn = sim._normalised_mesh()
        nx, ny, nz = shape
        assert (xn.shape, yn.shape, zn.shape) == ((nx, 1, 1), (1, ny, 1), (1, 1, nz))
        for name, env in sim.storm.envelopes(xn, yn, zn, iteration).items():
            assert env.shape == np.broadcast(xn, yn, zn).shape, name

        got, want = float64_parts(sim, iteration), float64_parts(oracle, iteration)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

        got, want = sim.snapshot(iteration), oracle_snapshot(oracle, iteration)
        assert list(got.fields) == list(want.fields) == ["dbz"]
        assert got.get_field("dbz").tobytes() == want.get_field("dbz").tobytes()


class TestSlabLaw:
    @pytest.mark.parametrize("planes", [1, 3, None], ids=["one-plane", "three-planes", "whole-grid"])
    @pytest.mark.parametrize(
        "storm", [family() for family in STORM_FAMILIES], ids=lambda s: type(s).__name__
    )
    @settings(deadline=None, max_examples=15)
    @given(
        shape=st.tuples(
            st.just(1) | st.integers(min_value=4, max_value=80),
            *[st.just(1) | st.integers(min_value=4, max_value=12)] * 2,
        ),
        iteration=st.integers(min_value=0, max_value=15),
    )
    # Past about 40 x-planes the turbulence's sigma rises above its floor of
    # one point, and only there does a sigma taken per slab show.
    @example(shape=(72, 6, 5), iteration=0)
    def test_snapshot_equals_the_whole_grid_oracle(self, planes, storm, shape, iteration):
        """Every storm family's slab-by-slab snapshot is the whole-grid
        oracle's, byte for byte, at slabs of one plane, three planes and the
        whole grid.

        Fails with the noise drawn per slab, with the turbulence's sigma
        taken from a slab's ``shape[0]`` and with a slab written one plane
        off.
        """
        sim = simulation_on(shape, storm, dense=False)
        nx, ny, nz = shape
        slab_bytes = (planes or nx) * ny * nz * 8
        want = oracle_snapshot(sim, iteration)
        with mock.patch.object(simulation_module, "_SLAB_BYTES", slab_bytes):
            got = sim.snapshot(iteration)
        assert got.iteration == want.iteration
        assert list(got.fields) == list(want.fields) == ["dbz"]
        dbz = got.get_field("dbz")
        assert (dbz.dtype, dbz.shape) == (FIELD_DTYPE, shape)
        assert dbz.tobytes() == want.get_field("dbz").tobytes()


class TestSnapshotMemory:
    def test_one_snapshot_peaks_under_four_and_a_half_grids(self):
        """The numpy allocations of one ``blue_waters_64`` snapshot peak at
        no more than 4.5 float64 grids.  The peak, 4.0, is the three
        turbulence fields and the one temporary grid of the normalising
        ``std``; the float32 field and slab-sized temporaries come after it.
        The whole-grid passes peaked at 10 grids; a slab loop that builds
        whole-grid envelopes fails too.

        ``tracemalloc`` counts what numpy allocates, not the process's RSS,
        so the bound is deterministic.
        """
        sim = live_dataset(create_scenario_config("blue_waters_64")).simulation
        grid_bytes = np.prod(sim.config.shape) * 8
        tracemalloc.start()
        try:
            sim.snapshot(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * grid_bytes, f"{peak / grid_bytes:.2f} float64 grids"


class TestLiveScenarioMemory:
    """A live scenario keeps each snapshot once: its cached arrival.

    Building a live ``decaying_storm`` scenario (12 snapshots of 88×88×24
    float32) and its whole feed retains at most 1.15 × nsnapshots × field
    bytes plus 256 KB under ``tracemalloc``.  The reading is 1.006× (52 KB
    over the arrivals: block tables, platform, the CM1 model); a dataset that
    also caches each ``Domain`` keeps 2.0× and fails the bound, which the
    second test pins.  ``tracemalloc`` counts what numpy allocates, not the
    process's RSS, so the bound is deterministic.
    """

    SLACK_BYTES = 256 * 1024

    @staticmethod
    def retained(build) -> tuple:
        """``(retained bytes, bound)`` of ``build(config)``'s scenario and feed."""
        config = create_scenario_config("decaying_storm")
        field_bytes = int(np.prod(config.shape)) * np.dtype(np.float32).itemsize
        # Load SciPy first: its import is not what the scenario keeps.
        correlated_noise((2, 2, 2), 1.0, 0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scenario = build(config)
            feed = scenario.iteration_blocks()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(feed) == config.nsnapshots
        bound = 1.15 * config.nsnapshots * field_bytes + TestLiveScenarioMemory.SLACK_BYTES
        return after - before, bound

    def test_a_live_scenario_and_its_feed_keep_each_snapshot_once(self):
        retained, bound = self.retained(ExperimentScenario)
        assert retained <= bound, f"{retained} B retained, bound {bound:.0f} B"

    def test_the_bound_sees_a_second_copy_of_each_snapshot(self):
        def with_domain_cache(config):
            cached = CM1Dataset(live_dataset(config).config, config.nsnapshots, cache=True)
            return ExperimentScenario(config, dataset=cached)

        retained, bound = self.retained(with_domain_cache)
        assert retained > bound, f"{retained} B retained, bound {bound:.0f} B"


SRC = Path(__file__).resolve().parents[1] / "src"


class TestLazyScipy:
    """SciPy is loaded where CM1 draws its noise, not by ``import repro``: a
    serve pool worker, which only replays stores, never maps it."""

    def test_importing_the_package_and_its_entry_points_loads_no_scipy(self):
        """In a fresh interpreter, ``import repro, repro.serve.server,
        repro.cli`` leaves ``scipy`` out of ``sys.modules``, and one tiny
        snapshot brings it in.  Fails with ``from scipy import ndimage`` back
        at the top of ``cm1/microphysics.py``."""
        script = (
            "import sys\n"
            "import repro, repro.serve.server, repro.cli\n"
            "print('scipy' in sys.modules)\n"
            "from repro.cm1 import CM1Config, CM1Simulation\n"
            "from repro.scenarios.spec import TINY_SHAPE\n"
            "CM1Simulation(CM1Config(shape=TINY_SHAPE)).snapshot(0)\n"
            "print('scipy' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]

    def test_no_module_of_src_imports_scipy_at_module_level(self):
        """Every ``scipy`` import under ``src/`` sits inside a function, so no
        module the package grows later maps it on import either."""
        top_level = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                names = (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                    if isinstance(node, ast.ImportFrom)
                    else []
                )
                if any(name.split(".")[0] == "scipy" for name in names):
                    top_level.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert not top_level, top_level


#: Broadcastable species shapes, full and partial.
SPECIES_SHAPES = ((4, 5, 6), (1, 1, 1), (4, 1, 6), (1, 5, 1))


class TestInPlacePasses:
    """The in-place CM1 passes equal the bodies they replaced (kept above as
    oracles) and never write to an array the caller still holds."""

    @settings(deadline=None, max_examples=30)
    @given(
        shape=st.tuples(*[st.integers(min_value=1, max_value=9)] * 3),
        sigma=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_correlated_noise_equals_oracle(self, shape, sigma, seed):
        """The same field whether drawn fresh or into a caller's buffer."""
        want = oracle_correlated_noise(shape, sigma, seed)
        got = correlated_noise(shape, sigma, seed)
        assert got.dtype == np.float64
        assert_same_bits(got, want)
        buffer = np.full(shape, np.nan)
        assert correlated_noise(shape, sigma, seed, buffer) is buffer
        assert_same_bits(buffer, want)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dtype=st.sampled_from([np.float32, np.float64]),
        envelope_shape=st.sampled_from(SPECIES_SHAPES),
        turbulence=st.sampled_from([0.0, 0.35, 1.2, 2.0]),
        peak=st.sampled_from([Microphysics.QR_MAX, Microphysics.QS_MAX, Microphysics.QG_MAX]),
    )
    def test_perturb_equals_oracle_in_the_noise_buffer(
        self, seed, dtype, envelope_shape, turbulence, peak
    ):
        """The result is the noise buffer, overwritten; the envelope is only read."""
        rng = np.random.default_rng(seed)
        envelope = salted(rng, envelope_shape, dtype, 1.0)
        noise = salted(rng, (4, 5, 6), np.float64, 1.0)
        before = envelope.tobytes()
        with np.errstate(invalid="ignore"):
            want = oracle_perturb(envelope, noise, turbulence, peak)
            buffer = noise.copy()
            got = perturb(envelope, buffer, turbulence, peak)
        assert got is buffer
        assert_same_bits(got, want)
        assert envelope.tobytes() == before

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dtype=st.sampled_from([np.float32, np.float64]),
        shapes=st.fixed_dictionaries(
            {},
            optional={name: st.sampled_from(SPECIES_SHAPES) for name in ("qr", "qs", "qg", "qx")},
        ),
    )
    @example(seed=0, dtype=np.float64, shapes={"qr": (1, 1, 1), "qg": (4, 5, 6)})
    def test_reflectivity_equals_oracle_and_leaves_inputs(self, seed, dtype, shapes):
        """Fails with ``np.clip(q, 0, None, out=q)`` (the caller's ratios are
        clipped) and with an unconditional ``z_total += z`` (a ``(1, 1, 1)``
        rain field cannot take a ``(4, 5, 6)`` graupel sum in place)."""
        rng = np.random.default_rng(seed)
        ratios = {name: salted(rng, shape, dtype, 5e-3) for name, shape in shapes.items()}
        before = {name: q.tobytes() for name, q in ratios.items()}
        if not set(ratios) - {"qx"}:
            with pytest.raises(ValueError):
                equivalent_reflectivity(ratios)
            return
        with np.errstate(invalid="ignore", divide="ignore"):
            pairs = (
                (equivalent_reflectivity(ratios), oracle_equivalent_reflectivity(ratios)),
                (reflectivity_dbz(ratios), oracle_reflectivity_dbz(ratios)),
            )
        for got, want in pairs:
            assert_same_bits(got, want)
            assert not any(np.shares_memory(got, q) for q in ratios.values())
        assert {name: q.tobytes() for name, q in ratios.items()} == before
