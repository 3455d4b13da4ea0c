"""Tests for repro.io and the CM1 dataset replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cm1.config import CM1Config
from repro.cm1.dataset import CM1Dataset, StoredCM1Dataset, equally_spaced
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.domain import Domain
from repro.grid.rectilinear import RectilinearGrid
from repro.io.manifest import DatasetManifest, IterationRecord
from repro.io.store import DatasetStore


class TestManifest:
    def test_json_roundtrip(self):
        manifest = DatasetManifest(shape=(4, 4, 2))
        manifest.add_iteration(IterationRecord(5, "iter_5.npz", ["dbz"], 100))
        restored = DatasetManifest.from_json(manifest.to_json())
        assert restored.shape == (4, 4, 2)
        assert restored.iterations[0].iteration == 5

    def test_iterations_must_increase(self):
        manifest = DatasetManifest(shape=(4, 4, 2))
        manifest.add_iteration(IterationRecord(5, "a.npz", ["dbz"]))
        with pytest.raises(ValueError):
            manifest.add_iteration(IterationRecord(5, "b.npz", ["dbz"]))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            IterationRecord(-1, "a.npz", ["dbz"]).validate()
        with pytest.raises(ValueError):
            IterationRecord(1, "", ["dbz"]).validate()
        with pytest.raises(ValueError):
            IterationRecord(1, "a.npz", []).validate()
        with pytest.raises(ValueError):
            IterationRecord(1, "a.npz", ["dbz"], dtypes={"ghost": "<f4"}).validate()

    def test_record_dtypes_roundtrip(self):
        manifest = DatasetManifest(shape=(4, 4, 2))
        manifest.add_iteration(
            IterationRecord(1, "a.npz", ["dbz"], dtypes={"dbz": "<f8"})
        )
        restored = DatasetManifest.from_json(manifest.to_json())
        assert restored.iterations[0].dtypes == {"dbz": "<f8"}

    def test_record_without_dtypes_accepted(self):
        """Manifests written before dtypes were tracked still load."""
        manifest = DatasetManifest(shape=(4, 4, 2))
        manifest.add_iteration(IterationRecord(1, "a.npz", ["dbz"]))
        text = manifest.to_json().replace('"dtypes": {},', "")
        restored = DatasetManifest.from_json(text)
        assert restored.iterations[0].dtypes == {}

    def test_find(self):
        manifest = DatasetManifest(shape=(4, 4, 2))
        manifest.add_iteration(IterationRecord(3, "a.npz", ["dbz"]))
        assert manifest.find(3) is not None
        assert manifest.find(4) is None

    def test_unsupported_version(self):
        manifest = DatasetManifest(shape=(4, 4, 2))
        text = manifest.to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError):
            DatasetManifest.from_json(text)

    def test_load_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DatasetManifest.load(tmp_path)


class TestDatasetStore:
    def _domain(self, iteration=0, value=1.0):
        grid = RectilinearGrid.uniform((6, 6, 4))
        field = np.full((6, 6, 4), value, dtype=np.float32)
        return Domain(grid=grid, fields={"dbz": field}, iteration=iteration)

    def test_create_append_load(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)), metadata={"seed": 1})
        store.append(self._domain(0, 1.0))
        store.append(self._domain(2, 2.0))
        assert store.iterations() == [0, 2]
        loaded = store.load_iteration(2)
        np.testing.assert_allclose(loaded.get_field("dbz"), 2.0)
        assert loaded.iteration == 2

    @pytest.mark.parametrize("layout", ["npz", "raw"])
    def test_npy_headers_parsed_under_the_read_lock(self, tmp_path, monkeypatch, layout):
        """``np.load`` runs ``ast.literal_eval`` on every ``.npy`` header, which
        is not thread-safe before CPython 3.11.8 (gh-106905: the thread tier's
        rare ``AST constructor recursion depth mismatch`` error reply), so the
        store parses none outside its read lock."""
        import ast

        from repro.io import store as store_module

        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)), layout=layout)
        store.append(self._domain(0, 1.0))
        locked = []
        literal_eval = ast.literal_eval

        def probe(source):
            locked.append(store_module._NPZ_READ_LOCK.locked())
            return literal_eval(source)

        monkeypatch.setattr(ast, "literal_eval", probe)
        loaded = store.load_iteration(0)
        np.testing.assert_allclose(loaded.get_field("dbz"), 1.0)
        assert locked and all(locked)
        assert not store_module._NPZ_READ_LOCK.locked()
        # The grid axes are parsed once per store, not once per iteration: a
        # second load parses no header at all on the raw layout (none but the
        # iteration's own on npz), and shares the first one's read-only axes.
        del locked[:]
        again = store.load_iteration(0)
        assert len(locked) == (0 if layout == "raw" else 1) and all(locked)
        assert again.grid is loaded.grid and not again.grid.x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            again.grid.z[0] = -1.0
        store.delete()  # drops the cached grid with the files
        with pytest.raises(FileNotFoundError):
            store.grid()

    def test_nbytes_sums_on_disk_files(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)))
        store.append(self._domain(0, 1.0))
        expected = sum(
            p.stat().st_size for p in (tmp_path / "ds").rglob("*") if p.is_file()
        )
        assert store.nbytes() == expected > 0
        store.append(self._domain(1, 2.0))
        assert store.nbytes() > expected  # grows with the data

    def test_nbytes_of_missing_store_is_zero(self, tmp_path):
        assert DatasetStore(tmp_path / "absent").nbytes() == 0

    def test_delete_removes_store_and_is_idempotent(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)))
        store.append(self._domain(0, 1.0))
        assert store.exists()
        store.delete()
        assert not (tmp_path / "ds").exists()
        assert not store.exists()
        store.delete()  # deleting a deleted store must not raise
        # The root is free for a fresh store of a different shape.
        fresh = DatasetStore(tmp_path / "ds")
        fresh.create(RectilinearGrid.uniform((5, 5, 4)))
        assert fresh.exists()

    def test_delete_leaves_open_mmap_readable(self, tmp_path):
        """POSIX semantics the bounded replay cache relies on: deleting a
        store under a reader only unlinks names; the open mapping stays
        valid until the reader drops it."""
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)), layout="raw")
        store.append(self._domain(0, 3.0))
        loaded = store.load_iteration(0, mmap=True)
        field = loaded.get_field("dbz")
        store.delete()
        assert not (tmp_path / "ds").exists()
        np.testing.assert_allclose(np.asarray(field), 3.0)

    def test_create_twice_rejected(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)))
        with pytest.raises(FileExistsError):
            store.create(RectilinearGrid.uniform((6, 6, 4)))

    def test_shape_mismatch_rejected(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)))
        grid = RectilinearGrid.uniform((5, 5, 4))
        bad = Domain(grid=grid, fields={"dbz": np.zeros((5, 5, 4))}, iteration=0)
        with pytest.raises(ValueError):
            store.append(bad)

    def test_missing_iteration(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)))
        with pytest.raises(KeyError):
            store.load_iteration(7)

    def test_missing_field(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)))
        store.append(self._domain(0))
        with pytest.raises(KeyError):
            store.load_iteration(0, fields=["nonexistent"])

    def test_grid_roundtrip(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        grid = RectilinearGrid.cm1_like((8, 8, 6))
        store.create(grid)
        loaded = store.grid()
        np.testing.assert_allclose(loaded.x, grid.x)

    def test_dtype_preserved_roundtrip(self, tmp_path):
        """float64 fields must round-trip bit-exactly (no silent float32 cast),
        and float32 fields must stay float32."""
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)
        rng = np.random.default_rng(42)
        f64 = rng.normal(size=(6, 6, 4))  # float64, not float32-representable
        f32 = rng.normal(size=(6, 6, 4)).astype(np.float32)
        store.append(Domain(grid=grid, fields={"a": f64, "b": f32}, iteration=0))
        loaded = store.load_iteration(0)
        assert loaded.get_field("a").dtype == np.float64
        assert loaded.get_field("b").dtype == np.float32
        np.testing.assert_array_equal(loaded.get_field("a"), f64)
        np.testing.assert_array_equal(loaded.get_field("b"), f32)
        record = store.manifest().find(0)
        assert np.dtype(record.dtypes["a"]) == np.float64
        assert np.dtype(record.dtypes["b"]) == np.float32

    def test_dtype_survives_manifest_reload(self, tmp_path):
        """The recorded dtypes survive a manifest reload from disk."""
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)
        f64 = np.full((6, 6, 4), 1.0 + 1e-12)  # lost under a float32 cast
        store.append(Domain(grid=grid, fields={"dbz": f64}, iteration=0))
        fresh = DatasetStore(tmp_path / "ds")
        loaded = fresh.load_iteration(0)
        assert loaded.get_field("dbz").dtype == np.float64
        np.testing.assert_array_equal(loaded.get_field("dbz"), f64)


class TestRawLayout:
    def _domain(self, grid, iteration=0, seed=0):
        rng = np.random.default_rng(seed)
        return Domain(
            grid=grid,
            fields={
                "dbz": rng.normal(size=grid.shape).astype(np.float32),
                "aux": rng.normal(size=grid.shape),  # float64
            },
            iteration=iteration,
        )

    def test_raw_roundtrip_bitwise(self, tmp_path):
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid, layout="raw")
        domain = self._domain(grid)
        store.append(domain)
        assert store.layout == "raw"
        loaded = store.load_iteration(0)
        for name in ("dbz", "aux"):
            np.testing.assert_array_equal(
                loaded.get_field(name), domain.get_field(name)
            )
            assert loaded.get_field(name).dtype == domain.get_field(name).dtype

    def test_raw_offsets_recorded_and_aligned(self, tmp_path):
        from repro.io.store import RAW_ALIGNMENT

        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid, layout="raw")
        store.append(self._domain(grid))
        record = store.manifest().find(0)
        assert set(record.offsets) == {"dbz", "aux"}
        for offset in record.offsets.values():
            assert offset % RAW_ALIGNMENT == 0
        assert record.filename.endswith(".bin")

    def test_raw_mmap_load_is_zero_copy(self, tmp_path):
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid, layout="raw")
        domain = self._domain(grid)
        store.append(domain)
        loaded = store.load_iteration(0, mmap=True)
        for name in ("dbz", "aux"):
            field = loaded.get_field(name)
            # Domain validation wraps the memmap in a plain ndarray view; the
            # backing buffer must still be the read-only file mapping.
            assert not field.flags.owndata
            assert isinstance(field.base, np.memmap)
            np.testing.assert_array_equal(field, domain.get_field(name))

    def test_mmap_on_npz_store_rejected(self, tmp_path):
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)  # default npz layout
        store.append(self._domain(grid))
        with pytest.raises(ValueError):
            store.load_iteration(0, mmap=True)

    def test_unknown_layout_rejected(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        with pytest.raises(ValueError):
            store.create(RectilinearGrid.uniform((6, 6, 4)), layout="parquet")

    def test_layout_survives_manifest_reload(self, tmp_path):
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid, layout="raw")
        store.append(self._domain(grid))
        fresh = DatasetStore(tmp_path / "ds")
        assert fresh.layout == "raw"
        loaded = fresh.load_iteration(0, mmap=True)
        assert isinstance(loaded.get_field("dbz").base, np.memmap)

    def test_manifest_without_layout_defaults_to_npz(self, tmp_path):
        """Manifests written before the raw layout existed still load."""
        manifest = DatasetManifest(shape=(4, 4, 2))
        text = manifest.to_json().replace('"layout": "npz",', "")
        restored = DatasetManifest.from_json(text)
        assert restored.layout == "npz"


class TestCornerBlockReplay:
    """Round-trips of *reduced* data: 2x2x2 corner blocks, mixed dtypes.

    The reduction step replaces a block's payload with its 8 corner values;
    a store holding reduced snapshots therefore persists 2x2x2 fields.  They
    must survive both layouts bit-exactly — in every per-field dtype — and
    reconstruct identically through trilinear expansion.
    """

    def _corner_fields(self):
        from repro.grid.reduction import reduce_to_corners

        rng = np.random.default_rng(7)
        full_f64 = rng.normal(size=(8, 8, 6))
        full_f32 = rng.normal(size=(8, 8, 6)).astype(np.float32)
        return {
            "corners_f64": reduce_to_corners(full_f64),
            "corners_f32": reduce_to_corners(full_f32).astype(np.float32),
        }

    @pytest.mark.parametrize("layout", ["npz", "raw"])
    def test_corner_blocks_roundtrip_both_layouts(self, tmp_path, layout):
        grid = RectilinearGrid.uniform((2, 2, 2))
        fields = self._corner_fields()
        store = DatasetStore(tmp_path / "ds")
        store.create(grid, layout=layout)
        store.append(Domain(grid=grid, fields=fields, iteration=0))
        loaded = store.load_iteration(0)
        assert loaded.get_field("corners_f64").dtype == np.float64
        assert loaded.get_field("corners_f32").dtype == np.float32
        for name, original in fields.items():
            np.testing.assert_array_equal(loaded.get_field(name), original)

    def test_corner_blocks_mmap_expand_matches_original(self, tmp_path):
        from repro.grid.reduction import expand_from_corners

        grid = RectilinearGrid.uniform((2, 2, 2))
        fields = self._corner_fields()
        store = DatasetStore(tmp_path / "ds")
        store.create(grid, layout="raw")
        store.append(Domain(grid=grid, fields=fields, iteration=0))
        loaded = store.load_iteration(0, mmap=True)
        for name, original in fields.items():
            replayed = loaded.get_field(name)
            assert isinstance(replayed.base, np.memmap)
            # Rendering a replayed reduced block must reconstruct exactly
            # what rendering the live reduced block would have.
            np.testing.assert_array_equal(
                expand_from_corners(np.asarray(replayed, dtype=np.float64), (8, 8, 6)),
                expand_from_corners(np.asarray(original, dtype=np.float64), (8, 8, 6)),
            )

    @pytest.mark.parametrize("layout", ["npz", "raw"])
    def test_level1_payload_roundtrip_both_layouts(self, tmp_path, layout):
        """Intermediate (level-1) reduction payloads persist bit-exactly.

        The mipmap ladder's middle rung produces odd shapes like 4x4x3; both
        store layouts must round-trip them and reconstruct identically
        through the level-1 expansion.
        """
        from repro.grid.reduction import expand_from_level, reduce_to_level

        rng = np.random.default_rng(9)
        full_shape = (7, 6, 5)
        full = rng.normal(size=full_shape)
        payload = reduce_to_level(full, 1)
        grid = RectilinearGrid.uniform(payload.shape)
        store = DatasetStore(tmp_path / "ds")
        store.create(grid, layout=layout)
        store.append(Domain(grid=grid, fields={"lvl1": payload}, iteration=0))
        loaded = store.load_iteration(0, mmap=(layout == "raw"))
        replayed = loaded.get_field("lvl1")
        np.testing.assert_array_equal(replayed, payload)
        np.testing.assert_array_equal(
            expand_from_level(np.asarray(replayed, dtype=np.float64), 1, full_shape),
            expand_from_level(payload, 1, full_shape),
        )


class TestReplay:
    def test_equally_spaced_selection(self):
        available = list(range(100))
        picks = equally_spaced(available, 10)
        assert len(picks) == 10
        assert picks[0] == 0 and picks[-1] == 99

    def test_equally_spaced_more_than_available(self):
        assert equally_spaced([1, 2, 3], 10) == [1, 2, 3]

    def test_equally_spaced_errors(self):
        with pytest.raises(ValueError):
            equally_spaced([], 3)
        with pytest.raises(ValueError):
            equally_spaced([1], 0)

    def test_replayer_per_rank_blocks(self, tmp_path):
        config = CM1Config.tiny()
        dataset = CM1Dataset(config, nsnapshots=3)
        dataset.save(tmp_path / "cm1")
        stored = CM1Dataset.load(tmp_path / "cm1")
        decomp = CartesianDecomposition(config.shape, nranks=2, blocks_per_subdomain=(2, 1, 1))
        assert stored.select(2) == [0, 2]
        iterations = [stored.per_rank_blocks(decomp, i) for i in stored.select(2)]
        assert len(iterations) == 2
        assert len(iterations[0]) == 2  # per rank
        total_blocks = sum(len(blocks) for blocks in iterations[0])
        assert total_blocks == decomp.nblocks

    def test_mmap_replayer_matches_npz_replayer(self, tmp_path):
        """A raw-layout mmap replay hands out the same blocks as an npz one."""
        config = CM1Config.tiny()
        dataset = CM1Dataset(config, nsnapshots=2)
        dataset.save(tmp_path / "npz")
        dataset.save(tmp_path / "raw", layout="raw")
        decomp = CartesianDecomposition(
            config.shape, nranks=2, blocks_per_subdomain=(2, 1, 1)
        )
        npz = CM1Dataset.load(tmp_path / "npz")
        raw = CM1Dataset.load(tmp_path / "raw", mmap=True)
        npz_iters = [npz.per_rank_blocks(decomp, i) for i in npz.select(2)]
        raw_iters = [raw.per_rank_blocks(decomp, i) for i in raw.select(2)]
        for npz_ranks, raw_ranks in zip(npz_iters, raw_iters):
            for npz_blocks, raw_blocks in zip(npz_ranks, raw_ranks):
                assert len(npz_blocks) == len(raw_blocks)
                for a, b in zip(npz_blocks, raw_blocks):
                    assert a.extent == b.extent
                    np.testing.assert_array_equal(a.data, b.data)


class TestCM1Dataset:
    def test_len_iter_and_cache(self):
        dataset = CM1Dataset(CM1Config.tiny(), nsnapshots=3)
        assert len(dataset) == 3
        snapshots = list(dataset)
        assert len(snapshots) == 3
        assert dataset.snapshot(1) is snapshots[1]  # cached object identity

    def test_index_bounds(self):
        dataset = CM1Dataset(CM1Config.tiny(), nsnapshots=2)
        with pytest.raises(IndexError):
            dataset.snapshot(2)

    def test_select_equally_spaced(self):
        dataset = CM1Dataset(CM1Config.tiny(), nsnapshots=10)
        assert dataset.select(3) == [0, 4, 9] or len(dataset.select(3)) == 3

    def test_save_and_load_roundtrip(self, tmp_path):
        dataset = CM1Dataset(CM1Config.tiny(), nsnapshots=2)
        dataset.save(tmp_path / "saved")
        stored = CM1Dataset.load(tmp_path / "saved")
        assert len(stored) == 2
        original = dataset.snapshot(0).get_field("dbz")
        loaded = stored.snapshot(0).get_field("dbz")
        np.testing.assert_allclose(original, loaded, rtol=1e-6)

    def test_load_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CM1Dataset.load(tmp_path / "nope")

    def test_per_rank_blocks_cover_domain(self):
        config = CM1Config.tiny()
        dataset = CM1Dataset(config, nsnapshots=1)
        decomp = CartesianDecomposition(config.shape, nranks=4, blocks_per_subdomain=(2, 2, 1))
        per_rank = dataset.per_rank_blocks(decomp, 0)
        assert len(per_rank) == 4
        total_points = sum(b.extent.npoints for blocks in per_rank for b in blocks)
        assert total_points == int(np.prod(config.shape))
