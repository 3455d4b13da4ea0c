"""Tests for repro.io and the CM1 dataset replay."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cm1.dataset import CM1Dataset, equally_spaced
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.domain import Domain
from repro.grid.rectilinear import RectilinearGrid
from repro.grid.reduction import reduce_to_level
from repro.io.manifest import FORMAT_VERSION, DatasetManifest, IterationRecord
from repro.io.store import RAW_ALIGNMENT, DatasetStore


def _record(iteration, filename="a.bin", fields=("dbz",), nbytes=0):
    """A complete record: every field has a dtype and an offset."""
    return IterationRecord(
        iteration, filename, list(fields), nbytes,
        dtypes={name: "<f4" for name in fields},
        offsets={name: 64 * i for i, name in enumerate(fields)},
    )


def _manifest(shape=(4, 4, 2)):
    grid = RectilinearGrid.uniform(shape)
    axes = {"x": grid.x.tolist(), "y": grid.y.tolist(), "z": grid.z.tolist()}
    return DatasetManifest(shape=shape, axes=axes)


class TestManifest:
    def test_json_roundtrip(self):
        manifest = _manifest()
        manifest.add_iteration(_record(5, "iter_5.bin", nbytes=100))
        restored = DatasetManifest.from_json(manifest.to_json())
        assert restored.shape == (4, 4, 2)
        assert restored.axes == manifest.axes
        assert restored.iterations[0].iteration == 5
        assert restored.iterations[0].nbytes == 100

    def test_iterations_must_increase(self):
        manifest = _manifest()
        manifest.add_iteration(_record(5, "a.bin"))
        with pytest.raises(ValueError):
            manifest.add_iteration(_record(5, "b.bin"))

    def test_record_validation(self):
        with pytest.raises(ValueError):
            _record(-1).validate()
        with pytest.raises(ValueError):
            _record(1, "").validate()
        with pytest.raises(ValueError):
            _record(1, fields=()).validate()
        ghost = _record(1)
        ghost.dtypes["ghost"] = "<f4"
        with pytest.raises(ValueError):
            ghost.validate()
        negative = _record(1)
        negative.offsets["dbz"] = -64
        with pytest.raises(ValueError):
            negative.validate()

    def test_record_dtypes_roundtrip(self):
        manifest = _manifest()
        record = _record(1)
        record.dtypes["dbz"] = "<f8"
        manifest.add_iteration(record)
        restored = DatasetManifest.from_json(manifest.to_json())
        assert restored.iterations[0].dtypes == {"dbz": "<f8"}

    @pytest.mark.parametrize("key", ["dtypes", "offsets"])
    def test_record_without_dtypes_or_offsets_rejected(self, key):
        """Both mappings are required: a record missing either, or leaving a
        field out of it, is refused rather than loaded with a guessed dtype
        or offset."""
        manifest = _manifest()
        manifest.add_iteration(_record(1))
        payload = json.loads(manifest.to_json())
        del payload["iterations"][0][key]
        with pytest.raises(ValueError, match=key):
            DatasetManifest.from_json(json.dumps(payload))
        payload = json.loads(manifest.to_json())
        payload["iterations"][0][key] = {}
        with pytest.raises(ValueError, match=key):
            DatasetManifest.from_json(json.dumps(payload))

    def test_find(self):
        manifest = _manifest()
        manifest.add_iteration(_record(3))
        assert manifest.find(3) is not None
        assert manifest.find(4) is None

    def test_unsupported_version(self):
        manifest = _manifest()
        text = manifest.to_json().replace(
            f'"version": {FORMAT_VERSION}', '"version": 99'
        )
        with pytest.raises(ValueError):
            DatasetManifest.from_json(text)

    def test_version1_manifest_refused_naming_both_versions(self, tmp_path):
        """A store written before the axes moved into the manifest is refused
        with a message naming its version and the current one."""
        assert FORMAT_VERSION == 2
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((4, 4, 2)))
        path = tmp_path / "ds" / "manifest.json"
        payload = json.loads(path.read_text())
        del payload["axes"]
        payload.update(version=1, layout="raw", grid_axes_file="grid_axes.npz")
        path.write_text(json.dumps(payload))
        with pytest.raises(
            ValueError, match="unsupported manifest version 1, expected 2"
        ):
            DatasetStore(tmp_path / "ds").iterations()

    def test_axis_lengths_must_match_shape(self):
        with pytest.raises(ValueError):
            DatasetManifest(shape=(4, 4, 3), axes=_manifest((4, 4, 2)).axes)

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

    def test_grid_axes_come_from_the_manifest_read_only_and_shared(self, tmp_path):
        """The grid is built once per store from the manifest's axes: every
        loaded iteration shares it, its axes are read-only, and deleting the
        store drops it with the files."""
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)))
        store.append(self._domain(0, 1.0))
        loaded = store.load_iteration(0)
        again = store.load_iteration(0)
        assert again.grid is loaded.grid and not again.grid.x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            again.grid.z[0] = -1.0
        store.delete()  # drops the cached grid with the files
        with pytest.raises(FileNotFoundError):
            store.grid()

    def test_new_store_holds_only_the_manifest_and_iteration_files(self, tmp_path):
        store = DatasetStore(tmp_path / "ds")
        store.create(RectilinearGrid.uniform((6, 6, 4)))
        store.append(self._domain(0, 1.0))
        store.append(self._domain(3, 2.0))
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == [
            "iter_0000000000.bin", "iter_0000000003.bin", "manifest.json",
        ]

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
        store.create(RectilinearGrid.uniform((6, 6, 4)))
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
        """The stretched CM1 axes survive the JSON manifest bitwise."""
        grid = RectilinearGrid.cm1_like((8, 8, 6))
        DatasetStore(tmp_path / "ds").create(grid)
        loaded = DatasetStore(tmp_path / "ds").grid()
        for axis in ("x", "y", "z"):
            assert getattr(loaded, axis).dtype == np.float64
            assert getattr(loaded, axis).tobytes() == getattr(grid, axis).tobytes()

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
        store.create(grid)
        domain = self._domain(grid)
        store.append(domain)
        loaded = store.load_iteration(0)
        for name in ("dbz", "aux"):
            np.testing.assert_array_equal(
                loaded.get_field(name), domain.get_field(name)
            )
            assert loaded.get_field(name).dtype == domain.get_field(name).dtype

    def test_raw_offsets_recorded_and_aligned(self, tmp_path):
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)
        store.append(self._domain(grid))
        record = store.manifest().find(0)
        assert set(record.offsets) == {"dbz", "aux"}
        for offset in record.offsets.values():
            assert offset % RAW_ALIGNMENT == 0
        assert record.filename.endswith(".bin")

    def test_raw_mmap_load_is_zero_copy(self, tmp_path):
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)
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

    def test_unknown_layout_rejected(self, tmp_path, tiny_cm1):
        """``CM1Dataset.save`` keeps a ``layout`` keyword that accepts only
        ``"raw"``; the store itself takes no layout at all."""
        dataset = CM1Dataset(tiny_cm1, nsnapshots=1)
        for layout in ("npz", "parquet"):
            with pytest.raises(ValueError, match="raw"):
                dataset.save(tmp_path / "ds", layout=layout)
        assert not (tmp_path / "ds").exists()
        assert len(dataset.save(tmp_path / "ds", layout="raw").iterations()) == 1
        with pytest.raises(TypeError):
            DatasetStore(tmp_path / "other").create(
                RectilinearGrid.uniform((6, 6, 4)), layout="raw"
            )

    def test_layout_survives_manifest_reload(self, tmp_path):
        """A fresh handle finds every field's dtype and offset in the
        manifest on disk and maps the fields from them."""
        grid = RectilinearGrid.uniform((6, 6, 4))
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)
        record = store.append(self._domain(grid))
        fresh = DatasetStore(tmp_path / "ds")
        assert fresh.manifest().find(0) == record
        loaded = fresh.load_iteration(0, mmap=True)
        assert isinstance(loaded.get_field("dbz").base, np.memmap)


@st.composite
def stored_iterations(draw):
    """A grid and one iteration's fields as the store may be handed them:
    payloads of one reduction-ladder level (so shapes with length-1 axes and
    2x2x2 corners), one to three fields each float32 or float64, on uniform
    axes of arbitrary extent or stretched ``cm1_like`` ones."""
    full = tuple(draw(st.integers(1, 9)) for _ in range(3))
    level = draw(st.sampled_from([0, 1, 2]))
    dtypes = draw(st.lists(st.sampled_from(["<f4", "<f8"]), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = {
        f"f{i}": reduce_to_level(rng.normal(size=full).astype(dtype), level)
        for i, dtype in enumerate(dtypes)
    }
    shape = fields["f0"].shape
    if draw(st.booleans()) and min(shape[:2]) >= 4:
        grid = RectilinearGrid.cm1_like(shape)
    else:
        extent = st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False)
        grid = RectilinearGrid.uniform(shape, tuple(draw(extent) for _ in range(3)))
    return grid, fields


def _portrait(fields):
    """Everything a stored field is: dtype, shape and bytes, by name."""
    return {
        name: (arr.dtype.str, arr.shape, np.ascontiguousarray(arr).tobytes())
        for name, arr in fields.items()
    }


class TestStoreLaw:
    """One store law over the one layout: ``append`` then ``load_iteration``
    is the identity, structurally (the NIFTy idiom: compare a portrait of
    every leaf, not a few spot values).

    Fails when the axes are written as float32 or rounded, when the
    alignment padding is dropped, or when a recorded offset is off by one.
    """

    @settings(deadline=None, max_examples=60)
    @given(case=stored_iterations(), iteration=st.integers(0, 10**6))
    def test_append_then_load_is_the_identity(self, case, iteration):
        grid, fields = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "ds"
            writer = DatasetStore(root)
            writer.create(grid)
            record = writer.append(Domain(grid=grid, fields=fields, iteration=iteration))
            assert record.nbytes == (root / record.filename).stat().st_size
            assert all(offset % RAW_ALIGNMENT == 0 for offset in record.offsets.values())
            # A fresh handle, so everything comes off disk; none of it is an
            # .npy / .npz parse.
            with mock.patch.object(np, "load", side_effect=AssertionError("np.load")):
                store = DatasetStore(root)
                loaded = {
                    mmap: store.load_iteration(iteration, mmap=mmap) for mmap in (False, True)
                }
            for mmap, domain in loaded.items():
                assert _portrait(domain.fields) == _portrait(fields)
                for axis in ("x", "y", "z"):
                    got, want = getattr(domain.grid, axis), getattr(grid, axis)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for arr in loaded[True].fields.values():
                assert not arr.flags.writeable


class TestCornerBlockReplay:
    """Round-trips of *reduced* data: 2x2x2 corner blocks, mixed dtypes.

    The reduction step replaces a block's payload with its 8 corner values;
    a store holding reduced snapshots therefore persists 2x2x2 fields.  The
    store law (:class:`TestStoreLaw`) round-trips payloads of every ladder
    level bitwise; here the mapped corners also reconstruct identically
    through trilinear expansion.

    The ``layout`` parameter names where a payload comes from before it is
    appended: ``"raw"`` hands the store the arrays the reduction produced,
    ``"npz"`` first passes them through a NumPy ``.npz`` archive, the form a
    version-1 store kept its iterations in.  Both must land in the one store
    layout bit-exactly, so an old archive's arrays can be moved into a
    version-2 store without loss.
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

    @staticmethod
    def _from_layout(fields, layout, tmp_path):
        """``fields`` as a store is handed them when they come from ``layout``."""
        if layout == "raw":
            return dict(fields)
        path = tmp_path / "archive.npz"
        np.savez_compressed(path, **fields)
        with np.load(path) as archive:
            return {name: archive[name] for name in fields}

    @pytest.mark.parametrize("layout", ["npz", "raw"])
    def test_corner_blocks_roundtrip_both_layouts(self, tmp_path, layout):
        grid = RectilinearGrid.uniform((2, 2, 2))
        fields = self._corner_fields()
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)
        store.append(
            Domain(grid=grid, fields=self._from_layout(fields, layout, tmp_path), iteration=0)
        )
        for mmap in (False, True):
            loaded = store.load_iteration(0, mmap=mmap)
            assert loaded.get_field("corners_f64").dtype == np.float64
            assert loaded.get_field("corners_f32").dtype == np.float32
            for name, original in fields.items():
                np.testing.assert_array_equal(loaded.get_field(name), original)

    @pytest.mark.parametrize("layout", ["npz", "raw"])
    def test_level1_payload_roundtrip_both_layouts(self, tmp_path, layout):
        """Intermediate (level-1) reduction payloads persist bit-exactly.

        The mipmap ladder's middle rung produces odd shapes like 4x4x3; they
        must round-trip from either source, copied or mapped, and reconstruct
        identically through the level-1 expansion.
        """
        from repro.grid.reduction import expand_from_level

        rng = np.random.default_rng(9)
        full_shape = (7, 6, 5)
        full = rng.normal(size=full_shape)
        payload = reduce_to_level(full, 1)
        grid = RectilinearGrid.uniform(payload.shape)
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)
        fields = self._from_layout({"lvl1": payload}, layout, tmp_path)
        store.append(Domain(grid=grid, fields=fields, iteration=0))
        for mmap in (False, True):
            replayed = store.load_iteration(0, mmap=mmap).get_field("lvl1")
            np.testing.assert_array_equal(replayed, payload)
            np.testing.assert_array_equal(
                expand_from_level(np.asarray(replayed, dtype=np.float64), 1, full_shape),
                expand_from_level(payload, 1, full_shape),
            )

    def test_corner_blocks_mmap_expand_matches_original(self, tmp_path):
        from repro.grid.reduction import expand_from_corners

        grid = RectilinearGrid.uniform((2, 2, 2))
        fields = self._corner_fields()
        store = DatasetStore(tmp_path / "ds")
        store.create(grid)
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

    def test_replayer_per_rank_blocks(self, tmp_path, tiny_cm1):
        config = tiny_cm1
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

    def test_mmap_replayer_matches_copying_replayer(self, tmp_path, tiny_cm1):
        """A mapped replay hands out the same blocks as one that reads each
        snapshot into owned arrays."""
        config = tiny_cm1
        CM1Dataset(config, nsnapshots=2).save(tmp_path / "ds")
        decomp = CartesianDecomposition(
            config.shape, nranks=2, blocks_per_subdomain=(2, 1, 1)
        )
        copied = CM1Dataset.load(tmp_path / "ds")
        mapped = CM1Dataset.load(tmp_path / "ds", mmap=True)
        copied_iters = [copied.per_rank_blocks(decomp, i) for i in copied.select(2)]
        mapped_iters = [mapped.per_rank_blocks(decomp, i) for i in mapped.select(2)]
        for copied_ranks, mapped_ranks in zip(copied_iters, mapped_iters):
            for copied_blocks, mapped_blocks in zip(copied_ranks, mapped_ranks):
                assert len(copied_blocks) == len(mapped_blocks)
                for a, b in zip(copied_blocks, mapped_blocks):
                    assert a.extent == b.extent
                    np.testing.assert_array_equal(a.data, b.data)


class TestCM1Dataset:
    def test_len_iter_and_cache(self, tiny_cm1):
        dataset = CM1Dataset(tiny_cm1, nsnapshots=3)
        assert len(dataset) == 3
        snapshots = list(dataset)
        assert len(snapshots) == 3
        assert dataset.snapshot(1) is snapshots[1]  # cached object identity

    def test_index_bounds(self, tiny_cm1):
        dataset = CM1Dataset(tiny_cm1, nsnapshots=2)
        with pytest.raises(IndexError):
            dataset.snapshot(2)

    def test_select_equally_spaced(self, tiny_cm1):
        dataset = CM1Dataset(tiny_cm1, nsnapshots=10)
        assert dataset.select(3) == [0, 4, 9] or len(dataset.select(3)) == 3

    def test_save_and_load_roundtrip(self, tmp_path, tiny_cm1):
        dataset = CM1Dataset(tiny_cm1, nsnapshots=2)
        dataset.save(tmp_path / "saved")
        stored = CM1Dataset.load(tmp_path / "saved")
        assert len(stored) == 2
        original = dataset.snapshot(0).get_field("dbz")
        loaded = stored.snapshot(0).get_field("dbz")
        assert loaded.dtype == original.dtype
        np.testing.assert_array_equal(original, loaded)

    def test_load_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CM1Dataset.load(tmp_path / "nope")

    def test_per_rank_blocks_cover_domain(self, tiny_cm1):
        config = tiny_cm1
        dataset = CM1Dataset(config, nsnapshots=1)
        decomp = CartesianDecomposition(config.shape, nranks=4, blocks_per_subdomain=(2, 2, 1))
        per_rank = dataset.per_rank_blocks(decomp, 0)
        assert len(per_rank) == 4
        total_points = sum(b.extent.npoints for blocks in per_rank for b in blocks)
        assert total_points == int(np.prod(config.shape))
