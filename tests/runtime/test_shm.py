"""Tests for the shared-memory dataset plane."""

import numpy as np
import pytest

from repro.api import CertificationEngine
from repro.poisoning.models import RemovalPoisoningModel
from repro.runtime import fingerprint_dataset
from repro.runtime.shm import DatasetStore
from tests.conftest import well_separated_dataset


@pytest.fixture
def store():
    store = DatasetStore()
    yield store
    store.close()


def _publish(store, dataset):
    handle = store.publish(dataset)
    if handle is None:
        pytest.skip("shared memory unavailable on this host")
    return handle


class TestPublishAttach:
    def test_round_trip_preserves_content(self, store):
        dataset = well_separated_dataset()
        attached = _publish(store, dataset).attach()
        assert np.array_equal(attached.X, dataset.X)
        assert np.array_equal(attached.y, dataset.y)
        assert attached.n_classes == dataset.n_classes
        assert attached.feature_kinds == dataset.feature_kinds
        assert attached.feature_names == dataset.feature_names
        assert attached.class_names == dataset.class_names
        assert attached.name == dataset.name

    def test_attached_dataset_carries_fingerprint(self, store):
        dataset = well_separated_dataset()
        attached = _publish(store, dataset).attach()
        assert fingerprint_dataset(attached) == fingerprint_dataset(dataset)

    def test_handle_is_small_and_picklable(self, store):
        import pickle

        dataset = well_separated_dataset()
        handle = _publish(store, dataset)
        payload = pickle.dumps(handle)
        # The whole point: the handle must be orders of magnitude smaller
        # than the pickled dataset it stands in for.
        assert len(payload) < len(pickle.dumps(dataset))
        assert pickle.loads(payload).fingerprint == handle.fingerprint

    def test_same_content_reuses_segments(self, store):
        dataset = well_separated_dataset()
        copy = well_separated_dataset()
        first = _publish(store, dataset)
        second = store.publish(copy)
        assert second is first
        assert store.published_count == 1

    def test_certification_parity_on_attached_dataset(self, store):
        dataset = well_separated_dataset()
        attached = _publish(store, dataset).attach()
        engine = CertificationEngine(max_depth=1, domain="box")
        for x in ([0.5], [11.0]):
            original = engine.certify_point(dataset, x, RemovalPoisoningModel(1))
            mirrored = engine.certify_point(attached, x, RemovalPoisoningModel(1))
            assert mirrored.status == original.status
            assert mirrored.class_intervals == original.class_intervals


class TestLifecycle:
    def test_close_unlinks_segments(self):
        store = DatasetStore()
        dataset = well_separated_dataset()
        handle = _publish(store, dataset)
        store.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.X_spec.segment)
        assert store.published_count == 0

    def test_close_is_idempotent(self, store):
        _publish(store, well_separated_dataset())
        store.close()
        store.close()

    def test_lru_eviction_bounds_published_datasets(self):
        from multiprocessing import shared_memory

        store = DatasetStore(max_datasets=1)
        try:
            first = _publish(store, well_separated_dataset(10))
            second = store.publish(well_separated_dataset(12))
            assert second is not None
            assert store.published_count == 1
            # The evicted dataset's segments are unlinked immediately.
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first.X_spec.segment)
            # The survivor is still attachable.
            shared_memory.SharedMemory(name=second.X_spec.segment).close()
        finally:
            store.close()
