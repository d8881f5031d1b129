"""Tests for the content-addressed keys of the runtime layer."""

import dataclasses
import gc

import numpy as np

from repro.core.dataset import Dataset, FeatureKind
from repro.poisoning.models import (
    FractionalRemovalModel,
    LabelFlipModel,
    RemovalPoisoningModel,
)
from repro.api import CertificationEngine
from repro.runtime import (
    RowKey,
    engine_cache_key,
    fingerprint_dataset,
    model_cache_key,
    monotone_in_budget,
    point_digest,
    row_keys,
)
from repro.runtime import fingerprint


def _dataset(**changes):
    fields = dict(
        X=np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]]),
        y=np.array([0, 1, 0, 1]),
        n_classes=2,
        name="fp-test",
    )
    fields.update(changes)
    return Dataset(**fields)


class TestDatasetFingerprint:
    def test_equal_content_equal_fingerprint(self):
        assert fingerprint_dataset(_dataset()) == fingerprint_dataset(_dataset())

    def test_cosmetic_metadata_excluded(self):
        renamed = _dataset(
            name="other-name",
            feature_names=("alpha", "beta"),
            class_names=("neg", "pos"),
        )
        assert fingerprint_dataset(renamed) == fingerprint_dataset(_dataset())

    def test_content_changes_change_fingerprint(self):
        base = fingerprint_dataset(_dataset())
        shifted = _dataset(X=np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.5]]))
        relabelled = _dataset(y=np.array([1, 1, 0, 1]))
        assert fingerprint_dataset(shifted) != base
        assert fingerprint_dataset(relabelled) != base

    def test_feature_kinds_included(self):
        boolean_ish = _dataset(
            X=np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        )
        as_real = Dataset(
            X=boolean_ish.X,
            y=boolean_ish.y,
            n_classes=2,
            feature_kinds=(FeatureKind.REAL, FeatureKind.REAL),
        )
        as_boolean = Dataset(
            X=boolean_ish.X,
            y=boolean_ish.y,
            n_classes=2,
            feature_kinds=(FeatureKind.BOOLEAN, FeatureKind.BOOLEAN),
        )
        assert fingerprint_dataset(as_real) != fingerprint_dataset(as_boolean)

    def test_digest_is_pinned(self):
        # Caches written by earlier versions key on this digest.
        expected = "64ab0033cebe2b4d0a891db84743e0ec9671c46207cc8fbf6b3920470a3e099e"
        assert fingerprint_dataset(_dataset()) == expected
        mixed = _dataset(
            X=np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]),
            feature_kinds=(FeatureKind.REAL, FeatureKind.BOOLEAN),
        )
        assert fingerprint_dataset(mixed) == (
            "ac9703d287484cb7b6a47970f07fe225337752d05ac50c01a1ea400e7902e4f2"
        )

    def test_memory_layout_does_not_change_the_digest(self):
        X = _dataset().X
        wide = np.zeros((4, 4))
        wide[:, ::2] = X
        for layout in (np.asfortranarray(X), wide[:, ::2]):
            dataset = _dataset(X=layout)
            assert not dataset.X.flags.c_contiguous
            assert fingerprint_dataset(dataset) == fingerprint_dataset(_dataset())

    def test_memoized_on_instance(self):
        dataset = _dataset()
        first = fingerprint_dataset(dataset)
        assert getattr(dataset, "_content_fingerprint") == first
        assert fingerprint_dataset(dataset) is first


class TestSharedMatrix:
    """A copy that shares the read-only X hashes only the rest."""

    def test_copy_sharing_x_does_not_hash_x_again(self, monkeypatch):
        dataset = _dataset()
        first = fingerprint_dataset(dataset)
        hashed = []
        original = fingerprint._hash_array

        def recording(hasher, array):
            hashed.append(array)
            original(hasher, array)

        monkeypatch.setattr(fingerprint, "_hash_array", recording)
        copy = dataclasses.replace(dataset)
        assert copy.X is dataset.X
        assert fingerprint_dataset(copy) == first
        assert [array is copy.y for array in hashed] == [True]

    def test_same_matrix_with_other_labels_differs(self):
        dataset = _dataset()
        base = fingerprint_dataset(dataset)
        labels = np.array([1, 1, 0, 1])
        relabelled = dataclasses.replace(dataset, y=labels)
        assert relabelled.X is dataset.X
        assert fingerprint_dataset(relabelled) != base
        # The same digest as a dataset that shares nothing with the first.
        assert fingerprint_dataset(relabelled) == fingerprint_dataset(
            _dataset(y=labels)
        )

    def test_writable_matrix_is_never_memoized(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        fingerprint._matrix_hasher(X)
        assert id(X) not in fingerprint._MATRIX_STATES
        X.setflags(write=False)
        fingerprint._matrix_hasher(X)
        assert id(X) in fingerprint._MATRIX_STATES

    def test_entry_is_dropped_with_its_matrix(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        X.setflags(write=False)
        fingerprint._matrix_hasher(X)
        key = id(X)
        del X
        gc.collect()
        assert key not in fingerprint._MATRIX_STATES


class TestRowKeys:
    def test_one_key_per_row_from_the_four_keys(self):
        dataset = _dataset()
        engine = CertificationEngine(max_depth=1)
        model = RemovalPoisoningModel(2)
        rows = [np.array([0.5, 1.0]), np.array([2.5, 0.0])]
        keys = row_keys(engine, dataset, model, rows)
        assert keys == [
            RowKey(
                fingerprint_dataset(dataset),
                point_digest(row),
                "removal",
                2,
                engine_cache_key(engine),
            )
            for row in rows
        ]


class TestPointDigest:
    def test_equal_points_equal_digest(self):
        assert point_digest([1.0, 2.0]) == point_digest(np.array([1.0, 2.0]))

    def test_different_points_differ(self):
        assert point_digest([1.0, 2.0]) != point_digest([2.0, 1.0])


class TestModelKey:
    def test_removal_and_fractional_share_family(self):
        # On a 100-row set, 25% == 25 removals: same perturbation space.
        family_a, budget_a = model_cache_key(RemovalPoisoningModel(25), 100)
        family_b, budget_b = model_cache_key(FractionalRemovalModel(0.25), 100)
        assert (family_a, budget_a) == (family_b, budget_b) == ("removal", 25)

    def test_removal_budget_resolves_against_size(self):
        family, budget = model_cache_key(RemovalPoisoningModel(1000), 100)
        assert (family, budget) == ("removal", 100)

    def test_label_flip_family_includes_classes(self):
        family_two, _ = model_cache_key(LabelFlipModel(2, n_classes=2), 100)
        family_three, _ = model_cache_key(LabelFlipModel(2, n_classes=3), 100)
        assert family_two != family_three

    def test_monotone_families(self):
        assert monotone_in_budget(RemovalPoisoningModel(2))
        assert monotone_in_budget(FractionalRemovalModel(0.1))
        assert monotone_in_budget(LabelFlipModel(1))


class TestEngineKey:
    def test_same_configuration_same_key(self):
        assert engine_cache_key(CertificationEngine(max_depth=2)) == engine_cache_key(
            CertificationEngine(max_depth=2)
        )

    def test_verdict_relevant_knobs_change_key(self):
        base = engine_cache_key(CertificationEngine(max_depth=2, domain="either"))
        assert engine_cache_key(CertificationEngine(max_depth=3)) != base
        assert engine_cache_key(CertificationEngine(max_depth=2, domain="box")) != base
        assert (
            engine_cache_key(CertificationEngine(max_depth=2, max_disjuncts=16)) != base
        )

    def test_default_key_is_pinned(self):
        # Persistent caches are keyed by this exact string; changing it
        # orphans every verdict a user has already cached.
        assert engine_cache_key(CertificationEngine()) == (
            "depth=2|domain=either|cprob=optimal|disjuncts=4096|impurity=gini"
            "|pool=default"
        )

    def test_timeout_excluded_from_key(self):
        # Timeout verdicts are never cached, so the budget is not part of the
        # cache identity: warm caches survive a timeout change.
        with_timeout = CertificationEngine(max_depth=2, timeout_seconds=5.0)
        without = CertificationEngine(max_depth=2, timeout_seconds=None)
        assert engine_cache_key(with_timeout) == engine_cache_key(without)
