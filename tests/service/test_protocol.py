"""Tests for the JSON-lines wire protocol (framing + wire forms)."""

import io

import numpy as np
import pytest

from repro.core.dataset import Dataset, FeatureKind
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    RemovalPoisoningModel,
)
from repro.runtime import fingerprint_dataset
from repro.fleet.router import CertificationRouter
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    ProtocolError,
    dataset_from_wire,
    dataset_to_wire,
    encode_frame,
    engine_config_from_wire,
    engine_config_to_wire,
    model_from_wire,
    model_to_wire,
    read_frame,
)
from repro.utils.validation import ValidationError


class TestFraming:
    def test_round_trip(self):
        frame = {"id": 1, "op": "ping", "params": {"x": [1.5, None, "s"]}}
        reader = io.BytesIO(encode_frame(frame))
        assert read_frame(reader) == frame

    def test_multiple_frames_in_sequence(self):
        buffer = encode_frame({"id": 1}) + encode_frame({"id": 2})
        reader = io.BytesIO(buffer)
        assert read_frame(reader)["id"] == 1
        assert read_frame(reader)["id"] == 2
        assert read_frame(reader) is None  # clean EOF

    def test_truncated_frame_rejected(self):
        reader = io.BytesIO(b'{"id": 1}')  # no newline: cut mid-frame
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame(reader)

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            read_frame(io.BytesIO(b"not json\n"))
        with pytest.raises(ProtocolError, match="JSON object"):
            read_frame(io.BytesIO(b"[1, 2]\n"))

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})


class TestDatasetWire:
    def test_inline_round_trip_preserves_content_identity(self):
        dataset = Dataset(
            X=np.array([[0.0, 1.0], [1.0, 0.0], [2.5, 1.0]]),
            y=np.array([0, 1, 1]),
            n_classes=2,
            feature_kinds=(FeatureKind.REAL, FeatureKind.BOOLEAN),
            name="wire-test",
        )
        decoded = dataset_from_wire(dataset_to_wire(dataset))
        assert decoded.name == "wire-test"
        assert decoded.feature_kinds == dataset.feature_kinds
        # The content fingerprint — the cache identity — survives the wire.
        assert fingerprint_dataset(decoded) == fingerprint_dataset(dataset)

    def test_registry_reference_resolves_to_the_same_training_set(self):
        from repro.datasets.registry import load_dataset

        ref = {"name": "iris", "scale": 0.3, "seed": 1}
        decoded = dataset_from_wire(dataset_to_wire(ref))
        local = load_dataset("iris", scale=0.3, seed=1).train
        assert fingerprint_dataset(decoded) == fingerprint_dataset(local)

    @pytest.mark.parametrize("value", [0.5, 2.0])
    def test_inline_boolean_column_outside_0_1_rejected(self, value):
        wire = dataset_to_wire(
            Dataset(
                X=np.array([[0.0, 1.0], [1.0, 0.0]]),
                y=np.array([0, 1]),
                feature_kinds=(FeatureKind.REAL, FeatureKind.BOOLEAN),
            )
        )
        wire["inline"]["X"][1][1] = value
        with pytest.raises(ValidationError, match="boolean feature 1"):
            dataset_from_wire(wire)

    def test_inline_boolean_negative_zero_accepted(self):
        wire = dataset_to_wire(
            Dataset(
                X=np.array([[0.0, -0.0], [1.0, 1.0]]),
                y=np.array([0, 1]),
                feature_kinds=(FeatureKind.REAL, FeatureKind.BOOLEAN),
            )
        )
        decoded = dataset_from_wire(wire)
        assert decoded.feature_kinds[1] is FeatureKind.BOOLEAN

    def test_rejects_unknown_shapes(self):
        with pytest.raises(ProtocolError):
            dataset_to_wire({"no_name": True})
        with pytest.raises(ProtocolError):
            dataset_from_wire({"neither": {}})


class TestModelWire:
    @pytest.mark.parametrize(
        "model",
        [
            RemovalPoisoningModel(3),
            FractionalRemovalModel(0.05),
            LabelFlipModel(2),
            LabelFlipModel(2, n_classes=3),
            CompositePoisoningModel(1, 2),
            CompositePoisoningModel(1, 2, n_classes=4),
        ],
    )
    def test_round_trip(self, model):
        assert model_from_wire(model_to_wire(model)) == model

    def test_none_template_passes_through(self):
        assert model_to_wire(None) is None
        assert model_from_wire(None) is None

    def test_unknown_family_rejected(self):
        with pytest.raises(ProtocolError, match="unknown threat-model family"):
            model_from_wire({"family": "gradient-ascent"})


class TestEngineConfigWire:
    def test_round_trip(self):
        config = engine_config_to_wire(max_depth=3, domain="box", timeout_seconds=5.0)
        assert engine_config_from_wire(config) == {
            "max_depth": 3,
            "domain": "box",
            "timeout_seconds": 5.0,
        }

    def test_none_values_mean_defaults(self):
        assert engine_config_to_wire(max_depth=2, timeout_seconds=None) == {
            "max_depth": 2
        }

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="n_jobs"):
            engine_config_to_wire(n_jobs=2)


class TestOperationTable:
    def test_the_daemon_serves_every_declared_op(self):
        from repro.service.server import CertificationServer

        served = set(CertificationServer._OPS) | {"certify_stream", "shutdown"}
        assert served == set(OPS)

    def test_the_router_answers_every_local_op(self):
        local = {op for op, how in OPS.items() if how == "local"}
        assert set(CertificationRouter._LOCAL_OPS) | {"shutdown"} == local
        assert set(OPS.values()) == {"local", "shard", "fanout", "stream", None}
