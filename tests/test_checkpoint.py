"""Checkpoint files: exact round trips, and refusal of every damaged file."""

import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpp.model import (
    AnticipationModel,
    ModelConfig,
    grid_configs,
    load_checkpoint,
    save_checkpoint,
)


@st.composite
def grid_cells(draw):
    """A random valid config in any of the ten grid cells."""
    n_heads = draw(st.integers(1, 3))
    d_m = n_heads * 2 * draw(st.integers(1, 3))
    base = ModelConfig(
        d_m=d_m,
        n_heads=n_heads,
        n_classes=draw(st.integers(2, 5)),
        seq_len=draw(st.integers(2, 9)),
        horizon=draw(st.integers(1, 4)),
        dropout=draw(st.sampled_from([0.0, 0.1, 0.5])),
    )
    return draw(st.sampled_from(grid_configs(base)))


def saved_bytes(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_checkpoint(model, path)
        return path.read_bytes()


def load_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        path.write_bytes(blob)
        return load_checkpoint(path)


def test_trailing_bytes_are_refused_at_their_offset(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(AnticipationModel(ModelConfig(), seed=1), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + bytes(14))
    with pytest.raises(ValueError, match=f"14 trailing bytes after the last parameter at offset {size}"):
        load_checkpoint(path)


def with_header(blob: bytes, version=None, **fields) -> bytes:
    """A saved checkpoint with its version and/or config fields replaced."""
    old_version, count, config_len = struct.unpack_from("<HII", blob, 8)
    config = json.loads(blob[18 : 18 + config_len])
    config.update(fields)
    packed = json.dumps(config, sort_keys=True).encode("utf-8")
    header = struct.pack("<HII", old_version if version is None else version, count, len(packed))
    return blob[:8] + header + packed + blob[18 + config_len :]


@pytest.mark.parametrize("change, message", [
    ({"version": 3}, "unsupported checkpoint version 3 at offset 8 in {path}"),
    ({"colour": "red"}, "model config in checkpoint {path} is invalid: "
                        ".*unexpected keyword argument 'colour'"),
    ({"dropout": 1.5}, "model config in checkpoint {path} is invalid: "
                       r"dropout must be in \[0, 1\), got 1.5"),
], ids=["version", "unknown-field", "refused-value"])
def test_a_bad_header_is_refused_naming_the_file(tmp_path, change, message):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(AnticipationModel(ModelConfig(), seed=3), path)
    path.write_bytes(with_header(path.read_bytes(), **change))
    with pytest.raises(ValueError, match=message.format(path=re.escape(str(path)))):
        load_checkpoint(path)


def test_a_non_finite_parameter_is_refused_by_name(tmp_path):
    model = AnticipationModel(ModelConfig(), seed=2)
    classifier = next(p for p in model.parameters() if p.name == "ppm.classifier")
    classifier.value.data[:] = np.nan
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match="parameter 'ppm.classifier' holds a non-finite value"):
        load_checkpoint(path)


class TestCheckpointProperties:
    @settings(max_examples=60, deadline=None)
    @given(config=grid_cells(), seed=st.integers(0, 2**16))
    def test_save_then_load_is_the_identity(self, config, seed):
        model = AnticipationModel(config, seed=seed)
        loaded, state = load_bytes(saved_bytes(model))
        assert loaded == config
        assert list(state) == [p.name for p in model.parameters()]
        for p in model.parameters():
            assert state[p.name].shape == p.shape
            assert state[p.name].tobytes() == p.value.data.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(config=grid_cells(), data=st.data())
    def test_a_proper_prefix_is_refused(self, config, data):
        blob = saved_bytes(AnticipationModel(config))
        end = data.draw(st.integers(0, len(blob) - 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.bin"
            path.write_bytes(blob[:end])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_checkpoint(path)

    @settings(max_examples=60, deadline=None)
    @given(config=grid_cells(), extra=st.binary(min_size=1, max_size=16))
    def test_appended_bytes_are_refused(self, config, extra):
        with pytest.raises(ValueError, match="trailing bytes"):
            load_bytes(saved_bytes(AnticipationModel(config)) + extra)

    @settings(max_examples=60, deadline=None)
    @given(config=grid_cells(), data=st.data())
    def test_a_nan_entry_is_refused_by_parameter_name(self, config, data):
        model = AnticipationModel(config)
        param = data.draw(st.sampled_from(model.parameters()))
        param.value.data.flat[data.draw(st.integers(0, param.size - 1))] = np.nan
        with pytest.raises(ValueError, match=f"parameter '{param.name}' holds a non-finite"):
            load_bytes(saved_bytes(model))
