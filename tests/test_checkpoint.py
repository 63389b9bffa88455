"""Checkpoint files: exact round trips, and refusal of every damaged file."""

import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttpp.data import FileFormatError
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
        seq_len=draw(st.integers(2, 16)),  # conv1d builds 1 to 4 layers
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


def values_at(blob: bytes) -> dict[str, int]:
    """The byte offset of each parameter's values, walking the v2 layout."""
    count, config_len = struct.unpack_from("<II", blob, 10)
    offset, found = 18 + config_len, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        name = blob[offset + 2 : offset + 2 + name_len].decode("utf-8")
        ndim = blob[offset + 2 + name_len]
        shape = struct.unpack_from(f"<{ndim}I", blob, offset + 3 + name_len)
        found[name] = offset + 3 + name_len + 4 * ndim
        offset = found[name] + 8 * math.prod(shape)
    return found


def with_value(blob: bytes, at: int, value) -> bytes:
    return blob[:at] + np.float64(value).tobytes() + blob[at + 8 :]


def test_trailing_bytes_are_refused_at_their_offset(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(AnticipationModel(ModelConfig(), seed=1), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + bytes(14))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: 14 trailing bytes") as err:
        load_checkpoint(path)
    assert err.value.offset == size


def with_header(blob: bytes, version=None, **fields) -> bytes:
    """A saved checkpoint with its version and/or config fields replaced."""
    old_version, count, config_len = struct.unpack_from("<HII", blob, 8)
    config = json.loads(blob[18 : 18 + config_len])
    config.update(fields)
    packed = json.dumps(config, sort_keys=True).encode("utf-8")
    header = struct.pack("<HII", old_version if version is None else version, count, len(packed))
    return blob[:8] + header + packed + blob[18 + config_len :]


@pytest.mark.parametrize("change, message, offset", [
    ({"version": 3}, "unsupported version 3", 8),
    ({"colour": "red"}, "invalid model config: .*unexpected keyword argument 'colour'", 18),
    ({"dropout": 1.5}, r"invalid model config: dropout must be in \[0, 1\), got 1.5", 18),
], ids=["version", "unknown-field", "refused-value"])
def test_a_bad_header_is_refused_naming_the_file(tmp_path, change, message, offset):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(AnticipationModel(ModelConfig(), seed=3), path)
    path.write_bytes(with_header(path.read_bytes(), **change))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}") as err:
        load_checkpoint(path)
    assert err.value.offset == offset


def test_a_non_finite_parameter_is_refused_by_name(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(AnticipationModel(ModelConfig(), seed=2), path)
    blob = path.read_bytes()
    at = values_at(blob)["ppm.classifier"]
    path.write_bytes(with_value(blob, at, np.nan))
    cause = "parameter 'ppm.classifier' holds a non-finite value"
    with pytest.raises(FileFormatError, match=cause) as err:
        load_checkpoint(path)
    assert err.value.offset == at


def test_a_wrapping_shape_is_refused_as_truncated(tmp_path):
    """Dims whose product overflows int64 are sized as Python ints, so the read is short."""
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(AnticipationModel(ModelConfig(), seed=2), path)
    blob = path.read_bytes()
    at = values_at(blob)["ttm.q"]  # the first parameter, 2-D
    path.write_bytes(blob[: at - 8] + struct.pack("<II", 2**32 - 1, 2**32 - 1) + blob[at:])
    cause = f"^{re.escape(str(path))}: truncated parameter 'ttm.q'"
    with pytest.raises(FileFormatError, match=cause) as err:
        load_checkpoint(path)
    assert err.value.offset == at


def with_name_byte(blob: bytes, at: dict[str, int]) -> tuple[bytes, int]:
    name_at = at["ttm.q"] - 14  # the values follow "ttm.q", its ndim and two u32 dims
    return blob[:name_at] + b"\xff" + blob[name_at + 1 :], name_at


def with_ttm_q_twice(blob: bytes, at: dict[str, int]) -> tuple[bytes, int]:
    """ttm.q saved again as an extra last entry, each value +1.0; the refusal
    is at the copy's name, past its u16 length."""
    start, end = at["ttm.q"] - 16, at["ttm.k"] - 16  # u16 length, "ttm.q", ndim, two u32 dims
    values = np.frombuffer(blob[at["ttm.q"] : end], "<f8") + 1.0
    (count,) = struct.unpack_from("<I", blob, 10)
    counted = blob[:10] + struct.pack("<I", count + 1) + blob[14:]
    return counted + blob[start : at["ttm.q"]] + values.tobytes(), len(blob) + 2


@pytest.mark.parametrize("cause, damage", [
    ("bad magic", lambda blob, at: (b"NOTACKPT" + blob[8:], 0)),
    ("truncated header", lambda blob, at: (blob[:12], 10)),
    ("invalid model config", lambda blob, at: (blob[:18] + b"[" + blob[19:], 18)),
    ("parameter name is not utf-8", with_name_byte),
    ("truncated parameter 'ttm.k'", lambda blob, at: (blob[: at["ttm.k"] + 8], at["ttm.k"])),
    ("parameter 'ttm.q' appears twice", with_ttm_q_twice),
], ids=["magic", "header", "json", "name", "values", "duplicate"])
def test_every_refusal_names_the_file_and_offset(tmp_path, cause, damage):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(AnticipationModel(ModelConfig(), seed=4), path)
    blob = path.read_bytes()
    damaged, offset = damage(blob, values_at(blob))
    path.write_bytes(damaged)
    named = f"^{re.escape(str(path))}: {re.escape(cause)}"
    with pytest.raises(FileFormatError, match=named) as err:
        load_checkpoint(path)
    assert err.value.offset == offset


def test_a_non_finite_parameter_is_refused_on_save(tmp_path):
    model = AnticipationModel(ModelConfig(), seed=2)
    next(p for p in model.parameters() if p.name == "ttm.q").value.data[1, 3] = np.inf
    path = tmp_path / "checkpoint.bin"
    cause = r"parameter 'ttm.q' holds a non-finite value at index \(1, 3\)"
    with pytest.raises(ValueError, match=cause):
        save_checkpoint(model, path)
    assert not path.exists()


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
        blob = saved_bytes(model)
        at = values_at(blob)[param.name] + 8 * data.draw(st.integers(0, param.size - 1))
        cause = f"parameter '{param.name}' holds a non-finite"
        with pytest.raises(FileFormatError, match=cause) as err:
            load_bytes(with_value(blob, at, np.nan))
        assert err.value.offset == at
