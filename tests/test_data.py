"""The .feat format, the synthetic process and its standard config, and the
windows cut from a sequence."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ttpp.data import (
    FeatureSequence,
    FileFormatError,
    SyntheticConfig,
    gen_synthetic,
    load_features,
    make_samples,
    save_features,
    standard_synthetic_config,
)


def with_feature(blob: bytes, entry: int, value) -> bytes:
    """A saved .feat file with its flat feature `entry` overwritten by `value`."""
    at = 22 + 4 * entry
    return blob[:at] + np.float32(value).tobytes() + blob[at + 4 :]


def random_sequence(seed=0, length=20, d_m=6, n_classes=4, video_id="vid"):
    rng = np.random.default_rng(seed)
    return FeatureSequence(
        video_id,
        rng.normal(size=(length, d_m)).astype(np.float32),
        rng.integers(0, n_classes, size=length),
        n_classes,
    )


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        seq = random_sequence()
        path = tmp_path / "vid.feat"
        save_features(seq, path)
        loaded = load_features(path)
        np.testing.assert_array_equal(loaded.features, seq.features)
        np.testing.assert_array_equal(loaded.labels, seq.labels)
        assert loaded.video_id == "vid"
        assert loaded.n_classes == seq.n_classes

    def test_float64_data_is_held_as_its_float32_rounding(self):
        values = np.random.default_rng(3).normal(size=(5, 3))
        seq = FeatureSequence("vid", values, np.zeros(5, dtype=np.int64), 2)
        assert seq.features.dtype == np.float64
        assert seq.features.tobytes() == values.astype(np.float32).astype(np.float64).tobytes()

    def test_file_holds_float32_rows_then_u16_labels(self, tmp_path):
        values, labels = np.random.default_rng(4).normal(size=(5, 3)), [0, 1, 2, 1, 0]
        path = tmp_path / "vid.feat"
        save_features(FeatureSequence("vid", values, labels, 3), path)
        assert path.read_bytes() == (b"TTPPFEAT" + struct.pack("<HIII", 1, 5, 3, 3)
                                     + values.astype("<f4").tobytes()
                                     + np.array(labels, "<u2").tobytes())
        loaded = load_features(path)
        assert loaded.features.dtype == np.float64
        np.testing.assert_array_equal(loaded.features, values.astype(np.float32))

    def test_save_load_save_is_byte_identical(self, tmp_path):
        seq = random_sequence(seed=1)
        a = tmp_path / "a.feat"
        b = tmp_path / "b.feat"
        save_features(seq, a)
        save_features(load_features(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FileFormatError, match="magic") as err:
            load_features(path)
        assert err.value.offset == 0

    def test_truncated_features(self, tmp_path):
        seq = random_sequence(seed=2)
        path = tmp_path / "t.feat"
        save_features(seq, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FileFormatError, match="truncated"):
            load_features(path)

    def test_trailing_garbage(self, tmp_path):
        seq = random_sequence(seed=3)
        path = tmp_path / "g.feat"
        save_features(seq, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FileFormatError, match="trailing"):
            load_features(path)

    def test_label_out_of_range(self, tmp_path):
        seq = random_sequence(seed=4, n_classes=4)
        path = tmp_path / "l.feat"
        save_features(seq, path)
        blob = bytearray(path.read_bytes())
        blob[-2:] = (9).to_bytes(2, "little")  # final label becomes 9 >= 4
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="label 9 out of range for 4 classes") as err:
            load_features(path)
        assert err.value.offset == len(blob) - 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected_at_its_offset(self, tmp_path, value):
        seq = random_sequence(seed=5, length=6, d_m=3)
        path = tmp_path / "n.feat"
        save_features(seq, path)
        path.write_bytes(with_feature(path.read_bytes(), 4 * 3 + 1, value))  # row 4, column 1
        with pytest.raises(FileFormatError, match="non-finite") as err:
            load_features(path)
        assert err.value.offset == 22 + 4 * (4 * 3 + 1)
        assert str(path) in str(err.value)

    def test_every_error_names_the_file(self, tmp_path):
        seq = random_sequence(seed=6)
        path = tmp_path / "named.feat"
        save_features(seq, path)
        blob = path.read_bytes()
        labels_at = 22 + 4 * seq.features.size
        corruptions = {
            "truncated header": (blob[:15], 10),
            "unsupported version": (blob[:8] + b"\x09\x00" + blob[10:], 8),
            "truncated features": (blob[:100], 22),
            "truncated labels": (blob[:-1], labels_at),
            "trailing": (blob + b"x", len(blob)),
            "magic": (b"NOTMAGIC" + blob[8:], 0),
        }
        for cause, (corrupt, offset) in corruptions.items():
            path.write_bytes(corrupt)
            with pytest.raises(FileFormatError, match=cause) as err:
                load_features(path)
            assert str(path) in str(err.value), cause
            assert err.value.offset == offset, cause

    def test_labels_beyond_u16_rejected_on_save(self, tmp_path):
        # label 70000 would wrap to 4464 in the u16 field
        seq = FeatureSequence("big", np.zeros((2, 3)), np.array([0, 70000]), 70001)
        with pytest.raises(ValueError, match="65536"):
            save_features(seq, tmp_path / "big.feat")
        assert not (tmp_path / "big.feat").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_refused_on_save(self, tmp_path, value):
        seq = random_sequence(seed=7, length=6, d_m=3)
        seq.features[4, 1] = value
        cause = r"features holds a non-finite value at index \(4, 1\)"
        with pytest.raises(ValueError, match=cause):
            save_features(seq, tmp_path / "n.feat")
        assert not (tmp_path / "n.feat").exists()


class TestGenSynthetic:
    def test_identity_transition_freezes_labels(self):
        cfg = standard_synthetic_config(n_classes=3, d_m=4, seed=0)
        cfg = SyntheticConfig(
            n_classes=3, d_m=4, transition=np.eye(3), duration_mean=2.0,
            prototypes=cfg.prototypes[:3], noise_sigma=0.1, seed=1,
        )
        for seq in gen_synthetic(cfg, 4, 30):
            assert len(set(seq.labels.tolist())) == 1

    def test_zero_noise_reproduces_prototypes(self):
        cfg = standard_synthetic_config(n_classes=3, d_m=4, seed=2, noise_sigma=0.0)
        for seq in gen_synthetic(cfg, 2, 12):
            expected = cfg.prototypes[seq.labels].astype(np.float32)
            np.testing.assert_array_equal(seq.features, expected)

    def test_transition_frequencies_match_config(self):
        # duration mean 1 makes every chunk a fresh transition draw
        rng = np.random.default_rng(3)
        transition = np.array([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.25, 0.25, 0.5]])
        cfg = SyntheticConfig(
            n_classes=3, d_m=2, transition=transition, duration_mean=1.0,
            prototypes=rng.normal(size=(3, 2)), noise_sigma=0.0, seed=4,
        )
        seq = gen_synthetic(cfg, 1, 100_001)[0]
        counts = np.zeros((3, 3))
        for a, b in zip(seq.labels[:-1], seq.labels[1:]):
            counts[a, b] += 1
        freqs = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(freqs, transition, atol=0.02)

    def test_bit_identical_per_seed(self):
        cfg = standard_synthetic_config(n_classes=4, d_m=8, seed=5)
        a = gen_synthetic(cfg, 3, 25)
        b = gen_synthetic(cfg, 3, 25)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_fixed_duration_segments(self):
        cfg = standard_synthetic_config(
            n_classes=3, d_m=4, seed=6, duration_mean=3.0, duration_law="fixed"
        )
        seq = gen_synthetic(cfg, 1, 60)[0]
        runs = []
        run = 1
        for a, b in zip(seq.labels[:-1], seq.labels[1:]):
            if a == b:
                run += 1
            else:
                runs.append(run)
                run = 1
        # the standard transition never stays in its class, so no two
        # segments merge: every completed interior run lasts exactly 3 chunks
        assert runs[1:] and all(r == 3 for r in runs[1:])

    @pytest.mark.parametrize("n_classes", range(2, 9))
    def test_standard_transition_never_stays_in_its_class(self, n_classes):
        # what keeps fixed-duration segments apart
        transition = standard_synthetic_config(n_classes=n_classes, d_m=2).transition
        np.testing.assert_array_equal(np.diag(transition), np.zeros(n_classes))

    def test_row_stochastic_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SyntheticConfig(
                n_classes=2, d_m=2, transition=np.array([[0.5, 0.4], [0.5, 0.5]]),
                duration_mean=1.0, prototypes=np.zeros((2, 2)), noise_sigma=0.1,
            )


class TestMakeSamples:
    def test_boundary_counts(self):
        assert len(make_samples(random_sequence(length=12), 8, 4)) == 1
        assert len(make_samples(random_sequence(length=14), 8, 4)) == 3
        assert make_samples(random_sequence(length=11), 8, 4) == []

    def test_future_labels_align(self):
        seq = random_sequence(seed=7, length=16)
        for i, sample in enumerate(make_samples(seq, 8, 4)):
            assert sample.future_labels[0].argmax() == seq.labels[i + 8]
            assert sample.future_labels[-1].argmax() == seq.labels[i + 11]

    def test_windows_never_read_past_end(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            length = int(rng.integers(1, 30))
            seq = random_sequence(seed=int(rng.integers(1e6)), length=length)
            t, h = int(rng.integers(2, 10)), int(rng.integers(1, 6))
            samples = make_samples(seq, t, h)
            assert len(samples) == max(0, length - t - h + 1)
            for s in samples:
                assert s.observed.shape == (t, seq.d_m)
                assert s.future_features.shape == (h, seq.d_m)


@st.composite
def feature_sequences(draw):
    t = draw(st.integers(0, 12))
    d_m = draw(st.integers(1, 5))
    n_classes = draw(st.integers(1, 65536))
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    features = draw(arrays(np.float32, (t, d_m), elements=finite))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=t, max_size=t))
    return FeatureSequence("vid", features, np.array(labels, dtype=np.int64), n_classes)


def load_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vid.feat"
        path.write_bytes(blob)
        return load_features(path)


def saved_bytes(seq) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vid.feat"
        save_features(seq, path)
        return path.read_bytes()


class TestFeatureFileProperties:
    """Random shapes, labels and values: a .feat file loads exactly or fails by name."""

    @settings(max_examples=40, deadline=None)
    @given(seq=feature_sequences())
    def test_save_then_load_is_the_identity(self, seq):
        loaded = load_bytes(saved_bytes(seq))
        assert loaded.features.tobytes() == seq.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, seq.labels)
        assert loaded.n_classes == seq.n_classes and loaded.video_id == "vid"

    @settings(max_examples=15, deadline=None)
    @given(seq=feature_sequences())
    def test_every_proper_prefix_is_refused(self, seq):
        blob = saved_bytes(seq)
        for end in range(len(blob)):
            with pytest.raises(FileFormatError):
                load_bytes(blob[:end])

    @settings(max_examples=40, deadline=None)
    @given(seq=feature_sequences(), extra=st.binary(min_size=1, max_size=16))
    def test_appended_bytes_are_refused(self, seq, extra):
        with pytest.raises(FileFormatError, match="trailing"):
            load_bytes(saved_bytes(seq) + extra)

    @settings(max_examples=40, deadline=None)
    @given(
        seq=feature_sequences().filter(lambda s: s.features.size > 0),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
        data=st.data(),
    )
    def test_a_non_finite_entry_is_refused_at_its_offset(self, seq, value, data):
        entry = data.draw(st.integers(0, seq.features.size - 1))
        with pytest.raises(FileFormatError, match="non-finite") as err:
            load_bytes(with_feature(saved_bytes(seq), entry, value))
        assert err.value.offset == 22 + 4 * entry
