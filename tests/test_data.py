"""Chunking, feature file formats, synthetic process, reference scorer."""

import numpy as np
import pytest

from ttpp.data import (
    FeatureFileError,
    FeatureSequence,
    SyntheticConfig,
    chunk_frames,
    coarse_labels,
    gen_synthetic,
    horizon_transition,
    load_features,
    load_features_csv,
    make_samples,
    phase_coded_config,
    reference_scorer,
    save_features,
    save_features_csv,
    standard_synthetic_config,
)


class TestChunkFrames:
    def test_floor_and_remainder(self):
        rng = np.random.default_rng(0)
        seq = chunk_frames(rng.normal(size=(13, 4)), 6, np.zeros(13, dtype=int), n_classes=1)
        assert len(seq) == 2  # one trailing frame dropped

    def test_constant_features_survive_averaging(self):
        frames = np.tile(np.array([1.0, 2.0, 3.0]), (12, 1))
        seq = chunk_frames(frames, 6, np.zeros(12, dtype=int), n_classes=1)
        np.testing.assert_allclose(seq.features, np.tile([1.0, 2.0, 3.0], (2, 1)), rtol=1e-6)

    def test_label_comes_from_central_frame(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        seq = chunk_frames(np.zeros((6, 2)), 6, labels, n_classes=2)
        assert seq.labels[0] == 1  # frame index 3 of the chunk

    def test_mean_is_frame_average(self):
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(12, 3))
        seq = chunk_frames(frames, 6, np.zeros(12, dtype=int), n_classes=1)
        np.testing.assert_allclose(seq.features[0], frames[:6].mean(axis=0), rtol=1e-6)

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="chunk"):
            chunk_frames(np.zeros((5, 2)), 6, np.zeros(5, dtype=int))


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
        with pytest.raises(FeatureFileError, match="magic") as err:
            load_features(path)
        assert err.value.offset == 0

    def test_truncated_features(self, tmp_path):
        seq = random_sequence(seed=2)
        path = tmp_path / "t.feat"
        save_features(seq, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FeatureFileError, match="truncated"):
            load_features(path)

    def test_trailing_garbage(self, tmp_path):
        seq = random_sequence(seed=3)
        path = tmp_path / "g.feat"
        save_features(seq, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FeatureFileError, match="trailing"):
            load_features(path)

    def test_label_out_of_range(self, tmp_path):
        seq = random_sequence(seed=4, n_classes=4)
        path = tmp_path / "l.feat"
        save_features(seq, path)
        blob = bytearray(path.read_bytes())
        blob[-2:] = (9).to_bytes(2, "little")  # final label becomes 9 >= 4
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError, match="out of range"):
            load_features(path)

    def test_labels_beyond_u16_rejected_on_save(self, tmp_path):
        # label 70000 would wrap to 4464 in the u16 field
        seq = FeatureSequence("big", np.zeros((2, 3)), np.array([0, 70000]), 70001)
        with pytest.raises(ValueError, match="65536"):
            save_features(seq, tmp_path / "big.feat")
        assert not (tmp_path / "big.feat").exists()


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        seq = random_sequence(seed=5, length=7)
        path = tmp_path / "vid.csv"
        save_features_csv(seq, path)
        loaded = load_features_csv(path)
        np.testing.assert_array_equal(loaded.features, seq.features)
        np.testing.assert_array_equal(loaded.labels, seq.labels)
        assert loaded.video_id == seq.video_id
        twice = tmp_path / "again.csv"
        save_features_csv(loaded, twice)
        assert path.read_bytes() == twice.read_bytes()

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("vid,3,2\n0,1.0,2.0\n")
        with pytest.raises(FeatureFileError, match="row 1"):
            load_features_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("only,two\n")
        with pytest.raises(FeatureFileError, match="header"):
            load_features_csv(path)


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
        # every completed interior segment lasts exactly 3 chunks unless the
        # chain re-enters the same class back to back (merging two runs)
        assert all(r % 3 == 0 for r in runs[1:])

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


class TestHorizonTransition:
    def test_geometric_one_step(self):
        cfg = standard_synthetic_config(n_classes=3, d_m=2, seed=9, duration_mean=4.0)
        p = 1.0 / 4.0
        expected = (1 - p) * np.eye(3) + p * cfg.transition
        np.testing.assert_allclose(horizon_transition(cfg, 1), expected, atol=1e-12)

    def test_geometric_mean_one_is_plain_markov(self):
        cfg = standard_synthetic_config(n_classes=3, d_m=2, seed=10, duration_mean=1.0)
        np.testing.assert_allclose(
            horizon_transition(cfg, 3), np.linalg.matrix_power(cfg.transition, 3), atol=1e-12
        )

    def test_fixed_duration_hand_case(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        cfg = SyntheticConfig(
            n_classes=2, d_m=2, transition=swap, duration_mean=2.0,
            prototypes=np.zeros((2, 2)), noise_sigma=0.0, duration_law="fixed",
        )
        np.testing.assert_allclose(horizon_transition(cfg, 1), np.full((2, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(horizon_transition(cfg, 2), swap, atol=1e-12)

    def test_fixed_duration_rejects_self_loops(self):
        cfg = SyntheticConfig(
            n_classes=2, d_m=2, transition=np.array([[0.5, 0.5], [0.0, 1.0]]),
            duration_mean=2.0, prototypes=np.zeros((2, 2)), noise_sigma=0.0,
            duration_law="fixed",
        )
        with pytest.raises(ValueError, match="zero-diagonal"):
            horizon_transition(cfg, 1)

    def test_rows_remain_stochastic(self):
        cfg = standard_synthetic_config(n_classes=4, d_m=2, seed=11, duration_mean=3.0)
        for tau in (1, 2, 5):
            rows = horizon_transition(cfg, tau).sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-9)

    def test_reference_scorer_beats_chance_at_short_horizons(self):
        cfg = standard_synthetic_config(n_classes=3, d_m=4, seed=12, duration_mean=3.0)
        seqs = gen_synthetic(cfg, 4, 60)
        scorer = reference_scorer(cfg, horizon=2)
        hits = total = 0
        for seq in seqs:
            for t in range(len(seq) - 1):
                pred = scorer(seq, t)[0].argmax()
                hits += pred == seq.labels[t + 1]
                total += 1
        assert hits / total > 1.0 / 3 + 0.1


class TestPhaseCodedProcess:
    def test_micro_transition_is_row_stochastic(self):
        cfg = phase_coded_config(3, 4, d_m=8, seed=13)
        np.testing.assert_allclose(cfg.transition.sum(axis=1), 1.0, atol=1e-12)
        assert cfg.n_classes == 12

    def test_phases_advance_deterministically(self):
        cfg = phase_coded_config(2, 3, d_m=4, seed=14, noise_sigma=0.0)
        seq = gen_synthetic(cfg, 1, 40)[0]
        for a, b in zip(seq.labels[:-1], seq.labels[1:]):
            if a % 3 != 2:  # inside a segment the phase just increments
                assert b == a + 1

    def test_coarse_labels_collapse_phases(self):
        cfg = phase_coded_config(2, 3, d_m=4, seed=15)
        seq = gen_synthetic(cfg, 1, 30)[0]
        coarse = coarse_labels(seq, 3, 2)
        assert coarse.n_classes == 2
        np.testing.assert_array_equal(coarse.labels, seq.labels // 3)
        np.testing.assert_array_equal(coarse.features, seq.features)
