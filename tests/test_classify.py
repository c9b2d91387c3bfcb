import numpy as np
import pytest

from conftest import bits, blank
from viskey import cas, classify, font, vcs
from viskey.bitimage import downsample_majority
from viskey.classify import LabeledSample, Model
from viskey.denoise import adaptive_filter
from viskey.font import ALPHABET
from viskey.ocr import extract_features, normalize_glyph, segment


def sample(label, feats, source="x_f0"):
    return LabeledSample(label, np.asarray(feats, dtype=float), source)


class TestEuclideanDistance:
    def test_zero(self):
        v = np.arange(48, dtype=float)
        assert classify.euclidean_distance(v, v) == 0.0

    def test_three_four_five(self):
        a = np.zeros(48)
        b = np.zeros(48)
        b[0], b[1] = 3.0, 4.0
        assert classify.euclidean_distance(a, b) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            a, b = rng.random(48), rng.random(48)
            assert classify.euclidean_distance(a, b) == pytest.approx(
                classify.euclidean_distance(b, a)
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classify.euclidean_distance(np.zeros(48), np.zeros(47))


class TestClassify1nn:
    def test_exact_match(self):
        feats = np.full(48, 0.25)
        m = Model((sample("A", feats),))
        label, dist = classify.classify_1nn(feats, m)
        assert (label, dist) == ("A", 0.0)

    def test_nearer_wins(self):
        m = Model((sample("A", np.zeros(48)), sample("B", np.ones(48))))
        label, _ = classify.classify_1nn(np.full(48, 0.1), m)
        assert label == "A"

    def test_tie_digits_before_letters(self):
        feats = np.full(48, 0.5)
        m = Model((sample("B", feats), sample("3", feats)))
        label, dist = classify.classify_1nn(np.zeros(48), m)
        assert label == "3" and dist > 0

    def test_tie_earlier_training_index(self):
        feats = np.full(48, 0.5)
        m = Model((sample("K", feats, "k_f0"), sample("K", feats, "k_f1")))
        label, _ = classify.classify_1nn(feats, m)
        assert label == "K"

    def test_empty_model(self):
        with pytest.raises(ValueError):
            classify.classify_1nn(np.zeros(48), Model(()))

    def test_duplicate_sample_invariance(self):
        rng = np.random.default_rng(61)
        samples = tuple(
            sample(ALPHABET[i % 36], rng.random(48), f"s{i}_f0") for i in range(12)
        )
        m = Model(samples)
        m_dup = Model(samples + (samples[3],))
        for _ in range(20):
            x = rng.random(48)
            assert classify.classify_1nn(x, m)[0] == classify.classify_1nn(x, m_dup)[0]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            k = int(rng.integers(1, 15))
            samples = tuple(
                sample(ALPHABET[int(rng.integers(36))], rng.random(48), f"s{i}")
                for i in range(k)
            )
            m = Model(samples)
            x = rng.random(48)
            got_label, got_dist = classify.classify_1nn(x, m)
            dists = [classify.euclidean_distance(x, s.features) for s in samples]
            best = min(
                range(k), key=lambda i: (dists[i], ALPHABET.index(samples[i].label), i)
            )
            assert (got_label, got_dist) == (
                samples[best].label,
                pytest.approx(dists[best]),
            )


def oracle_nearest(x, samples):
    """Exhaustive scan: (index, distance) of the nearest sample under the tie
    rule distance, then alphabet rank of the label, then training index."""
    dists = [classify.euclidean_distance(x, s.features) for s in samples]
    best = min(range(len(samples)),
               key=lambda i: (dists[i], ALPHABET.index(samples[i].label), i))
    return best, dists[best]


class TestNearest:
    def test_batch_matches_oracle_per_row(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            n = int(rng.integers(1, 20))
            feats = [rng.random(48) for _ in range(n)]
            for _ in range(int(rng.integers(0, n))):  # force ties: duplicate rows
                feats[int(rng.integers(n))] = feats[int(rng.integers(n))].copy()
            labels = rng.choice(list("0Z9AK3"), n)  # few labels, so ties mix them
            samples = tuple(sample(lbl, f, f"s{i}")
                            for i, (lbl, f) in enumerate(zip(labels, feats)))
            m = Model(samples)
            k = int(rng.integers(1, 10))
            X = np.stack([feats[int(rng.integers(n))] if rng.random() < 0.5 else rng.random(48)
                          for _ in range(k)])
            idx, dists = classify.nearest(X, m)
            assert idx.shape == dists.shape == (k,)
            for x, i, d in zip(X, idx, dists):
                assert (int(i), float(d)) == oracle_nearest(x, samples)

    def test_equidistant_mixed_labels(self):
        base = np.full(48, 0.5)
        # every sample is exactly 0.25 * sqrt(48) from base: a four-way tie
        samples = (sample("K", base + 0.25), sample("7", base - 0.25),
                   sample("A", base + 0.25), sample("7", base - 0.25, "7_f1"))
        idx, dists = classify.nearest(np.stack([base, base + 0.25]), Model(samples))
        assert list(idx) == [1, 2]
        assert dists[0] == classify.euclidean_distance(base, samples[1].features)
        assert dists[1] == 0.0

    def test_no_rows(self, model):
        idx, dists = classify.nearest(np.zeros((0, 48)), model)
        assert idx.shape == dists.shape == (0,)

    def test_empty_model(self):
        with pytest.raises(ValueError):
            classify.nearest(np.zeros((1, 48)), Model(()))

    def test_rows_required(self, model):
        with pytest.raises(ValueError):
            classify.nearest(np.zeros(48), model)


class TestLabeledSample:
    def test_bad_label(self):
        with pytest.raises(ValueError):
            sample("a", np.zeros(48))

    def test_bad_length(self):
        with pytest.raises(ValueError):
            sample("A", np.zeros(47))


class TestTrainModel:
    def test_full_corpus(self, model):
        assert len(model.samples) == 360
        assert model.skipped == ()
        labels = {s.label for s in model.samples}
        assert labels == set(ALPHABET)

    def test_deterministic(self):
        a = classify.train_model(font.corpus())
        b = classify.train_model(font.corpus())
        assert all(
            np.array_equal(x.features, y.features) for x, y in zip(a.samples, b.samples)
        )

    def test_empty_input(self):
        with pytest.raises(ValueError):
            classify.train_model(())

    def test_bad_filename(self):
        glyph = font.render_variant("A", "f0")
        for source_id in ("badname", "a_f0", "A_"):
            with pytest.raises(ValueError):
                classify.train_model([(source_id, glyph)])

    def test_multi_glyph_file_skipped(self):
        two = cas.render_key_image("AB", "f0")
        m = classify.train_model([("A_f0", font.render_variant("A", "f0")), ("B_zz", two)])
        assert len(m.samples) == 1
        assert m.skipped == ("B_zz",)

    def test_share_pipeline_returns_corpus_glyphs(self, model):
        """Why training skips the share pipeline: encode -> stack of shares 1
        and 2 -> filter -> downsample gives every corpus glyph's features back."""
        trained = {s.source_id: s.features for s in model.samples}
        schemes = [vcs.scheme_params(n) for n in (2, 9, 12)]
        for k, (source_id, secret) in enumerate(font.corpus()):
            for p in schemes:
                stacked = vcs.reconstruct(vcs.encode(secret, p, 4000 + k)[:2])
                clean = downsample_majority(adaptive_filter(stacked, p),
                                            p.block_h, p.block_w)
                (box,) = segment(clean)
                feats = extract_features(normalize_glyph(clean, box))
                assert np.array_equal(feats, trained[source_id]), (source_id, p.n)

    def test_self_recognition(self, model):
        for s in model.samples[::37]:
            label, dist = classify.classify_1nn(s.features, model)
            assert label == s.label and dist == 0.0

    def test_without_font(self, model):
        sub = model.without_font("f3")
        assert len(sub.samples) == 324
        assert not any(s.source_id.endswith("_f3") for s in sub.samples)


class TestModelPersistence:
    def test_roundtrip(self, model, tmp_path):
        path = tmp_path / "model.txt"
        classify.save_model(model, path)
        loaded = classify.load_model(path)
        assert len(loaded.samples) == len(model.samples)
        for a, b in zip(model.samples, loaded.samples):
            assert a.label == b.label and a.source_id == b.source_id
            assert np.allclose(a.features, b.features, atol=1e-8)

    def test_header_format(self, model, tmp_path):
        path = tmp_path / "model.txt"
        classify.save_model(model, path)
        assert path.read_text().splitlines()[0] == "viskey-model 48 360"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("not-a-model 48 0\n")
        with pytest.raises(ValueError):
            classify.load_model(path)
        path.write_text("")
        with pytest.raises(ValueError, match="empty model file"):
            classify.load_model(path)

    def test_wrong_feature_count(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("viskey-model 47 1\nA a_f0 " + " ".join(["0"] * 47) + "\n")
        with pytest.raises(ValueError, match="47 features per sample"):
            classify.load_model(path)

    def test_skipped_is_keyword_only(self):
        with pytest.raises(TypeError):
            Model((), 2)

    def test_short_sample_line(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("viskey-model 48 1\nA\n")
        with pytest.raises(ValueError, match="lacks a label and a source id"):
            classify.load_model(path)

    def test_sample_count_mismatch(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("viskey-model 48 2\nA a_f0 " + " ".join(["0"] * 48) + "\n")
        with pytest.raises(ValueError):
            classify.load_model(path)

    def test_no_samples(self, tmp_path):
        """A model with no samples would fail every decode; it is refused on load."""
        path = tmp_path / "model.txt"
        path.write_text("viskey-model 48 0\n")
        with pytest.raises(ValueError) as e:
            classify.load_model(path)
        assert str(e.value) == f"model file {path} holds no samples"


class TestDecodeString:
    def test_all_white(self, model):
        assert classify.decode_string(blank(20, 20), model, vcs.scheme_params(2)) == ""

    def test_end_to_end_a7k(self, model):
        p = vcs.scheme_params(2)
        secret = cas.render_key_image("A7K", "f0")
        merged = vcs.reconstruct(vcs.encode(secret, p, 12345))
        out = classify.decode_string(merged, model, p)
        assert out == "A7K"

    def test_single_zero(self, model):
        p = vcs.scheme_params(2)
        secret = cas.render_key_image("0", "f0")
        merged = vcs.reconstruct(vcs.encode(secret, p, 999))
        out = classify.decode_string(merged, model, p)
        assert out == "0"
