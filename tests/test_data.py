import numpy as np
import pytest

from vqcompress.data import amplitude_state, generate_synthetic, load_csv, pool_image, stack
from vqcompress.errors import ConfigError, DataError, EncodeError, ParseError


def test_split_sizes_and_balance():
    ds = generate_synthetic(4, 100, seed=7)
    assert len(ds.train) == 90 and len(ds.test) == 10
    labels = [s.label for s in ds.train + ds.test]
    assert labels.count(0) == 50 and labels.count(1) == 50


def test_class_construction_pattern():
    ds = generate_synthetic(4, 100, seed=3)
    for s in ds.train + ds.test:
        front, tail = s.features[:2].mean(), s.features[2:].mean()
        if s.label == 0:
            assert front < tail
        else:
            assert front > tail


def test_class_means_match_distributions():
    ds = generate_synthetic(4, 200, seed=5)
    feats, labels = stack(ds.train + ds.test)
    c0 = feats[labels == 0]
    assert c0[:, :2].mean() == pytest.approx(0.25, abs=0.05)
    assert c0[:, 2:].mean() == pytest.approx(0.75, abs=0.05)


def test_features_clipped_to_unit_interval():
    ds = generate_synthetic(16, 100, seed=11)
    feats, _ = stack(ds.train + ds.test)
    assert feats.min() >= 0.0 and feats.max() <= 1.0


def test_generation_is_deterministic():
    a = generate_synthetic(4, 100, seed=9)
    b = generate_synthetic(4, 100, seed=9)
    for x, y in zip(a.train, b.train):
        assert x.label == y.label and np.array_equal(x.features, y.features)


def test_unsupported_feature_count():
    with pytest.raises(ConfigError):
        generate_synthetic(8, 100, seed=0)


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,0.1,0.2\n1,0.9,0.8\n")
    ds = load_csv(path, n_classes=2, seed=0)
    assert len(ds.train) + len(ds.test) == 2


def test_load_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0.1,0.2\n1,oops,0.8\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, n_classes=2, seed=0)
    assert err.value.line == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_features(value, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,0.1,0.2\n1,0.9,0.8\n0,{value},0.2\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, n_classes=2, seed=0)
    assert err.value.line == 3


def test_load_csv_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("5,0.1,0.2\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, n_classes=2, seed=0)
    assert err.value.line == 1


def test_pooling_constant_image():
    img = np.full(784, 0.5)
    pooled = pool_image(img)
    assert pooled.shape == (16,)
    assert np.allclose(pooled, 0.5)


def test_pooling_block_means(tmp_path):
    img = np.zeros((28, 28))
    img[:7, :7] = 1.0  # exactly the first 7x7 block
    pooled = pool_image(img.ravel())
    assert pooled[0] == pytest.approx(1.0)
    assert np.allclose(pooled[1:], 0.0)
    row = "1," + ",".join(str(v) for v in img.ravel())
    path = tmp_path / "img.csv"
    path.write_text(row + "\n" + row + "\n")
    ds = load_csv(path, n_classes=2, seed=0, pool=True)
    assert ds.train[0].features.shape == (16,)


def test_amplitude_encoding_unit_cases():
    assert np.allclose(amplitude_state(np.array([1, 0, 0, 0]), 2), [1, 0, 0, 0])
    assert np.allclose(amplitude_state(np.ones(4), 2), [0.5] * 4)
    with pytest.raises(EncodeError):
        amplitude_state(np.zeros(4), 2)
    with pytest.raises(EncodeError):
        amplitude_state(np.ones(3), 2)


def test_stack_raises_on_empty():
    with pytest.raises(DataError):
        stack([])
