"""Synthetic suite generation and the CSV writer."""

import csv
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from merge_surgeon import cli, datasets
from merge_surgeon.config import RunConfig
from merge_surgeon.datasets import DataError, Dataset, gen_task_suite, save_csv

F32_MAX = float(np.finfo(np.float32).max)


SPLITS = ("train", "validation", "test")


def drawn(suite):
    """Every split of every task, in task order per split, then the mixture."""
    return [*(data for split in SPLITS for data in suite.split(split)), suite.mixture()]


def datasets_bitwise_equal(a, b):
    return len(a) == len(b) and all(
        da.features.tobytes() == db.features.tobytes()
        and da.labels.tobytes() == db.labels.tobytes()
        for da, db in zip(a, b)
    )


def suites_bitwise_equal(a, b):
    return datasets_bitwise_equal(drawn(a), drawn(b))


class TestGeneration:
    def test_determinism(self):
        a = gen_task_suite(42, 4, 16, 5, 30, 20)
        b = gen_task_suite(42, 4, 16, 5, 30, 20)
        assert suites_bitwise_equal(a, b)

    def test_different_seed_differs(self):
        a = gen_task_suite(42, 2, 8, 3, 30, 20)
        b = gen_task_suite(43, 2, 8, 3, 30, 20)
        assert not suites_bitwise_equal(a, b)

    def test_labels_in_range(self):
        suite = gen_task_suite(42, 3, 8, 4, 25, 15)
        for data in drawn(suite):
            assert data.labels.min() >= 0
            assert data.labels.max() < 4

    def test_means_on_radius_3_sphere(self):
        suite = gen_task_suite(7, 2, 10, 4, 10, 10)
        for means in suite.class_means:
            np.testing.assert_allclose(np.linalg.norm(means, axis=1), 3.0, atol=1e-9)

    def test_nearest_mean_oracle_beats_chance(self):
        # The generating means are an independent classifier for the data
        # they generated; it must beat 1/C comfortably.
        suite = gen_task_suite(42, 4, 16, 5, 30, 200)
        means = suite.class_means[0]
        test = suite.split("test")[0]
        d2 = ((test.features[:, None, :].astype(np.float64) - means[None, :, :]) ** 2).sum(-1)
        accuracy = (d2.argmin(axis=1) == test.labels).mean()
        assert accuracy > 1.0 / 5

    def test_mixture_is_equal_count_union(self):
        suite = gen_task_suite(1, 3, 6, 3, 40, 10)
        assert len(suite.mixture()) == 3 * 40

    def test_splits_drawn_independently(self):
        suite = gen_task_suite(2, 2, 6, 3, 20, 20)
        for train, validation, test in zip(*(suite.split(split) for split in SPLITS)):
            assert train.features.tobytes() != test.features.tobytes()
            assert validation.features.tobytes() != test.features.tobytes()

    def test_bad_sizes_rejected(self):
        with pytest.raises(DataError):
            gen_task_suite(1, 0, 8, 3, 10, 10)
        with pytest.raises(DataError):
            gen_task_suite(1, 2, 8, 3, 0, 10)
        with pytest.raises(DataError):
            gen_task_suite(1, 2, 1, 3, 10, 10)


def _whole_draw_suite(seed, num_tasks, dim, num_classes, n_train, n_test):
    """The suite as one float64 draw per split and per mixture part,
    rounded to float32 at the end: the reference for the blocked draws."""
    means_all, tasks = [], []
    for t in range(num_tasks):
        raw = np.random.default_rng([seed, t, datasets._MEANS_STREAM]).standard_normal(
            (num_classes, dim)
        )
        means = 3.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        means_all.append(means)
        splits = []
        for split, size in (("train", n_train), ("validation", n_test), ("test", n_test)):
            rng = np.random.default_rng([seed, t, datasets._SPLIT_STREAMS[split]])
            labels = rng.integers(0, num_classes, size=size)
            features = (means[labels] + rng.standard_normal((size, dim))).astype(np.float32)
            splits.append((features, labels))
        tasks.append(splits)
    parts = []
    for t in range(num_tasks):
        rng = np.random.default_rng([seed, t, datasets._MIXTURE_STREAM])
        labels = rng.integers(0, num_classes, size=n_train)
        parts.append(means_all[t][labels] + rng.standard_normal((n_train, dim)))
    mixture = np.concatenate(parts)
    thresholds = np.quantile(
        mixture[:, 0], [(i + 1) / num_classes for i in range(num_classes - 1)]
    )
    return tasks, (mixture.astype(np.float32), np.digitize(mixture[:, 0], thresholds))


class TestBlockedDraws:
    @pytest.mark.parametrize("block, sizes", [(7, (30, 20)), (None, (4100, 9000))])
    def test_the_suite_is_one_whole_draw(self, monkeypatch, block, sizes):
        if block is not None:
            monkeypatch.setattr(datasets, "_BLOCK_SAMPLES", block)
        suite = gen_task_suite(11, 2, 3, 4, *sizes)
        tasks, (mix_features, mix_labels) = _whole_draw_suite(11, 2, 3, 4, *sizes)
        for split, task_splits in zip(SPLITS, zip(*tasks)):
            for data, (features, labels) in zip(suite.split(split), task_splits, strict=True):
                assert data.features.tobytes() == features.tobytes()
                assert data.labels.tobytes() == labels.tobytes()
        mixture = suite.mixture()
        assert mixture.features.tobytes() == mix_features.tobytes()
        assert mixture.labels.tobytes() == mix_labels.tobytes()

    @pytest.mark.parametrize("samples, widths", [
        (1, [1]), (4096, [4096]), (4097, [4096, 1]), (9000, [4096, 4096, 808]),
    ])
    def test_sample_blocks_cover_the_samples_in_order(self, samples, widths):
        blocks = datasets._sample_blocks(samples)
        assert [b.stop - b.start for b in blocks] == widths
        assert [b.start for b in blocks] == [0, *np.cumsum(widths)[:-1].tolist()]


class TestLazySuite:
    """A suite is a recipe: each call draws afresh, and nothing is kept."""

    def test_any_draw_order_gives_the_same_bytes_as_new_arrays(self):
        reference = drawn(gen_task_suite(3, 3, 5, 4, 50, 30))
        suite = gen_task_suite(3, 3, 5, 4, 50, 30)
        test = suite.split("test")
        train = suite.split("train")
        again = {split: suite.split(split) for split in ("test", "validation", "train")}
        mixture, mixture_again = suite.mixture(), suite.mixture()
        for first, second in ((test, again["test"]), (train, again["train"]),
                              ([mixture], [mixture_again])):
            assert datasets_bitwise_equal(first, second)
            for a, b in zip(first, second):
                assert not np.shares_memory(a.features, b.features)
                assert not np.shares_memory(a.labels, b.labels)
        assert datasets_bitwise_equal(
            [*train, *again["validation"], *test, mixture_again], reference
        )

    def test_a_split_of_some_tasks_is_theirs_of_the_whole_split(self):
        suite = gen_task_suite(3, 3, 5, 4, 50, 30)
        for split in SPLITS:
            whole = suite.split(split)
            assert datasets_bitwise_equal(suite.split(split, [2, 0]), [whole[2], whole[0]])
            assert datasets_bitwise_equal(suite.split(split, range(3)), whole)

    def test_an_unknown_split_is_named(self):
        with pytest.raises(DataError, match="^no split 'val'; expected one of train, validation"):
            gen_task_suite(1, 2, 3, 2, 5, 5).split("val")

    def test_the_suite_export_holds_one_split_at_a_time(self, tmp_path, monkeypatch):
        # From the recipe through the export step, the traced peak stays
        # under two test splits (about 1.6 of them); holding the whole suite
        # (train, validation, test and mixture at once) takes about 3.3.
        # The writer is stubbed to note each dataset's file and row count:
        # formatting 200k rows under tracemalloc takes about 20 s.
        written = []
        monkeypatch.setattr(cli, "save_csv",
                            lambda data, path: written.append((path.name, len(data))))
        cfg = RunConfig(tasks=4, n_train=8000, n_test=20_000)
        test_split_bytes = cfg.tasks * cfg.n_test * (cfg.dim * 4 + 8)
        tracemalloc.start()
        try:
            suite = gen_task_suite(cfg.seed, cfg.tasks, cfg.dim, cfg.classes, cfg.n_train,
                                   cfg.n_test)
            cli._gen_step(cfg, tmp_path, suite)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * test_split_bytes
        assert sorted(written) == sorted(
            [(f"task{t}_{split}.csv", cfg.n_train if split == "train" else cfg.n_test)
             for t in range(cfg.tasks) for split in SPLITS]
            + [("mixture.csv", cfg.tasks * cfg.n_train)]
        )


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), num_classes=3)

    def test_non_finite_features(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([0]), num_classes=1)

    def test_inputs_transposed(self):
        ds = Dataset(np.arange(6, dtype=np.float32).reshape(3, 2), np.zeros(3, dtype=int), 1)
        assert ds.inputs().shape == (2, 3)


def parse_csv(path):
    """The header, float32 features and integer labels of a written CSV,
    each cell parsed on its own: ``np.float32(float(cell))``."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    features = np.array([[np.float32(float(c)) for c in row[:-1]] for row in rows], np.float32)
    return header, features, [int(row[-1]) for row in rows]


class TestCsv:
    def test_round_trip_generated_dataset(self, tmp_path):
        suite = gen_task_suite(5, 2, 6, 3, 40, 10)
        original = suite.split("train")[1]
        path = tmp_path / "task.csv"
        save_csv(original, path)
        header, features, labels = parse_csv(path)
        assert header == [f"f{i}" for i in range(6)] + ["label"]
        assert features.tobytes() == original.features.tobytes()
        assert labels == original.labels.tolist()

    def test_round_trip_is_float32_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.standard_normal((20, 4)).astype(np.float32) * 1e-3,
                     np.zeros(20, dtype=int), 1)
        path = tmp_path / "exact.csv"
        save_csv(ds, path)
        _, features, _ = parse_csv(path)
        assert features.tobytes() == ds.features.tobytes()


def loop_csv_bytes(dataset, path):
    """The per-row ``csv.writer`` export that ``save_csv`` replaced: the
    reference its bytes must match."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.dim)] + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([f"{float(v):.9g}" for v in row] + [int(label)])
    return path.read_bytes()


@pytest.fixture(scope="module")
def new_path(tmp_path_factory):
    """A new file name on every call: on some file systems overwriting a
    file costs far more than writing a new one."""
    root = tmp_path_factory.mktemp("writer")
    names = itertools.count()
    return lambda: root / f"{next(names)}.csv"


class TestSaveCsvBytes:
    def assert_same_bytes(self, new_path, dataset):
        path = new_path()
        save_csv(dataset, path)
        assert path.read_bytes() == loop_csv_bytes(dataset, new_path())

    def test_edge_values(self, new_path):
        # Negative zero, the smallest float32 subnormal, the float32 range
        # ends, an exponent form and an integral value.
        features = np.array(
            [[-0.0, 1e-45, F32_MAX, -F32_MAX, 1e-05, 2.0],
             [0.0, -1e-45, 1.0, -2.5, 1.17549435e-38, 123456789.0]],
            dtype=np.float32,
        )
        dataset = Dataset(features, np.array([0, 11]), num_classes=12)
        self.assert_same_bytes(new_path, dataset)
        text = new_path()
        save_csv(dataset, text)
        assert text.read_text().splitlines()[1].startswith("-0,1.40129846e-45,3.40282347e+38,")

    @pytest.mark.parametrize(
        "rows",
        [1, datasets._CHUNK_ROWS - 1, datasets._CHUNK_ROWS, datasets._CHUNK_ROWS + 1,
         2 * datasets._CHUNK_ROWS + 3],
    )
    def test_row_counts_around_the_chunk_size(self, new_path, rows):
        rng = np.random.default_rng(rows)
        dataset = Dataset(
            rng.standard_normal((rows, 3)).astype(np.float32), rng.integers(0, 4, rows), 4
        )
        self.assert_same_bytes(new_path, dataset)

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(
            np.float32,
            st.tuples(st.integers(1, 40), st.integers(1, 6)),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
        ),
        st.integers(0, 2**31),
    )
    def test_matches_the_row_loop_on_random_float32(self, new_path, features, seed):
        labels = np.random.default_rng(seed).integers(0, 3, features.shape[0])
        self.assert_same_bytes(new_path, Dataset(features, labels, num_classes=3))
