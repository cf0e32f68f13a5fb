"""Config parsing, precedence, and worker-count handling."""

import pytest

from merge_surgeon.config import (
    ConfigError,
    RunConfig,
    parse_config_text,
    worker_count,
)


class TestParseConfigText:
    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# heading\n\nseed = 7  # trailing\n mode = v2 \n")
        assert values == {"seed": "7", "mode": "v2"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.seed == 42
        assert cfg.hidden_dims == (32, 32, 32, 32, 32, 16)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_sources({"sedd": "42"})

    def test_precedence_flags_over_file_over_defaults(self):
        cfg = RunConfig.from_sources({"seed": "1", "tasks": "3"}, {"seed": "2"})
        assert cfg.seed == 2       # flag wins
        assert cfg.tasks == 3      # file wins over default
        assert cfg.classes == 5    # default

    def test_none_overrides_are_skipped(self):
        cfg = RunConfig.from_sources({"seed": "9"}, {"seed": None})
        assert cfg.seed == 9

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources({"seed": "not-a-number"})
        with pytest.raises(ConfigError):
            RunConfig.from_sources({"hidden_dims": "32,more"})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            RunConfig.from_sources({"seed": "-1"})
        assert RunConfig.from_sources({"seed": "0"}).seed == 0

    def test_range_validation(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources({"ties_keep": "0"})
        with pytest.raises(ConfigError, match="unknown algorithm"):
            RunConfig.from_sources({"merge_algo": "bogus"})
        with pytest.raises(ConfigError):
            RunConfig.from_sources({"surgery_mode": "v9"})
        with pytest.raises(ConfigError):
            RunConfig.from_sources({"surgery_data": "midway"})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("surgery_data", "stream:abc"),
            ("surgery_data", "wild:x"),
            ("surgery_data", "stream:2"),
            ("surgery_mode", "block:x"),
            ("surgery_mode", "block:99"),
        ],
    )
    def test_bad_surgery_values_rejected_when_built(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_sources({key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("merge_scale", "nan"),
            ("merge_scale", "-inf"),
            ("scale_grid", "0.1,nan"),
            ("scale_grid", "inf"),
            ("scale_grid", "0.5,1e999"),
            ("train_lr", "nan"),
            ("train_lr", "inf"),
        ],
    )
    def test_non_finite_floats_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} = .*: values must be finite$"):
            RunConfig.from_sources({key: value})

    def test_non_finite_float_given_as_a_value_rejected(self):
        with pytest.raises(ConfigError, match="^scale_grid = 0.1,nan: "):
            RunConfig(scale_grid=(0.1, float("nan")))

    @pytest.mark.parametrize("widths", ["8,1", "4,4,1"])
    def test_final_width_below_two_rejected(self, widths):
        with pytest.raises(ConfigError, match=f"^hidden_dims = {widths}: the final width"):
            RunConfig.from_sources({"hidden_dims": widths})
        assert RunConfig.from_sources({"hidden_dims": "8,1,2"}).hidden_dims == (8, 1, 2)

    def test_to_text_round_trips(self):
        cfg = RunConfig.from_sources({
            "seed": "5", "surgery_psi": "mse", "surgery_mode": "block:2",
            "surgery_data": "stream:0.5", "merge_scale": "0.3",
        })
        parsed = parse_config_text(cfg.to_text())
        again = RunConfig.from_sources(parsed)
        assert again == cfg


class TestWorkerCount:
    def test_explicit_cap(self, monkeypatch):
        monkeypatch.setenv("MERGE_SURGEON_THREADS", "3")
        assert worker_count() == 3

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("MERGE_SURGEON_THREADS", "0")
        assert worker_count() >= 1

    def test_invalid_value(self, monkeypatch):
        monkeypatch.setenv("MERGE_SURGEON_THREADS", "many")
        with pytest.raises(ConfigError):
            worker_count()
