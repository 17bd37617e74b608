"""Ablation and sweep runners: row structure, determinism, degenerate grids."""

import json

import numpy as np
import pytest

from cfalign.config import RunConfig
from cfalign.data import SynthSpec, generate_dataset
from cfalign.errors import ConfigError
from cfalign.experiments import (
    ABLATION_VARIANTS,
    results_table,
    results_to_json,
    run_ablation,
    run_single,
    run_sweep,
    save_results,
)


@pytest.fixture(scope="module")
def tiny_data():
    spec = SynthSpec(height=12, width=12, train_images=24, eval_images=6, regions=4, seed=6)
    return generate_dataset(spec)


@pytest.fixture(scope="module")
def base_config():
    return RunConfig(seed=6, iterations=15, hidden_dim=12, feature_dim=8)


class TestAblation:
    def test_four_rows_with_expected_toggles(self, tiny_data, base_config):
        results = run_ablation(base_config, tiny_data)
        assert [r.name for r in results] == ["ent", "ent+st", "ent+contra", "full"]
        toggles = [(r.config.entropy, r.config.style_transfer, r.config.contrastive) for r in results]
        assert toggles == [
            (True, False, False),
            (True, True, False),
            (True, False, True),
            (True, True, True),
        ]

    def test_shared_seed(self, tiny_data, base_config):
        results = run_ablation(base_config, tiny_data)
        assert all(r.config.seed == base_config.seed for r in results)

    def test_deterministic(self, tiny_data, base_config):
        a = run_ablation(base_config, tiny_data)
        b = run_ablation(base_config, tiny_data)
        assert [r.miou for r in a] == [r.miou for r in b]
        assert [r.record.per_class_iou for r in a] == [r.record.per_class_iou for r in b]

    def test_variant_table_is_stable(self):
        # the toggle patterns are part of the external contract
        assert len(ABLATION_VARIANTS) == 4
        for _, toggles in ABLATION_VARIANTS:
            assert toggles["entropy"] is True


class TestSensitivity:
    def test_singleton_grid_equals_plain_run(self, tiny_data, base_config):
        results = run_sweep(base_config, tiny_data, "tau", [0.05])
        assert len(results) == 1
        plain = run_single(base_config.replace(tau=0.05), tiny_data)
        assert results[0].miou == plain.miou
        assert results[0].record.per_class_iou == plain.record.per_class_iou

    def test_one_run_per_value(self, tiny_data, base_config):
        results = run_sweep(base_config, tiny_data, "lambda_contra", [0.1, 0.001])
        assert [r.name for r in results] == ["lambda_contra=0.1", "lambda_contra=0.001"]
        assert [r.config.lambda_contra for r in results] == [0.1, 0.001]
        assert all(r.config.replace(lambda_contra=base_config.lambda_contra) == base_config for r in results)

    def test_unknown_parameter(self, tiny_data, base_config):
        with pytest.raises(ConfigError):
            run_sweep(base_config, tiny_data, "not_a_field", [1])

    def test_invalid_value_propagates_config_error(self, tiny_data, base_config):
        with pytest.raises(ConfigError):
            run_sweep(base_config, tiny_data, "tau", [-1.0])


class TestReporting:
    def test_table_lists_all_rows(self, tiny_data, base_config):
        results = run_ablation(base_config.replace(iterations=5), tiny_data)
        table = results_table(results)
        lines = table.strip().split("\n")
        assert len(lines) == 6  # header, rule, four rows
        for r in results:
            assert r.name in table

    def test_json_round_trips(self, tiny_data, base_config):
        results = run_ablation(base_config.replace(iterations=5), tiny_data)
        doc = json.loads(results_to_json(results))
        assert len(doc) == 4
        assert doc[0]["name"] == "ent"
        assert all(0.0 <= row["miou"] <= 1.0 for row in doc)

    def test_save_results_writes_both_files(self, tiny_data, base_config, tmp_path):
        results = run_ablation(base_config.replace(iterations=3), tiny_data)
        save_results(results, tmp_path / "out")
        assert (tmp_path / "out" / "results.json").exists()
        assert (tmp_path / "out" / "table.txt").exists()
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        assert [row["name"] for row in doc] == ["ent", "ent+st", "ent+contra", "full"]
