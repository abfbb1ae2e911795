import json
import math

import pytest

from polartrack.config import ConfigError, config_from_dict, load_config


def rejects(d: dict, field: str) -> None:
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert f"'{field}'" in str(err.value)


def test_unknown_top_level_key_is_rejected():
    rejects({"master_sed": 5}, "master_sed")


def test_unknown_policy_key_is_rejected():
    rejects({"policy": {"standof": 2.5}}, "policy.standof")


def test_unknown_limits_key_is_rejected():
    rejects({"limits": {"max_speed": 0.25, "max_turn": 30.0, "max_acc": 1.0}}, "limits.max_acc")


def test_unknown_scenario_key_is_rejected():
    rejects({"scenarios": [{"name": "dt", "episodes": 1, "n_distractor": 2}]},
            "scenarios[0].n_distractor")


def test_count_invalid_in_mean_takes_only_a_json_boolean():
    for bad in ("false", 0, 1, None):
        rejects({"count_invalid_in_mean": bad}, "count_invalid_in_mean")
    assert config_from_dict({"count_invalid_in_mean": False}).count_invalid_in_mean is False
    assert config_from_dict({}).count_invalid_in_mean is True


def test_non_finite_perception_value_is_rejected(tmp_path):
    rejects({"perception": {"invalid_bias": math.nan}}, "perception")
    # the JSON reader accepts the NaN literal; the config must not
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"perception": {"detect_score": math.inf}}))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "detect_score" in str(err.value)
