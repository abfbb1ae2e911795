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


def test_distractors_are_rejected_where_the_scenario_has_none():
    # make_scenario builds no distractor for these, so the log would lie
    for name in ("stt", "winding"):
        rejects({"scenarios": [{"name": name, "episodes": 1, "n_distractors": 3}]},
                "scenarios[0].n_distractors")
        config_from_dict({"scenarios": [{"name": name, "episodes": 1, "n_distractors": 0}]})


def test_scenario_names_must_be_unique():
    # logs are named <name>_<arm>_<episode>, so a second dt would overwrite the first
    rejects({"scenarios": [{"name": "stt", "episodes": 1},
                           {"name": "dt", "episodes": 2, "n_distractors": 1},
                           {"name": "dt", "episodes": 2, "n_distractors": 3}]},
            "scenarios[2].name")


def test_arms_must_be_unique():
    # a second full would run, and report, every full episode twice
    rejects({"arms": ["full", "full"]}, "arms[1]")
    rejects({"arms": ["no_cot", "full", "no_cot"]}, "arms[2]")


def test_count_invalid_in_mean_takes_only_a_json_boolean():
    for bad in ("false", 0, 1, None):
        rejects({"count_invalid_in_mean": bad}, "count_invalid_in_mean")
    assert config_from_dict({"count_invalid_in_mean": False}).count_invalid_in_mean is False
    assert config_from_dict({}).count_invalid_in_mean is True


def test_non_finite_perception_value_is_rejected(tmp_path):
    rejects({"perception": {"invalid_bias": math.nan}}, "perception.invalid_bias")
    # the JSON reader accepts the NaN literal; the config must not
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"perception": {"detect_score": math.inf}}))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "detect_score" in str(err.value)


GRID = {"r_min": 0.6, "r_max": 5.0, "n_angle": 60, "n_dist": 30}
WRONG_FIELDS = [
    ({"rig": {"views": [{"yaw": 0, "fov": 90, "bogus": 1}]}}, "rig.views[0].bogus"),
    ({"grid": {**GRID, "extra": 1}}, "grid.extra"),
    ({"grid": {**GRID, "n_angle": 60.9}}, "grid.n_angle"),
    ({"vis_rules": {"min_apparent_size": 0.075, "x": 1}}, "vis_rules.x"),
    ({"master_seed": 5.7}, "master_seed"),
    ({"jobs": True}, "jobs"),
    ({"rules": {"lost_patience": 50.5}}, "rules.lost_patience"),
    ({"rules": {"band": [1, 3, 5]}}, "rules.band"),
    ({"perception": {"angle_noise": True}}, "perception.angle_noise"),
    ({"limits": {"max_speed": True, "max_turn": 30.0}}, "limits.max_speed"),
    ({"scenarios": [{"name": "dt", "episodes": 1.9}]}, "scenarios[0].episodes"),
    ({"scenarios": [{"name": "dt", "episodes": 1, "n_distractors": 2.7}]},
     "scenarios[0].n_distractors"),
    ({"policy": {"standoff": "abc"}}, "policy.standoff"),
    ({"arms": "full"}, "arms"),
]
# values of the right JSON type that the setting's own check rejects
OUT_OF_RANGE = [
    ({"policy": {"standoff": 5.0}}, "policy.standoff"),
    ({"policy": {"invalid_mode": "wander"}}, "policy.invalid_mode"),
    ({"limits": {"max_speed": math.nan}}, "limits.max_speed"),
    ({"limits": {"max_turn": -1.0}}, "limits.max_turn"),
    ({"rig": {"views": [{"yaw": math.nan, "fov": 90}]}}, "rig.views[0].yaw"),
    ({"rules": {"lost_radius": -1}}, "rules.lost_radius"),
    ({"rules": {"orient_tol": math.nan}}, "rules.orient_tol"),
    ({"rules": {"track_dist": math.inf}}, "rules.track_dist"),
    ({"rules": {"band": [3, 1]}}, "rules.band"),
    ({"rules": {"band": [-1, 3]}}, "rules.band"),
    ({"rules": {"lost_patience": -5}}, "rules.lost_patience"),
    ({"vis_rules": {"min_apparent_size": math.nan}}, "vis_rules.min_apparent_size"),
    ({"vis_rules": {"min_apparent_size": -1}}, "vis_rules.min_apparent_size"),
    ({"grid": {"r_max": math.inf}}, "grid.r_max"),
    ({"grid": {"r_min": -1}}, "grid.r_min"),
    ({"grid": {"n_angle": 0}}, "grid.n_angle"),
    # an integer past a float's range failed in PolarGrid's 360 / n_angle with OverflowError
    ({"grid": {"n_dist": 10**400}}, "grid.n_dist"),
    ({"rig": {"views": [{"yaw": 0, "fov": 0}]}}, "rig.views[0].fov"),
    ({"rig": {"views": []}}, "rig.views"),
    ({"perception": {"angle_noise": -1}}, "perception.angle_noise"),
    ({"perception": {"sim_temperature": 0}}, "perception.sim_temperature"),
    ({"perception": {"base_detectability": 1.5}}, "perception.base_detectability"),
    ({"scenarios": [{"name": "maze"}]}, "scenarios[0].name"),
    ({"scenarios": [{"name": "dt", "sigma_app": -0.1}]}, "scenarios[0].sigma_app"),
    ({"scenarios": [{"name": "dt", "episodes": 0}]}, "scenarios[0].episodes"),
    ({"scenarios": []}, "scenarios"),
    ({"arms": []}, "arms"),
    ({"arms": ["fast"]}, "arms[0]"),
    # these loaded, then failed or ran wrongly at run time: an empty
    # episode cannot be scored, a zero-length feature makes every
    # similarity 0, and a seed must be a non-negative integer
    ({"scenarios": [{"name": "dt", "max_steps": 0}]}, "scenarios[0].max_steps"),
    ({"scenarios": [{"name": "dt", "max_steps": -3}]}, "scenarios[0].max_steps"),
    ({"scenarios": [{"name": "dt", "feature_dim": 0}]}, "scenarios[0].feature_dim"),
    ({"scenarios": [{"name": "dt", "feature_dim": -2}]}, "scenarios[0].feature_dim"),
    ({"master_seed": -1}, "master_seed"),
    # above the limits every scenario world enforces
    ({"limits": {"max_speed": 0.5}}, "limits.max_speed"),
    ({"limits": {"max_turn": 45.0}}, "limits.max_turn"),
]


@pytest.mark.parametrize("d, field", WRONG_FIELDS + OUT_OF_RANGE,
                         ids=[f for _, f in WRONG_FIELDS] + [f"{f}-range" for _, f in OUT_OF_RANGE])
def test_wrong_key_or_json_type_names_its_field(d, field):
    rejects(d, field)


def test_cli_reports_a_wrong_field_as_config_error(tmp_path, capsys):
    from polartrack.cli import EXIT_CONFIG, main

    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"grid": {**GRID, "n_angle": 60.9}}))
    assert main(["bench", "run", "--config", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "'grid.n_angle'" in err


def test_partial_block_keeps_the_other_defaults():
    from polartrack.polar import PolarGrid

    assert config_from_dict({"grid": {"r_min": 0.8}}).grid == PolarGrid(r_min=0.8)
    # an int stands in for a float and is stored as one
    assert repr(config_from_dict({"grid": {"r_max": 5}}).grid.r_max) == "5.0"


def test_zero_limits_and_the_world_limits_load():
    # -0.0 and zero stay legal: an agent that may not move or turn
    for limits in ({"max_speed": 0.0, "max_turn": -0.0}, {"max_speed": 0.25, "max_turn": 30.0}):
        assert config_from_dict({"limits": limits}).limits.max_speed == limits["max_speed"]


def test_limits_above_the_worlds_exit_as_config_error(tmp_path, capsys):
    from polartrack.cli import EXIT_CONFIG, main

    p = tmp_path / "fast.json"
    p.write_text(json.dumps({"limits": {"max_speed": 0.5}}))
    assert main(["bench", "run", "--config", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "'limits.max_speed'" in err


@pytest.mark.parametrize("d, field", [
    ({"scenarios": [{"name": "dt", "max_steps": 0}]}, "scenarios[0].max_steps"),
    ({"scenarios": [{"name": "dt", "feature_dim": -2}]}, "scenarios[0].feature_dim"),
    ({"master_seed": -1}, "master_seed"),
    # an OverflowError in PolarGrid's derived constants, which exited 2
    ({"grid": {"n_angle": 10**400}}, "grid.n_angle"),
    ({"grid": {"n_dist": 10**400}}, "grid.n_dist"),
], ids=["max_steps", "feature_dim", "master_seed", "n_angle_past_floats", "n_dist_past_floats"])
def test_settings_that_failed_at_run_time_exit_as_config_errors(tmp_path, capsys, d, field):
    from polartrack.cli import EXIT_CONFIG, main

    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert main(["bench", "run", "--config", str(p)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and f"'{field}'" in err


def test_a_config_file_must_hold_an_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text(json.dumps([{"master_seed": 1}]))
    with pytest.raises(ConfigError, match="must hold a JSON object"):
        load_config(p)
