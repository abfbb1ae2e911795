"""The command-line round trip: a tiny recorded bench run (again on one
job, to the same bytes), a tiny dataset and a randomized-rig one (rigs of
1 to 4 views) with their losses evaluated, and a noisy episode logging
its top-8 logits into a directory it must make; every log is replayed.
A config with one field out of its domain (an integer past a float's
range) must exit 1 naming that field, through the ``polartrack`` entry
point in a subprocess.

Every other command is a ``cli.main`` call in this process."""

import json
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import polartrack
from polartrack.cli import EXIT_CONFIG, EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = {"scenarios": [{"name": "obstacle", "episodes": 2, "max_steps": 120},
                        {"name": "dt", "episodes": 2, "max_steps": 120}]}
DATASET = ["--scenario", "obstacle", "--scenario", "dt", "--episodes", "2"]


def entry_point() -> list[str]:
    """The installed ``polartrack`` script, or, where the package is not
    installed, the interpreter running the function the script wraps
    (``[project.scripts]`` in pyproject.toml) as the script does."""
    script = shutil.which("polartrack")
    if script is not None:
        return [script]
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, func = target["polartrack"].split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


def files(directory: Path) -> dict:
    """Every file under a directory, by relative path, as bytes."""
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def replays(capsys, directory: Path, n_logs: int) -> None:
    capsys.readouterr()
    assert main(["replay", "verify", str(directory)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{n_logs} of {n_logs} logs replay byte for byte")


@pytest.fixture
def config(tmp_path) -> Path:
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_an_oversized_field_exits_1_naming_it(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"n_angle": 10**400}}))
    # the child imports the package this process imported, installed or not
    here = str(Path(polartrack.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([*entry_point(), "bench", "run", "--config", str(bad)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_CONFIG == 1, done.stderr
    assert "'grid.n_angle'" in done.stderr


def test_a_recorded_bench_run_is_the_same_bytes_on_two_jobs_and_one(tmp_path, config, capsys):
    two, one = tmp_path / "roundtrip", tmp_path / "roundtrip1"
    for jobs, out in (("2", two), ("1", one)):
        assert main(["bench", "run", "--config", str(config), "--jobs", jobs,
                     "--out", str(out)]) == EXIT_OK
    written = files(two)
    assert written == files(one)
    assert len([p for p in written if p.suffix == ".jsonl"]) == 12  # 2 scenarios x 3 arms x 2
    replays(capsys, two, 12)
    replays(capsys, one, 12)


@pytest.mark.parametrize("rig", [[], ["--randomize-rig"]], ids=["default-rig", "random-rigs"])
def test_a_dataset_passes_eval_losses_and_replays(tmp_path, config, capsys, rig):
    out = tmp_path / "dataset"
    assert main(["dataset", "gen", "--config", str(config), *DATASET, *rig,
                 "--out", str(out)]) == EXIT_OK
    assert main(["eval", "losses", str(out)]) == EXIT_OK
    replays(capsys, out, 4)  # 2 scenarios x 2 episodes


def test_a_top8_episode_makes_its_out_directory(tmp_path, capsys):
    out = tmp_path / "topk"
    assert not out.exists()
    assert main(["episode", "run", "--scenario", "dt", "--seed", "3", "--log-topk", "8",
                 "--out", str(out / "dt.jsonl")]) == EXIT_OK
    assert [p.name for p in out.iterdir()] == ["dt.jsonl"]
    replays(capsys, out, 1)
