"""Golden bytes: sha256 digests of a small fixed set of outputs.

Every log of a `bench run --out` over the four scenarios x three arms
(one 120-step episode each), its `report.json` and `report.txt`, every
log of a `generate_dataset(..., randomize_rig=True)` run and the stdout of
`eval losses` over that dataset; and the same bench run again with
``STOP_SETTINGS`` (``GOLDEN_STOP``), so the non-default policy branches
are pinned too. A change meant to leave the program's
output alone (a speed-up, a refactor) must leave every digest as it is.

A change that alters bytes on purpose updates the digests in ``GOLDEN``
(run this file's ``print_digests``) and says in CHANGES.md which outputs
changed and why. The digests hold for the platform they were taken on
(x86-64 Linux, glibc's libm, Python 3.11, numpy 2.4): another libm may
round a transcendental function differently.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from polartrack import cli
from polartrack.episodes import generate_dataset
from polartrack.scenarios import SCENARIO_NAMES, ScenarioSpec

STEPS = 120

GOLDEN = {
    'bench/dt_full_0000.jsonl': 'fcf2dea397d5b47b94b001dc1aea291da713ee6902ff9e4be4269783018e9291',
    'bench/dt_no_cot_0000.jsonl': '47200cac396efef4004a93bcb66685a47e68a7d72606ecdf40182c6d75d1bce3',
    'bench/dt_no_tim_0000.jsonl': '2e2907a4457f6949b84d4574eb71debbd7cd39a21f0f3e19eb16d3375fa839e3',
    'bench/obstacle_full_0000.jsonl': 'e4cbfd08f80580ced3847022fbe7c3149f3bc8476faa583f944414a978c0b87c',
    'bench/obstacle_no_cot_0000.jsonl': '2772aa65a4e0d2e42663445dc5621d6f9d186bc34642ba421df005abd5c40324',
    'bench/obstacle_no_tim_0000.jsonl': '426d01b584b8db3073d6cd8fd3159730ccfd88e1f3dd18fcd3ca97f01001a493',
    'bench/report.json': '02531a8286eb798d2ab5b6f8c07d3221f63e878af68fc1eb40859dc0beaf12c2',
    'bench/report.txt': '09150cf7f34caa58dcc3254cdbd75f9baef6e4bed0d57f49b3655ce3e6808a93',
    'bench/stt_full_0000.jsonl': '25d922792757857082090ef461c74893c8988ff771a2b8ca661bddd5fcfa44d0',
    'bench/stt_no_cot_0000.jsonl': '24c9e6eccd45fb2c07aca06022fe3a3f48b54dd67ac099f417e8dbca169da6a7',
    'bench/stt_no_tim_0000.jsonl': '67bd7397e6b201ada94097e432f7071fea6cf4d99ca08c15e4eda1d229b24ead',
    'bench/winding_full_0000.jsonl': '0498df39ec71853c370ed1dbf8c2a52fc08aadb4a27da3eeab7adab30d47d365',
    'bench/winding_no_cot_0000.jsonl': 'e44ea7888f634c2f7ea3c569b3a44f787a73722f059b1800ce189920b35ca9c1',
    'bench/winding_no_tim_0000.jsonl': 'fb4f41be604fbcc7bf74a5be923be8a6ceeb144a09272e7d4c139701ecd526d4',
    'data/dt_0000.jsonl': 'ad70ebea8db01f3969aeb1d8d48f592c9f79189a116b920c6acfe127452d81bd',
    'data/obstacle_0000.jsonl': '6d843c307995da02778f39dc9f1ee9a491ec99bf43f484e38cbe39e1fb9a80ed',
    'data/winding_0000.jsonl': '896945ff9aebb48455c6de9410ce5d55d897ba14133918922f0720c8ceab812e',
    'eval losses stdout': '77217a26d45ff3b6c7d8cd250db54ede3303c6a66812aa28a833da0ce5ef5c04',
}

# the same bench run under the non-default policy: an invalid token stops
# the agent, it follows at 1.5 m, and invalid steps stay out of the mean
STOP_SETTINGS = {
    "policy": {"invalid_mode": "stop", "standoff": 1.5},
    "count_invalid_in_mean": False,
}

GOLDEN_STOP = {
    'dt_full_0000.jsonl': '3e8acdad72ac01876230050d21e620d9a8a10059270ba61451d0db1132447994',
    'dt_no_cot_0000.jsonl': 'ebe2f4b6252ce5a3907d064dd78ff7a2ec57fb8598b949c67d710ab060366c36',
    'dt_no_tim_0000.jsonl': '078fb53656f273ad84dec61ae072c339b0424f1a2a10505d6ec75af86ef267da',
    'obstacle_full_0000.jsonl': '5836a699a93fd329d10fb7740738a0f2c2a111221e3945bdcc8f6a80f0fe72c5',
    'obstacle_no_cot_0000.jsonl': '218c7eb664849b16e478233144077234544db014b0d837851e3d7ec9147540d2',
    'obstacle_no_tim_0000.jsonl': 'cbac5bd15ac7bed81374730672d694ef8dc275591ee9548c60ee183eee6716c1',
    'report.json': '8f7f709a24e150cd90ffcf0fbec3e28d72136132ada531acf87405d5dd441213',
    'report.txt': '8bf01b989c6d164351a7ae1800a6474b455b0f285dc329c9b383089355cee895',
    'stt_full_0000.jsonl': '5ed994bb688dbef49b82fac17d0de6fedc1b94e600702814e00606ba3e26bec1',
    'stt_no_cot_0000.jsonl': '07ff6d9cdc1d3eaa599ebc2133cd2cf5fb3392cdfa9e6b72c2e1e97961a07de3',
    'stt_no_tim_0000.jsonl': '78d012484ee0fec6a8475e0f2bdec9087d773d59b081da0597c4e83539f966d7',
    'winding_full_0000.jsonl': 'bd1fdb76a319135f837ce7d02ca116075f522ff0d609103b5e5756be32235a25',
    'winding_no_cot_0000.jsonl': 'ac1292afe0c0c2675551a800d29f070ee1f8a927faeb3b4a44d983f2fdfc0545',
    'winding_no_tim_0000.jsonl': 'd89cfc444cf964786a05861d21b5104a3be6cdd8916dc4392857c1797148bada',
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    return out.getvalue()


def bench(tmp: Path, **settings) -> None:
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "master_seed": 7,
        "arms": ["full", "no_tim", "no_cot"],
        "scenarios": [{"name": n, "episodes": 1, "max_steps": STEPS} for n in SCENARIO_NAMES],
        **settings,
    }))
    run(["bench", "run", "--config", str(cfg), "--jobs", "1", "--out", str(tmp / "bench")])


def digests(tmp: Path) -> dict:
    bench(tmp)
    generate_dataset([ScenarioSpec(n, max_steps=STEPS) for n in ("obstacle", "dt", "winding")],
                     n_episodes=1, seed=5, out_dir=tmp / "data", randomize_rig=True)
    losses = run(["eval", "losses", str(tmp / "data")])
    out = {f"{p.parent.name}/{p.name}": sha(p.read_bytes())
           for d in ("bench", "data") for p in sorted((tmp / d).iterdir())}
    out["eval losses stdout"] = sha(losses.encode())
    return out


def stop_digests(tmp: Path) -> dict:
    bench(tmp, **STOP_SETTINGS)
    return {p.name: sha(p.read_bytes()) for p in sorted((tmp / "bench").iterdir())}


def test_outputs_match_the_golden_digests(tmp_path):
    assert digests(tmp_path) == GOLDEN


def test_stop_mode_outputs_match_the_golden_digests(tmp_path):
    assert stop_digests(tmp_path) == GOLDEN_STOP


def print_digests():
    """Print fresh ``GOLDEN`` and ``GOLDEN_STOP`` tables (run from the
    repository root with
    ``PYTHONPATH=src:tests python -c 'import test_golden as g; g.print_digests()'``)."""
    import tempfile

    for name, table in (("GOLDEN", digests), ("GOLDEN_STOP", stop_digests)):
        print(f"{name} = {{")
        with tempfile.TemporaryDirectory() as d:
            for key, digest in table(Path(d)).items():
                print(f"    {key!r}: {digest!r},")
        print("}")
