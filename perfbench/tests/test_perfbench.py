"""Quick tests of the benchmark: every workload at its smallest size, the
result format against BENCHMARK.json, and each correctness check against a
deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mcident import corpus as cp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_at_tiny_size(capsys, workload):
    result = run_tiny(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    result = run_tiny(capsys, "cli-roundtrip", 1)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.main.busy_s"] > values["cli.main.self_s"] > 0
    assert values["fileio.trajectory_bytes"] > 0
    assert values["sampling.simulate.steps"] == 20_000


def test_spec_matches_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_failed_cli_call_counts_as_failed_not_wrong(monkeypatch):
    roundtrip = workloads.CliRoundtrip(tiny=True)
    roundtrip.setup(0)
    real_main = workloads.cli.main
    monkeypatch.setattr(workloads.cli, "main",
                        lambda argv: 2 if argv[0] == "test" else real_main(argv))
    try:
        rnd = roundtrip.run_round(0, workloads.Stopwatch())
    finally:
        roundtrip.finish()
    assert (rnd.attempted, rnd.failed, rnd.problems) == (3, 2, [])


def test_other_trajectory_in_a_later_round_is_caught(monkeypatch):
    roundtrip = workloads.CliRoundtrip(tiny=True)
    roundtrip.setup(0)
    real_main = workloads.cli.main

    def other_seed(argv):
        if argv[0] == "simulate":
            argv = list(argv)
            argv[argv.index("--seed") + 1] = "12345"
        return real_main(argv)

    try:
        assert roundtrip.run_round(0, workloads.Stopwatch()).problems == []
        monkeypatch.setattr(workloads.cli, "main", other_seed)
        assert roundtrip.run_round(1, workloads.Stopwatch()).problems
    finally:
        roundtrip.finish()


def test_operation_times_are_scaled_by_their_reference_then_medians():
    ref = run.REFERENCE_S
    rounds = [workloads.Round() for _ in range(3)]
    rounds[0].timed("a", 2.0, ref)
    rounds[0].timed("b", 1.0, ref)
    rounds[1].timed("a", 4.0, 2 * ref)  # calls on a host twice as slow
    rounds[1].timed("b", 2.0, 2 * ref)
    rounds[2].timed("a", 9.0, ref)  # slowed down while the reference was not
    rounds[2].timed("b", 0.5, ref / 2)
    assert run.scaled_medians(rounds) == pytest.approx({"a": 2.0, "b": 1.0})


def test_self_time_subtracts_children():
    spans = [["outer", 0.0, 10.0, -1, None], ["a", 1.0, 3.0, 0, None],
             ["b", 2.0, 4.0, 0, None], ["c", 2.5, 3.5, 1, None]]
    assert tracing.self_times(spans) == pytest.approx([7.0, 1.0, 2.0, 1.0])


# Each check fires on a corrupted output.

@pytest.fixture(scope="module")
def chain():
    return cp.random_reversible(5, np.random.default_rng(3)).entries


def test_partition_that_drops_a_state(chain):
    assert checks.partition(chain, 0.1, [(0, 1, 2, 3, 4)], ()) == []
    assert checks.partition(chain, 0.1, [(0, 1, 2, 3)], ())


def test_partition_with_a_leaky_state(chain):
    assert checks.partition(chain, 0.1, [(0, 1), (2, 3, 4)], ())


def test_planted_blocks_not_recovered():
    ladder = workloads.PartitionLadder(tiny=True)
    ladder.setup(0)
    i = [name for name, _ in ladder.instances].index("planted_two_block")
    P = ladder.instances[i][1]

    class Part:
        components = ((0, 1, 2, 3, 4, 5, 6, 7),)
        tail = ()
        certificates = {"certified": True, "components": []}

    assert any("planted" in p for p in ladder.check(i, P.entries, 0.1, Part()))


def test_lp_bound_off(chain):
    S = (0, 1, 2, 3, 4)
    objective = checks.cut_lp_objective(chain, S)
    assert checks.lp_bound(chain, S, objective / 2.0, objective) == []
    assert checks.lp_bound(chain, S, objective / 2.0 * (1 + 1e-5), objective)


def test_distance_off_by_1e_3():
    rng = np.random.default_rng(4)
    P, Pbar = cp.random_irreducible(5, rng).entries, cp.random_irreducible(5, rng).entries
    exact = checks.distance(P, Pbar)
    assert checks.distance_value(P, Pbar, exact) == []
    assert checks.distance_value(P, Pbar, exact + 1e-3)


def test_truncated_trajectory_file(tmp_path):
    states = np.array([0, 1, 2, 1, 0])
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"d": 3, "states": [int(s) + 1 for s in states]}))
    assert checks.trajectory_file(path, states) == []
    path.write_text(json.dumps({"d": 3, "states": [int(s) + 1 for s in states[:-1]]}))
    assert checks.trajectory_file(path, states)
    path.write_text(path.read_text()[:-5])
    assert checks.trajectory_file(path, states)


def test_reports_that_differ():
    assert checks.same_bytes(b"{}", b"{}") == []
    assert checks.same_bytes(b'{"a": 1}', b'{"a": 2}')


def test_frequencies_off(chain):
    pi = checks.stationary(chain)
    tol = checks.frequency_tolerance(chain, 10_000)
    states = np.repeat(np.arange(5), np.round(pi * 10_000).astype(int))
    assert checks.frequencies(states, pi, tol) == []
    assert checks.frequencies(np.zeros(10_000, dtype=int), pi, tol)


def test_verdict_rates_below_three_fifths():
    assert checks.verdict_rates(accepts=3, matching=5, rejects=5, far=5) == []
    assert checks.verdict_rates(accepts=2, matching=5, rejects=5, far=5)
    assert checks.verdict_rates(accepts=5, matching=5, rejects=2, far=5)


def test_far_partner_that_is_not_far(chain):
    assert checks.far_pair(chain, chain, 0.3)
