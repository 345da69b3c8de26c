import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcident import chain_core as cc
from mcident import cli
from mcident import corpus as cp
from mcident import fileio as fio
from mcident import identity as idn
from mcident import partition as pt
from mcident import sampling as sp
from mcident.cli import main
from mcident.errors import ChainTestError

from conftest import write_samples


@pytest.fixture
def chain_file(tmp_path, rng):
    P = cp.random_reversible(4, rng)
    path = tmp_path / "P.json"
    fio.save_matrix(P, path)
    return P, path


# two 3-state blocks joined by 1e-5 per state: partitioned into both blocks
TWO_BLOCKS = {"d": 6, "rows": [
    [0.49999, 0.25, 0.25, 1e-05, 0.0, 0.0], [0.25, 0.49999, 0.25, 0.0, 1e-05, 0.0],
    [0.25, 0.25, 0.49999, 0.0, 0.0, 1e-05], [1e-05, 0.0, 0.0, 0.59999, 0.2, 0.2],
    [0.0, 1e-05, 0.0, 0.2, 0.59999, 0.2], [0.0, 0.0, 1e-05, 0.2, 0.2, 0.59999],
]}


def report_digest(path) -> str:
    """SHA-256 of a JSON report without its manifest, keys sorted."""
    doc = json.loads(Path(path).read_text())
    del doc["manifest"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def strict_json(path):
    """A report parsed as RFC 8259 JSON: Infinity, -Infinity and NaN are refused."""
    def refuse(word):
        raise ValueError(f"{word} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


INPUT_FLAGS = pytest.mark.parametrize("command, flag", [
    ("test", "--trajectory"), ("test", "--reference"), ("distance", "--a"),
    ("distance", "--b"), ("simulate", "--mu"), ("simulate", "--matrix"),
    ("iidtest", "--samples"), ("iidtest", "--pbar"), ("partition", "--matrix"),
])


def run_with_bad_input(chain_file, tmp_path, command, flag, make_bad):
    """Run command on valid input files, except that flag names a file holding
    make_bad(bytes of the valid file); returns (exit code, that file, the
    output path)."""
    P, path = chain_file
    traj, mu = tmp_path / "t.json", tmp_path / "mu.json"
    pbar, samples = tmp_path / "pbar.json", tmp_path / "s.json"
    fio.save_trajectory(sp.simulate(P, P.stationary, 2000, seed=0), traj)
    fio.save_probvector(P.stationary, mu)
    fio.save_probvector(cc.ProbVector(np.full(4, 0.25)), pbar)
    write_samples(samples, 4, np.arange(4000) % 4)
    out = tmp_path / "out.json"
    inputs, argv = {
        "test": ({"--reference": path, "--trajectory": traj},
                 ["test", "--eps", "0.3", "--seed", "1", "--report", str(out)]),
        "distance": ({"--a": path, "--b": path}, ["distance"]),
        "simulate": ({"--matrix": path, "--mu": mu},
                     ["simulate", "--steps", "10", "--seed", "1", "--out", str(out)]),
        "iidtest": ({"--pbar": pbar, "--samples": samples},
                    ["iidtest", "--eps", "0.2", "--delta", "0.1", "--report", str(out)]),
        "partition": ({"--matrix": path},
                      ["partition", "--beta", "0.1", "--seed", "1", "--out", str(out)]),
    }[command]
    bad = tmp_path / "bad.json"
    bad.write_bytes(make_bad(inputs[flag].read_bytes()))
    inputs[flag] = bad
    for name, file in inputs.items():
        argv += [name, str(file)]
    return main(argv), bad, out


class TestFileFormats:
    def test_matrix_round_trip(self, chain_file):
        P, path = chain_file
        back = fio.load_matrix(path)
        assert np.abs(back.entries - P.entries).max() < 1e-12

    def test_matrix_rejects_bad_rows(self, tmp_path):
        doc = {"d": 2, "rows": [[0.7, 0.2], [0.5, 0.5]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ChainTestError, match="rows must sum to 1"):
            fio.load_matrix(path)

    def test_matrix_renormalizes_print_rounding(self, tmp_path):
        doc = {"d": 2, "rows": [[0.333333333, 0.666666667], [0.5, 0.5]]}
        path = tmp_path / "rounded.json"
        path.write_text(json.dumps(doc))
        P = fio.load_matrix(path)
        assert P.entries.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_trajectory_round_trip_one_based(self, tmp_path, rng):
        traj = sp.Trajectory(d=3, states=np.array([0, 2, 1, 0]))
        path = tmp_path / "traj.json"
        fio.save_trajectory(traj, path)
        doc = json.loads(path.read_text())
        assert doc["states"] == [1, 3, 2, 1]
        back = fio.load_trajectory(path)
        assert back.states.tolist() == [0, 2, 1, 0]

    def test_probvector_round_trip(self, tmp_path):
        p = cc.ProbVector(np.array([0.25, 0.75]))
        path = tmp_path / "p.json"
        fio.save_probvector(p, path)
        assert np.allclose(fio.load_probvector(path).entries, p.entries)

    def test_samples_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        write_samples(path, 4, [0, 3, 1])
        d, samples = fio.load_samples(path)
        assert d == 4 and samples.dtype == np.int64 and samples.tolist() == [0, 3, 1]

    def test_integer_file_layout(self, tmp_path):
        traj_path = tmp_path / "traj.json"
        fio.save_trajectory(sp.Trajectory(d=3, states=np.array([0, 2])), traj_path)
        assert traj_path.read_text() == '{"d":3,"states":[1,3]}\n'

    @pytest.mark.parametrize("kind", ["matrix", "probvector", "trajectory", "samples"])
    def test_any_json_layout_loads(self, tmp_path, rng, kind):
        # files in the indented layout of earlier versions, or with any other
        # JSON whitespace, load to the same arrays as the compact file
        P = cp.random_reversible(4, rng)
        save, load = {
            "matrix": (lambda path: fio.save_matrix(P, path), fio.load_matrix),
            "probvector": (lambda path: fio.save_probvector(P.stationary, path),
                           fio.load_probvector),
            "trajectory": (lambda path: fio.save_trajectory(sp.simulate(P, P.stationary, 50, seed=1),
                                                            path), fio.load_trajectory),
            "samples": (lambda path: write_samples(path, 4, np.arange(50) % 4), fio.load_samples),
        }[kind]
        compact = tmp_path / "compact.json"
        save(compact)
        text = compact.read_text()
        assert "\n" not in text[:-1] and " " not in text
        doc = json.loads(text)
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        spaced = tmp_path / "spaced.json"
        spaced.write_text("\r\n " + text.replace(",", " ,\n\t").replace(":", " :  ") + "\n\n")

        def arrays(path):
            got = load(path)
            if kind == "samples":
                return got
            return got.d, got.states if kind == "trajectory" else got.entries

        want_d, want = arrays(compact)
        for path in (indented, spaced):
            d, got = arrays(path)
            assert d == want_d
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_round12(self):
        assert fio.round12(0.12345678901234567) == 0.123456789012
        assert fio.round12({"x": [1 / 3]}) == {"x": [0.333333333333]}
        assert fio.round12([np.inf, -np.inf, float("nan"), np.float32(2.5)]) == [None, None, None, 2.5]


class TestCli:
    def test_distance_of_chain_with_itself(self, chain_file, capsys):
        _, path = chain_file
        rc = main(["distance", "--a", str(path), "--b", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "0.0"

    def test_distance_of_reducible_pair(self, tmp_path, capsys):
        path = tmp_path / "eye.json"
        fio.save_matrix(cc.TransitionMatrix(np.eye(2)), path)
        rc = main(["distance", "--a", str(path), "--b", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "0.0"
        assert "stationary_ratio_distance" not in out

    def test_simulate_then_test_too_short(self, chain_file, tmp_path, capsys):
        _, path = chain_file
        traj_path = tmp_path / "traj.json"
        rc = main([
            "simulate", "--matrix", str(path), "--mu", "stationary",
            "--steps", "50", "--seed", "3", "--out", str(traj_path),
        ])
        assert rc == 0
        rep_path = tmp_path / "rep.json"
        rc = main([
            "test", "--reference", str(path), "--trajectory", str(traj_path),
            "--eps", "0.3", "--seed", "4", "--report", str(rep_path),
        ])
        assert rc == 1  # all-failed conversion rejects
        rep = json.loads(rep_path.read_text())
        assert rep["verdict"] == "Reject"
        assert rep["reason"] == "no_component_converted"
        assert rep["manifest"]["subcommand"] == "test"
        # each component read the 49 usable states of the 50
        assert [c["prefix_read"] for c in rep["per_component"]] == [49] * len(rep["per_component"])

    def test_top_state_through_simulate_and_test(self, tmp_path, capsys):
        # d = 256: the walk starts in state 255, written as 256; the test
        # reads it back as 255 (a wrapped + 1 would write 0, which exits 2)
        d = 256
        matrix, mu = tmp_path / "P.json", tmp_path / "mu.json"
        fio.save_matrix(cc.TransitionMatrix(np.full((d, d), 1.0 / d)), matrix)
        fio.save_probvector(cc.ProbVector(np.eye(d)[d - 1]), mu)
        traj_path, rep_path = tmp_path / "traj.json", tmp_path / "rep.json"
        assert main(["simulate", "--matrix", str(matrix), "--mu", str(mu), "--steps", "3000",
                     "--seed", "5", "--out", str(traj_path)]) == 0
        assert traj_path.read_text().startswith('{"d":256,"states":[256,')
        states = fio.load_trajectory(traj_path).states
        assert states.dtype == np.uint8 and states[0] == d - 1
        rc = main(["test", "--reference", str(matrix), "--trajectory", str(traj_path),
                   "--eps", "0.99", "--seed", "1", "--report", str(rep_path)])
        rep = json.loads(rep_path.read_text())
        assert rc == 1 and rep["reason"] == "no_component_converted"
        assert rep["trajectory_length"] == 3000

    @pytest.mark.parametrize("d, value", [(3, 4), (3, 259), (256, 257), (256, 512)])
    def test_out_of_range_state_exit_code(self, tmp_path, capsys, d, value):
        # d + 1 and d + 256 (d - 1 modulo 256) both exit 2 with the same line
        ref, traj = tmp_path / "P.json", tmp_path / "traj.json"
        fio.save_matrix(cc.TransitionMatrix(np.full((d, d), 1.0 / d)), ref)
        traj.write_text('{"d":%d,"states":[1,%d,2]}\n' % (d, value))
        rc = main(["test", "--reference", str(ref), "--trajectory", str(traj),
                   "--eps", "0.3", "--seed", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {traj}: states outside [1, {d}]\n"

    def test_last_state_out_of_range_exit_code(self, tmp_path, capsys):
        # every scan stops long before the last state, which only the pass
        # that checks the whole file reads: exit 2, and no report
        d = 4
        ref, traj, rep = tmp_path / "P.json", tmp_path / "traj.json", tmp_path / "rep.json"
        fio.save_matrix(cc.TransitionMatrix(np.full((d, d), 1.0 / d)), ref)
        states = np.random.default_rng(0).integers(0, d, 300_000)
        fio.save_trajectory(sp.Trajectory(d=d, states=states), traj)
        argv = ["test", "--reference", str(ref), "--trajectory", str(traj),
                "--eps", "0.3", "--seed", "1", "--report", str(rep)]
        assert main(argv) in (0, 1)
        report = json.loads(rep.read_text())
        assert report["reason"] == "tester"
        assert report["per_component"][0]["prefix_read"] < 100_000
        rep.unlink()
        text = traj.read_bytes()
        traj.write_bytes(text[: text.rindex(b",") + 1] + b"%d]}\n" % (d + 1))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {traj}: states outside [1, {d}]\n"
        assert not rep.exists()

    @pytest.mark.parametrize("lazify", ["assume", "emulate"])
    def test_streamed_report_matches_in_memory(self, tmp_path, monkeypatch, capsys, lazify):
        # the first component fails to convert, so the second one's scan
        # opens the file again; 4 KB blocks make every scan span several
        monkeypatch.setattr(fio, "_CHUNK_BYTES", 4096)
        matrix, traj = tmp_path / "P.json", tmp_path / "t.json"
        matrix.write_text(json.dumps(TWO_BLOCKS))
        assert main(["simulate", "--matrix", str(matrix), "--mu", "uniform", "--steps", "60000",
                     "--seed", "1", "--out", str(traj)]) == 0
        argv = ["test", "--reference", str(matrix), "--trajectory", str(traj), "--eps", "0.5",
                "--seed", "4", "--lazify", lazify, "--report"]
        streamed, loaded = tmp_path / "streamed.json", tmp_path / "loaded.json"
        rc = main(argv + [str(streamed)])
        first, second = json.loads(streamed.read_text())["per_component"]
        assert first["failed"] and not second["failed"]
        monkeypatch.setattr(cli, "stream_trajectory", fio.load_trajectory)
        assert main(argv + [str(loaded)]) == rc
        assert report_digest(streamed) == report_digest(loaded)

    def test_d_beyond_uint64_exit_code(self, tmp_path, capsys):
        ref, traj = tmp_path / "P.json", tmp_path / "traj.json"
        fio.save_matrix(cc.TransitionMatrix(np.full((2, 2), 0.5)), ref)
        traj.write_text('{"d":%d,"states":[1,2,1]}\n' % 2**64)
        rc = main(["test", "--reference", str(ref), "--trajectory", str(traj),
                   "--eps", "0.3", "--seed", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {traj}: d={2**64} must be >= 1 and < 2**64\n"

    @pytest.mark.parametrize("command, flag, content, message", [
        # every comparison with a NaN is False, so a NaN entry must fail the
        # file check itself, not a later check that cannot name the file
        ("distance", "--a", '{"d": 2, "rows": [[NaN, 0.5], [0.5, 0.5]]}',
         "rows must sum to 1 within 1e-08"),
        ("simulate", "--mu", '{"d": 4, "p": [NaN, 0.25, 0.25, 0.25]}',
         "p must sum to 1 within 1e-08"),
        ("test", "--trajectory", '{"d": 0, "states": [1]}', "d=0 must be >= 1 and < 2**64"),
        ("test", "--trajectory", '{"d": 4, "states": []}',
         "trajectory must contain at least one state"),
    ], ids=["nan-matrix", "nan-mu", "zero-d", "no-states"])
    def test_load_refusals_name_the_file(self, chain_file, tmp_path, capsys, command, flag,
                                         content, message):
        rc, bad, out = run_with_bad_input(chain_file, tmp_path, command, flag,
                                          lambda good: content.encode())
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, eps", [
        ("test", "1e-100"), ("test", "1e-200"), ("iidtest", "1e-200"),
    ])
    def test_tiny_eps_exit_code(self, chain_file, tmp_path, capsys, monkeypatch, command, eps):
        # eps**4 in trajectory_budget (the report's budget_hint) or eps * eps in
        # iid_sample_size underflows to 0: the size is no finite number.
        # identity_test refuses such an eps before it partitions the reference.
        def partition_states(*args, **kwargs):
            raise AssertionError("partition_states called")

        monkeypatch.setattr(idn, "partition_states", partition_states)
        P, path = chain_file
        traj, out = tmp_path / "t.json", tmp_path / "out.json"
        fio.save_trajectory(sp.simulate(P, P.stationary, 2000, seed=0), traj)
        fio.save_probvector(cc.ProbVector(np.full(4, 0.25)), tmp_path / "pbar.json")
        write_samples(tmp_path / "s.json", 4, np.arange(4000) % 4)
        argv = {
            "test": ["test", "--reference", str(path), "--trajectory", str(traj), "--seed", "1"],
            "iidtest": ["iidtest", "--pbar", str(tmp_path / "pbar.json"),
                        "--samples", str(tmp_path / "s.json"), "--delta", "0.1"],
        }[command]
        assert main(argv + ["--eps", eps, "--report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " is not finite " in err and err.count("\n") == 1
        assert not out.exists()

    def test_partition_report(self, tmp_path, rng, capsys):
        P = cp.hub_and_leaves(2, 2, rng)
        mpath = tmp_path / "hub.json"
        fio.save_matrix(P, mpath)
        out = tmp_path / "part.json"
        rc = main([
            "partition", "--matrix", str(mpath), "--beta", "0.1",
            "--seed", "2", "--certify", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["certificates"]["certified"]
        assert doc["tail"] == [5, 6]  # one-based leaf states

    def test_iidtest_subcommand(self, tmp_path, rng, capsys):
        pv = np.array([0.4, 0.3, 0.2, 0.1])
        fio.save_probvector(cc.ProbVector(pv), tmp_path / "pbar.json")
        samples = rng.choice(4, size=4000, p=pv)
        write_samples(tmp_path / "s.json", 4, samples)
        rep = tmp_path / "iid.json"
        rc = main([
            "iidtest", "--pbar", str(tmp_path / "pbar.json"),
            "--samples", str(tmp_path / "s.json"),
            "--eps", "0.2", "--delta", "0.1", "--report", str(rep),
        ])
        assert rc == 0
        assert json.loads(rep.read_text())["decision"] == 0

    def test_iidtest_impossible_code_report_is_strict_json(self, tmp_path, capsys):
        # a sample of a zero-probability code makes the statistic inf, which
        # the report writes as null
        fio.save_probvector(cc.ProbVector([0.0, 0.2, 0.3, 0.5]), tmp_path / "pbar.json")
        write_samples(tmp_path / "s.json", 4, np.arange(4000) % 4)
        rep = tmp_path / "iid.json"
        rc = main(["iidtest", "--pbar", str(tmp_path / "pbar.json"), "--samples",
                   str(tmp_path / "s.json"), "--eps", "0.2", "--delta", "0.1", "--report", str(rep)])
        doc = strict_json(rep)
        assert rc == 0 and doc["statistic"] is None and doc["decision"] == 1

    def test_test_impossible_code_report_is_strict_json(self, tmp_path, capsys):
        # the uniform chain steps between states that the birth-death
        # reference never joins
        ref, traj, rep = tmp_path / "ref.json", tmp_path / "t.json", tmp_path / "rep.json"
        fio.save_matrix(cp.birth_death(4, np.random.default_rng(0)), ref)
        fio.save_trajectory(sp.simulate(np.full((4, 4), 0.25), np.full(4, 0.25), 300_000, 0), traj)
        rc = main(["test", "--reference", str(ref), "--trajectory", str(traj),
                   "--eps", "0.3", "--seed", "1", "--report", str(rep)])
        doc = strict_json(rep)
        assert rc == 1 and doc["verdict"] == "Reject" and doc["reason"] == "tester"
        assert [(c["statistic"], c["decision"]) for c in doc["per_component"]] == [(None, 1)]

    def test_failed_certification_exit_code(self, tmp_path, rng, monkeypatch, capsys):
        # a cut ratio of 0 fails the brute-force check of every component
        monkeypatch.setattr(pt, "min_internal_cut_ratio", lambda P, S: 0.0)
        mpath, out = tmp_path / "hub.json", tmp_path / "part.json"
        fio.save_matrix(cp.hub_and_leaves(2, 2, rng), mpath)
        rc = main(["partition", "--matrix", str(mpath), "--beta", "0.1",
                   "--seed", "2", "--certify", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("certification failed: ") and err.count("\n") == 1
        assert not out.exists()

    def test_iidtest_alphabet_mismatch_exit_code(self, tmp_path, capsys):
        pbar, samples = tmp_path / "pbar.json", tmp_path / "s.json"
        fio.save_probvector(cc.ProbVector(np.full(5, 0.2)), pbar)
        write_samples(samples, 4, np.arange(4000) % 4)
        rc = main(["iidtest", "--pbar", str(pbar), "--samples", str(samples),
                   "--eps", "0.2", "--delta", "0.1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {samples}: samples alphabet 4 != reference alphabet 5 of {pbar}\n"
        )

    @pytest.mark.parametrize("command", ["distance", "test", "simulate"])
    def test_state_count_mismatch_exit_code(self, tmp_path, capsys, command):
        # a 5-state second input against a 4-state chain: one line naming both files
        four, other = tmp_path / "P4.json", tmp_path / "other.json"
        fio.save_matrix(cc.TransitionMatrix(np.full((4, 4), 0.25)), four)
        argv, want = {
            "distance": (["distance", "--a", str(four), "--b", str(other)],
                         f"{other}: 5 states != 4 states of {four}"),
            "test": (["test", "--reference", str(four), "--trajectory", str(other),
                      "--eps", "0.3", "--seed", "1"],
                     f"{other}: trajectory alphabet 5 != 4 states of {four}"),
            "simulate": (["simulate", "--matrix", str(four), "--mu", str(other), "--steps", "10",
                          "--seed", "1", "--out", str(tmp_path / "t.json")],
                         f"{other}: initial law of length 5 != 4 states of {four}"),
        }[command]
        if command == "distance":
            fio.save_matrix(cc.TransitionMatrix(np.full((5, 5), 0.2)), other)
        elif command == "test":
            fio.save_trajectory(sp.Trajectory(d=5, states=np.arange(50) % 5), other)
        else:
            fio.save_probvector(cc.ProbVector(np.full(5, 0.2)), other)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_failed_lp_solve_exit_code(self, tmp_path, monkeypatch, capsys):
        # at beta 0.02 the Fiedler sweep misses and one cut LP runs; HiGHS
        # reporting it infeasible is a defect (exit 4), not an input error
        import scipy.optimize

        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs:
                            scipy.optimize.OptimizeResult(status=2, message="forced"))
        mpath, out = tmp_path / "hub.json", tmp_path / "part.json"
        fio.save_matrix(cp.hub_and_leaves(2, 2, np.random.default_rng(0)), mpath)
        rc = main(["partition", "--matrix", str(mpath), "--beta", "0.02",
                   "--seed", "1", "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: LP infeasible: forced\n"
        assert not out.exists()

    def test_props_reports_reproducible(self, tmp_path, capsys):
        out = tmp_path / "props.json"
        rc = main(["props", "--seed", "7", "--pairs", "10", "--out", str(out)])
        assert rc == 0
        first = out.read_text()
        rc = main(["props", "--seed", "7", "--pairs", "10", "--out", str(out)])
        assert out.read_text() == first

    @pytest.mark.parametrize("argv", [
        ["--config", "x.json", "props", "--seed", "1", "--pairs", "2"], ["--constants"],
    ], ids=["config", "constants"])
    def test_removed_constant_flags_are_usage_errors(self, capsys, argv):
        # the constants are module constants; no flag or file overrides them
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: mcident" in capsys.readouterr().err

    def test_removed_iidtest_seed_is_usage_error(self, tmp_path, capsys):
        # the iid tester draws nothing, so iidtest takes no seed
        fio.save_probvector(cc.ProbVector(np.full(4, 0.25)), tmp_path / "pbar.json")
        write_samples(tmp_path / "s.json", 4, np.arange(4000) % 4)
        with pytest.raises(SystemExit) as exc:
            main(["iidtest", "--pbar", str(tmp_path / "pbar.json"), "--samples",
                  str(tmp_path / "s.json"), "--eps", "0.2", "--delta", "0.1", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("c_iid, rc, reason", [
        (1e6, 1, "no_component_converted"),
        (1e300, 1, "no_component_converted"),
        (1e307, 2, None),
    ])
    def test_huge_c_iid(self, chain_file, tmp_path, monkeypatch, capsys, c_iid, rc, reason):
        # a sample size no 2000-step trajectory can serve rejects with nothing
        # drawn; one that is not even finite is a usage error
        size = idn.iid_sample_size
        monkeypatch.setattr(idn, "iid_sample_size", lambda *args: size(*args, c_iid=c_iid))
        P, path = chain_file
        traj, rep = tmp_path / "t.json", tmp_path / "rep.json"
        fio.save_trajectory(sp.simulate(P, P.stationary, 2000, seed=0), traj)
        assert main(["test", "--reference", str(path), "--trajectory", str(traj),
                     "--eps", "0.3", "--seed", "1", "--report", str(rep)]) == rc
        err = capsys.readouterr().err
        if reason is None:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and json.loads(rep.read_text())["reason"] == reason

    def test_non_object_matrix_exit_code(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([[0.5, 0.5], [0.5, 0.5]]))
        assert main(["distance", "--a", str(path), "--b", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        {"d": 2, "rows": [["a", 0.5], [0.5, 0.5]]},
        {"d": "x", "rows": [[0.5, 0.5], [0.5, 0.5]]},
    ])
    def test_non_numeric_matrix_exit_code(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["distance", "--a", str(path), "--b", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_fractional_trajectory_exit_code(self, tmp_path, capsys):
        ref = tmp_path / "P.json"
        fio.save_matrix(cc.TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])), ref)
        traj = tmp_path / "traj.json"
        traj.write_text(json.dumps({"d": 2, "states": [1, 2.7, 1]}))
        rc = main(["test", "--reference", str(ref), "--trajectory", str(traj),
                   "--eps", "0.3", "--seed", "1"])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_one_state_reference_exit_code(self, tmp_path, capsys):
        ref, traj = tmp_path / "P.json", tmp_path / "traj.json"
        ref.write_text(json.dumps({"d": 1, "rows": [[1.0]]}))
        traj.write_text(json.dumps({"d": 1, "states": [1] * 50}))
        rc = main(["test", "--reference", str(ref), "--trajectory", str(traj),
                   "--eps", "0.3", "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: reference has d=1; identity testing needs d >= 2\n"

    def test_fractional_samples_exit_code(self, tmp_path, capsys):
        fio.save_probvector(cc.ProbVector(np.array([0.5, 0.5])), tmp_path / "pbar.json")
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"d": 2, "samples": [1, 2] * 500 + [2.5]}))
        rc = main(["iidtest", "--pbar", str(tmp_path / "pbar.json"), "--samples", str(path),
                   "--eps", "0.2", "--delta", "0.1"])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_boolean_samples_exit_code(self, tmp_path, capsys):
        # false would load as code -1, which makes the statistic infinite
        fio.save_probvector(cc.ProbVector(np.array([0.5, 0.5])), tmp_path / "pbar.json")
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"d": 2, "samples": [1, 2] * 4000 + [False]}))
        rc = main(["iidtest", "--pbar", str(tmp_path / "pbar.json"), "--samples", str(path),
                   "--eps", "0.2", "--delta", "0.1"])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_simulate_file_digest(self, tmp_path, capsys):
        # pins the exact states and file layout of a seeded simulate run
        # that spans two lockstep windows
        matrix = tmp_path / "P.json"
        matrix.write_text(json.dumps({"d": 4, "rows": [
            [0.5, 0.3, 0.2, 0.0], [0.3, 0.4, 0.1, 0.2], [0.2, 0.1, 0.5, 0.2], [0.0, 0.2, 0.2, 0.6],
        ]}))
        out = tmp_path / "t.json"
        rc = main(["simulate", "--matrix", str(matrix), "--mu", "uniform",
                   "--steps", "300000", "--seed", "20261018", "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ba404e402f7351605025d3240e397fff696247f650089d95557828dcbee9debd"
        )
        # the same states in the indented layout of earlier versions hash to
        # that layout's pin, so only the layout changed, not the states
        indented = json.dumps(json.loads(out.read_text()), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(indented.encode()).hexdigest() == (
            "5c858657b0454b3e5f05f4fbf59b84708271c642d935e0d6af66026559fdfb92"
        )

    def test_partition_report_digest(self, tmp_path, capsys):
        # pins a seeded certified partition report with a split, the manifest
        # (which holds the tmp paths) left out
        matrix, out = tmp_path / "P.json", tmp_path / "part.json"
        matrix.write_text(json.dumps(TWO_BLOCKS))
        rc = main(["partition", "--matrix", str(matrix), "--beta", "0.1", "--seed", "2",
                   "--certify", "--out", str(out)])
        assert rc == 0
        assert report_digest(out) == (
            "60b2526af3edc0bcd1f943b6384590d5ac1204c9670934a178e174b93f827214"
        )

    def test_emulated_test_report_digest(self, tmp_path, capsys):
        # pins a seeded test --lazify emulate report, whose first component
        # fails to convert and whose second decides, the manifest left out
        matrix, traj, out = tmp_path / "P.json", tmp_path / "t.json", tmp_path / "r.json"
        matrix.write_text(json.dumps(TWO_BLOCKS))
        assert main(["simulate", "--matrix", str(matrix), "--mu", "uniform", "--steps", "60000",
                     "--seed", "1", "--out", str(traj)]) == 0
        rc = main(["test", "--reference", str(matrix), "--trajectory", str(traj), "--eps", "0.5",
                   "--seed", "4", "--lazify", "emulate", "--report", str(out)])
        assert rc == 0
        assert report_digest(out) == (
            "b2bd97b7cc42e98546555d48549516e9cedac427a5612d02ccc76cfd9cf54580"
        )

    def test_internal_error_exit_code(self, chain_file, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "distance", boom)
        _, path = chain_file
        assert main(["distance", "--a", str(path), "--b", str(path)]) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_usage_error_exit_code(self, capsys):
        assert main([]) == 2

    def test_io_error_exit_code(self, tmp_path, capsys):
        rc = main(["distance", "--a", str(tmp_path / "missing.json"), "--b", str(tmp_path / "missing.json")])
        assert rc == 2

    @pytest.mark.parametrize("content, offset", [
        (b"\xff\xfe", 0), (b'{"d": 3, "states": [1, "\xe9"]}', 24),
    ], ids=["bom", "latin1"])
    @INPUT_FLAGS
    def test_non_utf8_input_exit_code(self, chain_file, tmp_path, capsys, command, flag,
                                      content, offset):
        rc, bad, out = run_with_bad_input(chain_file, tmp_path, command, flag, lambda good: content)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte {offset})\n"
        assert not out.exists()

    @pytest.mark.parametrize("truncate", [
        lambda good: good[: len(good) // 2], lambda good: b'{"d": 4, "states": [1, 2',
    ], ids=["half", "open-list"])
    @INPUT_FLAGS
    def test_truncated_input_exit_code(self, chain_file, tmp_path, capsys, command, flag,
                                       truncate):
        # a JSON syntax error names the file, like every other input error
        rc, bad, out = run_with_bad_input(chain_file, tmp_path, command, flag, truncate)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate"])
    def test_negative_seed_exit_code(self, chain_file, tmp_path, capsys, command):
        _, path = chain_file
        argv = [command, "--matrix", str(path), "--mu", "uniform",
                "--steps", "10", "--out", str(tmp_path / "t.json")]
        assert main(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, seed", [
        (command, seed) for command in ("partition", "test", "props") for seed in ("-1", str(2**64))
    ] + [("simulate", str(2**64))])
    def test_seed_out_of_range_exit_code(self, chain_file, tmp_path, capsys, command, seed):
        # a seed outside [0, 2**64) would otherwise alias one inside it;
        # test_negative_seed_exit_code covers simulate at -1
        P, path = chain_file
        traj = tmp_path / "t.json"
        fio.save_trajectory(sp.simulate(P, P.stationary, 2000, seed=0), traj)
        out = tmp_path / "out.json"
        argv = {
            "partition": ["partition", "--matrix", str(path), "--beta", "0.1", "--out", str(out)],
            "test": ["test", "--reference", str(path), "--trajectory", str(traj), "--eps", "0.3",
                     "--report", str(out)],
            "props": ["props", "--pairs", "2", "--out", str(out)],
            "simulate": ["simulate", "--matrix", str(path), "--mu", "uniform",
                         "--steps", "10", "--out", str(out)],
        }[command]
        assert main(argv + ["--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_empty_property_suite_exit_code(self, tmp_path, capsys, pairs):
        out = tmp_path / "props.json"
        assert main(["props", "--seed", "1", "--pairs", pairs, "--out", str(out)]) == 2
        assert not out.exists()

    def test_mandatory_seed(self, chain_file, tmp_path, capsys):
        _, path = chain_file
        with pytest.raises(SystemExit):
            main(["simulate", "--matrix", str(path), "--mu", "uniform",
                  "--steps", "10", "--out", str(tmp_path / "t.json")])


def run_cli(argv, timeout):
    """mcident in a fresh interpreter: (exit code, stderr), or a failed test
    when it runs past timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-m", "mcident.cli", *argv], capture_output=True,
                         text=True, env=env, timeout=timeout)
    return out.returncode, out.stderr


class TestOutsizedRequests:
    def test_tiny_delta_exits_promptly(self, tmp_path):
        # the threshold costs the same at every delta: delta = 1e-300 gets a
        # verdict, and 5e-324, whose delta/2 underflows to 0, a usage error
        fio.save_probvector(cc.ProbVector(np.full(4, 0.25)), tmp_path / "pbar.json")
        write_samples(tmp_path / "s.json", 4, np.arange(20000) % 4)
        argv = ["iidtest", "--pbar", str(tmp_path / "pbar.json"), "--samples",
                str(tmp_path / "s.json"), "--eps", "0.9", "--delta"]
        assert run_cli(argv + ["1e-300"], timeout=30) == (0, "")
        rc, err = run_cli(argv + ["5e-324"], timeout=30)
        assert rc == 2
        assert err.startswith("error: delta=5e-324") and err.count("\n") == 1

    def test_steps_beyond_memory_exit_2(self, chain_file, tmp_path):
        _, path = chain_file
        out = tmp_path / "t.json"
        rc, err = run_cli(["simulate", "--matrix", str(path), "--mu", "uniform", "--steps",
                           str(10**15), "--seed", "1", "--out", str(out)], timeout=30)
        assert rc == 2
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()
