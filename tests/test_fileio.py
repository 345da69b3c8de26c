"""Trajectory and samples files: the numpy writer and reader against json."""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcident import fileio as fio
from mcident import sampling as sp
from mcident.errors import ChainTestError

from conftest import write_samples

# the largest state the writer takes: it writes state + 1 as a uint64
TOP = 2**64 - 2
EDGES = [0, 8, 9, 254, 255, 10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, TOP]
CHUNK = fio._CHUNK_VALUES
FIXTURE_OK = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def dumps(d, key, values) -> bytes:
    """The bytes the writer must produce: json.dumps of the document."""
    doc = {"d": int(d), key: [int(v) for v in values]}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def outcome(load, path):
    """What a loader makes of a file: (d, dtype, array) or (error class, message)."""
    try:
        got = load(path)
    except Exception as exc:  # compared across the two readers, whatever it is
        return type(exc), str(exc)
    d, values = (got.d, got.states) if isinstance(got, sp.Trajectory) else got
    assert not values.flags.writeable and values.flags.owndata
    return d, values.dtype, values.tolist()


def both_readers(load, path):
    """The loader's outcome as it reads the file, and with the numpy reader
    switched off so that json.load reads every file."""
    fast = outcome(load, path)
    with mock.patch.object(fio, "_compact_span", side_effect=fio._NotCompact):
        return fast, outcome(load, path)


class TestWriter:
    @FIXTURE_OK
    @given(values=st.lists(st.one_of(st.integers(0, TOP), st.sampled_from(EDGES)),
                           min_size=1, max_size=40),
           d=st.integers(1, TOP + 1))
    def test_bytes_equal_json_dumps(self, tmp_path, values, d):
        # states of every dtype state_dtype gives, uint8 to uint64
        states = [v % d for v in values]
        path = tmp_path / "t.json"
        fio.save_trajectory(sp.Trajectory(d=d, states=np.array(states, dtype=np.uint64)), path)
        assert path.read_bytes() == dumps(d, "states", [v + 1 for v in states])

    @settings(FIXTURE_OK, max_examples=12)
    @given(size=st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
           seed=st.integers(0, 2**32 - 1), top=st.sampled_from([9, 255, 10**18, TOP]))
    def test_chunk_boundaries(self, tmp_path, size, seed, top):
        rng = np.random.default_rng(seed)
        states = rng.integers(0, top, size, endpoint=True, dtype=np.uint64)
        edges = np.array([e for e in EDGES if e <= top], dtype=np.uint64)
        states[rng.integers(0, size, 8)] = rng.choice(edges, 8)
        path = tmp_path / "t.json"
        fio.save_trajectory(sp.Trajectory(d=top + 1, states=states), path)
        assert path.read_bytes() == dumps(top + 1, "states", [int(v) + 1 for v in states])

    def test_single_state(self, tmp_path):
        path = tmp_path / "t.json"
        fio.save_trajectory(sp.Trajectory(d=3, states=np.array([2])), path)
        assert path.read_bytes() == b'{"d":3,"states":[3]}\n'

    def test_trajectory(self, tmp_path, rng):
        traj = sp.Trajectory(d=12, states=rng.integers(0, 12, 3 * CHUNK))
        path = tmp_path / "t.json"
        fio.save_trajectory(traj, path)
        assert path.read_bytes() == dumps(12, "states", traj.states + 1)


# Compact files, and byte edits of them that either reader must see as the
# other does. Each edit is (old, new): the first occurrence of old is replaced.
COMPACT = {
    "trajectory": (fio.load_trajectory, b'{"d":12,"states":[1,12,3,10,1]}\n'),
    "samples": (fio.load_samples, b'{"d":12,"samples":[5,1,12,10]}\n'),
}
EDITS = {
    "leading-zero": (b"[1,", b"[01,"),
    "empty-item": (b"[1,", b"[1,,"),
    "trailing-comma": (b"]", b",]"),
    "leading-comma": (b"[", b"[,"),
    "negative": (b"[", b"[-1,"),
    "fraction": (b"[", b"[2.7,"),
    "exponent": (b"[", b"[1e3,"),
    "true": (b"[", b"[true,"),
    "null": (b"[", b"[null,"),
    "18-digits": (b"[", b"[" + b"9" * 18 + b","),
    "19-digits": (b"[", b"[" + b"1" * 19 + b","),
    "19-digits-top": (b"[", b"[" + b"9" * 19 + b","),
    "20-digits": (b"[", b"[1" + b"0" * 19 + b","),
    "21-digits": (b"[", b"[" + b"9" * 21 + b","),
    "space": (b"[1,", b"[1, "),
    "nested": (b"[", b"[["),
    "bracket-in-string-after": (b"}", b',"note":"]"}'),
    "bracket-in-string-before": (b"{", b'{"note":"[1]",'),
    "list-in-string": (b"[", b'"[1,2]","x":['),
    "duplicate-key-last": (b"{", b'{"states":7,"samples":7,'),
    "duplicate-key-first": (b"}", b',"states":7,"samples":7}'),
    "duplicate-d": (b"}", b',"d":3}'),
    "d-float": (b'"d":12', b'"d":3.0'),
    "d-true": (b'"d":12', b'"d":true'),
    "d-missing": (b'"d":12,', b""),
    "key-missing": (b'"states":', b'"x":'),
    "key-missing-samples": (b'"samples":', b'"x":'),
    "other-key-list": (b'"states"', b'"other"'),
    "object-value": (b"[", b'{"a":['),
    "top-level-list": (b"{", b"[{"),
    "truncated": (b"]}\n", b""),
    "truncated-after-list": (b"}\n", b""),
    "not-utf8": (b"}", b',"x":"\xe9"}'),
    "bom": (b"{", b"\xef\xbb\xbf{"),
    "empty-list": (b"[", b"[],\"x\":["),
    "empty": (b"{", b"{}" + b" " * 3),
}


class TestReader:
    @pytest.mark.parametrize("kind", COMPACT)
    @pytest.mark.parametrize("edit", EDITS)
    def test_edits_read_alike(self, tmp_path, kind, edit):
        load, text = COMPACT[kind]
        old, new = EDITS[edit]
        path = tmp_path / "f.json"
        path.write_bytes(text.replace(old, new, 1))
        fast, slow = both_readers(load, path)
        assert fast == slow

    @pytest.mark.parametrize("kind", COMPACT)
    @pytest.mark.parametrize("items", ["1,true,2,true", "1,true,2,false", "false,3", "true"])
    def test_booleans_are_not_integers(self, tmp_path, kind, items):
        load, text = COMPACT[kind]
        key = b"states" if kind == "trajectory" else b"samples"
        path = tmp_path / "f.json"
        path.write_bytes(b'{"d":3,"%s":[%s]}' % (key, items.encode()))
        with pytest.raises(ChainTestError, match="must be a list of integers"):
            load(path)

    def test_d_beyond_uint64(self, tmp_path):
        # the writer could not write a state of 2**64 - 1, so neither reader
        # takes an alphabet that has one
        path = tmp_path / "t.json"
        path.write_bytes(b'{"d":18446744073709551616,"states":[1,2]}\n')
        fast, slow = both_readers(fio.load_trajectory, path)
        assert fast == slow and issubclass(fast[0], ChainTestError)

    @pytest.mark.parametrize("kind", COMPACT)
    def test_empty_list(self, tmp_path, kind):
        load, _ = COMPACT[kind]
        path = tmp_path / "f.json"
        path.write_bytes(b'{"d":3,"%s":[]}' % kind.replace("trajectory", "states").encode())
        fast, slow = both_readers(load, path)
        assert fast == slow

    @settings(FIXTURE_OK, max_examples=300)
    @given(kind=st.sampled_from(sorted(COMPACT)), data=st.data())
    def test_single_byte_mutations(self, tmp_path, kind, data):
        load, text = COMPACT[kind]
        where = data.draw(st.integers(0, len(text)))
        byte = data.draw(st.sampled_from(list(b'0123456789,-+.eE[]{}":tn \n\xff')))
        how = data.draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        mutated = {
            "replace": text[:where] + bytes([byte]) + text[where + 1:],
            "insert": text[:where] + bytes([byte]) + text[where:],
            "delete": text[:where] + text[where + 1:],
            "truncate": text[:where],
        }[how]
        path = tmp_path / "f.json"
        path.write_bytes(mutated)
        fast, slow = both_readers(load, path)
        assert fast == slow

    @FIXTURE_OK
    @given(values=st.lists(st.integers(1, 10**18 - 1), min_size=1, max_size=40),
           kind=st.sampled_from(sorted(COMPACT)))
    def test_written_files_read_alike(self, tmp_path, values, kind):
        load, _ = COMPACT[kind]
        d = max(values)
        path = tmp_path / "f.json"
        key = "states" if kind == "trajectory" else "samples"
        path.write_bytes(dumps(d, key, values))
        fast, slow = both_readers(load, path)
        # a trajectory's states load in the smallest unsigned dtype holding
        # d - 1, samples as int64
        dtype = sp.state_dtype(d) if kind == "trajectory" else np.dtype(np.int64)
        assert fast == slow == (d, dtype, [v - 1 for v in values])

    def test_long_file_across_chunks(self, tmp_path, rng):
        # values of one to three digits, so chunks end at varying offsets
        states = rng.integers(0, 300, 5 * CHUNK)
        path = tmp_path / "t.json"
        fio.save_trajectory(sp.Trajectory(d=300, states=states), path)
        fast, slow = both_readers(fio.load_trajectory, path)
        assert fast == slow == (300, np.dtype(np.uint16), states.tolist())

    @pytest.mark.parametrize("d", [256, 257])
    def test_top_state_round_trip(self, tmp_path, d):
        # state d - 1 is written as d and read back as d - 1: the + 1 of the
        # writer must not wrap a uint8 255 to 0
        states = np.array([d - 1, 0, d - 1, 254, 255])
        traj = sp.Trajectory(d=d, states=states)
        path = tmp_path / "t.json"
        fio.save_trajectory(traj, path)
        assert path.read_bytes() == dumps(d, "states", states + 1)
        fast, slow = both_readers(fio.load_trajectory, path)
        assert fast == slow == (d, sp.state_dtype(d), states.tolist())

    def test_top_state_across_chunks(self, tmp_path, rng):
        # uint8 states up to 255 over several writer and reader chunks
        states = rng.integers(0, 256, 3 * CHUNK + 5)
        states[[0, CHUNK, -1]] = 255
        path = tmp_path / "t.json"
        fio.save_trajectory(sp.Trajectory(d=256, states=states), path)
        assert path.read_bytes() == dumps(256, "states", states + 1)
        back = fio.load_trajectory(path).states
        assert back.dtype == np.uint8 and np.array_equal(back, states)

    def test_states_past_int64_round_trip(self, tmp_path):
        # states of 19 and 20 digits skip the numpy reader, and json.load's
        # integers are read exactly, not through float64; samples stay int64
        states = [0, 2**63 + 4, 10**19, TOP]
        path = tmp_path / "t.json"
        fio.save_trajectory(sp.Trajectory(d=TOP + 1, states=np.array(states, np.uint64)), path)
        fast, slow = both_readers(fio.load_trajectory, path)
        assert fast == slow == (TOP + 1, np.dtype(np.uint64), states)
        path.write_bytes(dumps(TOP + 1, "samples", [v + 1 for v in states]))
        with pytest.raises(ChainTestError, match="samples holds an integer out of range"):
            fio.load_samples(path)

    @pytest.mark.parametrize("d", [3, 256])
    @pytest.mark.parametrize("over", [1, 256])
    @pytest.mark.parametrize("where", ["first", "last-chunk"])
    def test_out_of_range_states_read_alike(self, tmp_path, d, over, where):
        # d + 256 - 1 is d - 1 modulo 256: a cast before the range check would
        # hide it; either reader refuses it with the same words
        values = np.ones(2 * CHUNK if where == "last-chunk" else 3, dtype=np.int64)
        values[0 if where == "first" else -1] = d + over
        path = tmp_path / "t.json"
        path.write_bytes(dumps(d, "states", values))
        fast, slow = both_readers(fio.load_trajectory, path)
        assert fast == slow == (ChainTestError, f"{path}: states outside [1, {d}]")

    @pytest.mark.parametrize("tail", [b"", b","], ids=["ok", "trailing-comma"])
    def test_chunk_ending_at_last_comma(self, tmp_path, tail):
        # the first chunk ends at the comma after its 2**16 + 1 values, the
        # last before the closing bracket when the file has a trailing comma
        values = b"1," * (fio._CHUNK_BYTES // 2) + b"1" + tail
        path = tmp_path / "t.json"
        path.write_bytes(b'{"d":3,"states":[' + values + b"]}\n")
        fast, slow = both_readers(fio.load_trajectory, path)
        assert fast == slow
        assert (fast[0] == 3) == (tail == b"")

    def test_numpy_reader_runs(self, tmp_path, monkeypatch):
        # compact files load without json.load; any other layout reaches it
        traj, samples, indented = (tmp_path / name for name in ("t.json", "s.json", "i.json"))
        fio.save_trajectory(sp.Trajectory(d=3, states=np.array([0, 2, 1])), traj)
        write_samples(samples, 4, np.arange(9) % 4)
        indented.write_text(json.dumps(json.loads(traj.read_text()), indent=2))

        class JsonLoadCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise JsonLoadCalled

        monkeypatch.setattr(json, "load", refuse)
        assert fio.load_trajectory(traj).states.tolist() == [0, 2, 1]
        d, codes = fio.load_samples(samples)
        assert d == 4 and codes.tolist() == (np.arange(9) % 4).tolist()
        with pytest.raises(JsonLoadCalled):
            fio.load_trajectory(indented)


def streamed(path):
    """stream_trajectory's outcome in the form of outcome(): the states its
    chunks yield, joined, for a file the chunk reader parses."""
    try:
        got = fio.stream_trajectory(path)
    except Exception as exc:  # compared with load_trajectory's, whatever it is
        return type(exc), str(exc)
    states = got.states if isinstance(got, sp.Trajectory) else np.concatenate(list(got.chunks()))
    assert len(states) == len(got)
    return got.d, states.dtype, states.tolist()


# Files for the chunk reader, each (kind, bytes, whether the chunk reader
# parses it rather than json.load).
STRADDLE = b",".join(b"%d" % v for v in np.random.default_rng(5).integers(1, 301, 200))
CHUNK_READER_CASES = {
    "straddling": ("trajectory", b'{"d":300,"states":[' + STRADDLE + b"]}\n", True),
    "18-digits": ("samples", b'{"d":3,"samples":[1,' + b"9" * 18 + b",123456789012345678]}\n", True),
    "18-digit-states": ("trajectory", b'{"d":%d,"states":[1,%d,7]}\n' % (10**18, 10**18 - 1), True),
    "19-digits": ("samples", b'{"d":3,"samples":[1,' + b"1" * 19 + b",2]}\n", False),
    "19-digit-states": ("trajectory", b'{"d":%d,"states":[1,%d]}\n' % (10**19, 10**18 + 5), False),
    "leading-zero": ("trajectory", b'{"d":12,"states":[1,2,01,3]}\n', False),
    "trailing-comma": ("trajectory", b'{"d":12,"states":[1,2,3,]}\n', False),
    "states-first": ("trajectory", b'{"states":[3,1,2,' + b"1," * 40 + b'3],"d":3}\n', True),
    "indented": ("trajectory", json.dumps({"d": 3, "states": [1, 3, 2] * 30}, indent=2).encode(), False),
    "samples": ("samples", b'{"d":9,"samples":[' + b"5,1,0,9," * 30 + b"12]}\n", True),
}


class TestChunkReader:
    @pytest.mark.parametrize("block", [48, 49, 1 << 17])
    @pytest.mark.parametrize("case", CHUNK_READER_CASES)
    def test_reads_as_json_load(self, tmp_path, monkeypatch, case, block):
        # blocks of 48 and 49 bytes put items across every kind of boundary; the
        # head, up to the "[", fits in the first
        monkeypatch.setattr(fio, "_CHUNK_BYTES", block)
        kind, text, compact = CHUNK_READER_CASES[case]
        load = fio.load_trajectory if kind == "trajectory" else fio.load_samples
        path = tmp_path / "f.json"
        path.write_bytes(text)
        fast, slow = both_readers(load, path)
        assert fast == slow
        loads = []
        with mock.patch.object(json, "load", side_effect=lambda fh: loads.append(1) or json.loads(fh.read())):
            assert outcome(load, path) == slow
            if kind == "trajectory":
                assert streamed(path) == slow
        assert (not loads) == compact

    def test_chunks_stay_small(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fio, "_CHUNK_BYTES", 64)
        states = np.random.default_rng(3).integers(0, 12, 1000)
        path = tmp_path / "t.json"
        fio.save_trajectory(sp.Trajectory(d=12, states=states), path)
        stream = fio.stream_trajectory(path)
        assert isinstance(stream, sp.StateStream) and len(stream) == 1000
        for _ in range(2):  # each call reads the file again, from the first state
            chunks = list(stream.chunks())
            assert max(map(len, chunks)) <= 64 // 2 + 1
            assert np.concatenate(chunks).tolist() == states.tolist()
            assert all(c.dtype == np.uint8 for c in chunks)

    @pytest.mark.parametrize("where", [0, -1])
    def test_refusals_match_load_trajectory(self, tmp_path, monkeypatch, where):
        # a state outside [1, d] anywhere, the last one included, refused in
        # load_trajectory's words; a float after it is refused first, as
        # json.load's reading refuses it
        monkeypatch.setattr(fio, "_CHUNK_BYTES", 64)
        values = np.ones(500, dtype=np.int64)
        values[where] = 4
        path = tmp_path / "t.json"
        path.write_bytes(dumps(3, "states", values))
        assert streamed(path) == outcome(fio.load_trajectory, path) == (
            ChainTestError, f"{path}: states outside [1, 3]")
        path.write_bytes(dumps(3, "states", values).replace(b"]", b",1.5]"))
        assert streamed(path) == outcome(fio.load_trajectory, path) == (
            ChainTestError, f"{path}: states must be a list of integers")

    def test_file_changed_between_reads(self, tmp_path):
        path = tmp_path / "t.json"
        fio.save_trajectory(sp.Trajectory(d=3, states=np.arange(3000) % 3), path)
        stream = fio.stream_trajectory(path)
        path.write_bytes(b'{"d":3,"states":[1,2]}\n')
        with pytest.raises(ChainTestError, match="changed while it was read"):
            list(stream.chunks())


class TestFileDigest:
    def test_matches_one_read(self, tmp_path):
        path = tmp_path / "f.bin"
        for size in (0, 1, 8 * fio._CHUNK_BYTES, 8 * fio._CHUNK_BYTES + 3):
            data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
            path.write_bytes(data)
            assert fio.file_digest(path) == hashlib.sha256(data).hexdigest()
