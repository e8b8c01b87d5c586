import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from chipfiring import (
    InternalCheckError,
    LaurentPolynomial,
    checks,
    cli,
    enumerate_recurrents,
    kappa,
)
from chipfiring.cli import main, parse_args, parse_graph
from chipfiring.families import random_eulerian

from support import DATA, build_parser, corpus, unpack

C3_TEXT = "s a\na b\nb s\n"
K3_TEXT = "s a\na s\ns b\nb s\na b\nb a\n"
BANANA_TEXT = "u v 2\nv u 2\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(graph_file, capsys):
    code, out, _ = run(capsys, "info", graph_file(C3_TEXT))
    assert code == 0
    assert "eulerian: true" in out
    code, out, _ = run(capsys, "info", graph_file(C3_TEXT), "--format", "json")
    data = json.loads(out)
    assert data["vertices"] == ["s", "a", "b"] and data["arc_count"] == 3


def test_stabilize(graph_file, capsys):
    code, out, _ = run(
        capsys, "stabilize", graph_file(K3_TEXT), "--sink", "s", "--config", "a=2,b=2"
    )
    assert code == 0
    assert "stable: a=1,b=1" in out
    assert "chips to sink: 2" in out


def test_recurrents_json(graph_file, capsys):
    code, out, _ = run(
        capsys, "recurrents", graph_file(K3_TEXT), "--sink", "s", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["sink"] == "s" and data["kappa"] == 3
    assert len(data["configs"]) == 3
    sums = [c["sum"] for c in data["configs"]]
    assert sorted(sums) == [3, 3, 4]


def test_tutte(graph_file, capsys):
    code, out, _ = run(capsys, "tutte", graph_file(C3_TEXT))
    assert code == 0
    assert out.splitlines() == ["1*y^0", "sinks consistent: true"]
    code, out, _ = run(capsys, "tutte", graph_file(K3_TEXT), "--eval", "2")
    assert code == 0 and "value at 2: 4" in out
    code, out, _ = run(capsys, "tutte", graph_file(BANANA_TEXT), "--format", "json")
    data = json.loads(out)
    assert data["polynomial"]["terms"] == [[0, 1], [1, 1]] and data["consistent"]


def test_swap(graph_file, capsys):
    code, out, _ = run(
        capsys,
        "swap",
        graph_file(K3_TEXT),
        "--source", "s",
        "--target", "a",
        "--config", "a=1,b=0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["swap_number"] == 0
    assert data["image"] == {"s": 0, "b": 1}
    # swap writes JSON only: --format json prints the same bytes, text is refused
    argv = ("swap", graph_file(K3_TEXT), "--source", "s", "--target", "a", "--config", "a=1,b=0")
    assert run(capsys, *argv, "--format", "json") == (0, out, "")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "text"])
    assert exc.value.code == 2
    assert "invalid choice: 'text' (choose from json)" in capsys.readouterr().err


def test_check_fixture_sink_independence(capsys):
    code, out, _ = run(
        capsys,
        "check",
        str(DATA / "demo5.txt"),
        "--property", "sink-independence",
        "--verbose",
    )
    assert code == 0
    assert "raw chip totals (2, 2, 3, 3, 3, 4)" in out
    assert "raw chip totals (1, 1, 2, 2, 2, 3)" in out


def test_check_seeded_family(capsys):
    code, out, _ = run(
        capsys, "check", "--property", "burning-uniqueness", "--seed", "7", "--count", "3"
    )
    assert code == 0
    assert out.count(": ok") == 3


def test_check_requires_input(capsys):
    code, _, err = run(capsys, "check", "--property", "theta")
    assert code == 2 and "seed" in err
    code, out, err = run(capsys, "check", "--property", "theta", "--seed", "1", "--count", "0")
    assert (code, out) == (2, "") and "seed" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_names_a_count_below_one(capsys, count):
    code, out, err = run(capsys, "check", "--property", "theta", "--seed", "1", "--count", count)
    assert (code, out) == (2, "")
    assert "--count" in err and count in err and "graph file" not in err


def test_check_reports_each_seeded_graph_before_generating_the_next(capsys, monkeypatch):
    argv = ("check", "--property", "theta", "--seed", "7", "--count", "3")
    _, whole, _ = run(capsys, *argv)
    printed_before = []

    def counting(rng):
        printed_before.append(capsys.readouterr().out)
        return random_eulerian(rng)

    monkeypatch.setattr(cli, "random_eulerian", counting)
    code, last, _ = run(capsys, *argv)
    assert code == 0
    assert printed_before == ["", "random[0]: ok\n", "random[1]: ok\n"]
    assert "".join(printed_before) + last == whole


def test_check_recursions_with_a_vertex_named_like_a_contraction(graph_file, capsys):
    path = graph_file("x y\ny x\ny x+y\nx+y y\nx x+y\nx+y x\n")
    for prop in checks.PROPERTIES:
        code, out, err = run(capsys, "check", path, "--property", prop, "--verbose")
        assert (code, err) == (0, "")
        if prop == "recursions":
            lines = out.splitlines()[1:]
            assert len(lines) == 18 and all(line.endswith(": ok") for line in lines)


@pytest.mark.parametrize(
    "text",
    [
        "a b\nb a\nb c\n",  # not strongly connected: no bridge test may run first
        "s a\na b\nb s\na s\n",  # strongly connected, unbalanced degrees
    ],
)
def test_check_recursions_refuses_non_eulerian_hosts_first(graph_file, capsys, text):
    code, out, err = run(capsys, "check", graph_file(text), "--property", "recursions")
    assert (code, out, err) == (2, "", "error: recursion checks require an Eulerian graph\n")


def test_conjecture1(graph_file, capsys):
    code, out, _ = run(capsys, "conjecture1", graph_file(K3_TEXT), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    assert data["sinks"]["s"] == [3, 3, 4]


def test_oracle(graph_file, capsys):
    code, out, _ = run(
        capsys, "oracle", graph_file(C3_TEXT), "--sink", "s", "--which", "arborescences"
    )
    assert code == 0 and out.strip() == "1"
    # oracle writes text only: --format text prints the same bytes, json is refused
    argv = ("oracle", graph_file(C3_TEXT), "--sink", "s", "--which", "arborescences")
    assert run(capsys, *argv, "--format", "text") == (0, out, "")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "json"])
    assert exc.value.code == 2
    assert "invalid choice: 'json' (choose from text)" in capsys.readouterr().err
    code, out, _ = run(
        capsys, "oracle", graph_file(K3_TEXT), "--sink", "s", "--which", "recurrents"
    )
    assert code == 0 and len(out.strip().splitlines()) == 3
    not_strong = graph_file("s a\na b\nb a\n", "not_strong.txt")
    code, out, err = run(capsys, "oracle", not_strong, "--sink", "s", "--which", "recurrents")
    assert (code, out) == (2, "")
    assert err == "error: definitional test requires a strongly connected graph\n"


@pytest.mark.parametrize("command", [("recurrents",), ("oracle", "--which", "recurrents")])
def test_empty_sink_is_an_unknown_vertex(graph_file, capsys, command):
    code, out, err = run(capsys, command[0], graph_file(K3_TEXT), "--sink=", *command[1:])
    assert (code, out, err) == (2, "", "error: unknown vertex ''\n")


def test_exit_codes(graph_file, capsys, tmp_path):
    # usage error from parse_args: exit 2 before any work
    with pytest.raises(SystemExit) as exc:
        main(["tutte"])
    assert exc.value.code == 2
    # bad input file
    code, _, err = run(capsys, "info", str(tmp_path / "missing.txt"))
    assert code == 2 and "cannot read" in err
    # malformed line
    bad = graph_file("a b c d\n", "bad.txt")
    code, _, err = run(capsys, "info", bad)
    assert code == 2 and "line 1" in err
    # size cap
    big = graph_file("\n".join(f"v{i} v{j}\nv{j} v{i}" for i in range(7) for j in range(i)), "big.txt")
    code, _, err = run(capsys, "oracle", big, "--which", "arborescences")
    assert code == 3
    code, _, err = run(capsys, "info", graph_file(f"a b {10**30}\n", "huge.txt"))
    assert code == 3 and "arcs" in err
    # non-Eulerian input to an Eulerian-only computation
    code, _, err = run(capsys, "recurrents", graph_file("a b\nb a\na b\n", "ne.txt"))
    assert code == 2 and "Eulerian" in err


def test_failed_check_report_exits_1(graph_file, capsys, monkeypatch):
    def failing(g):
        report = checks.CheckReport("theta")
        report.note("seen")
        report.fail("planted")
        return report

    monkeypatch.setitem(checks._RUNNERS, "theta", failing)
    path = graph_file(C3_TEXT)
    code, out, err = run(capsys, "check", path, "--property", "theta")
    assert (code, err) == (1, "")
    assert out == f"{path}: FAILED\n  seen\n  VIOLATION: planted\n"


def test_sink_dependent_polynomials_exit_1(graph_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "tutte_gen", lambda g, s: LaurentPolynomial.y(g.vertex_index(s)))
    code, out, err = run(capsys, "tutte", graph_file(C3_TEXT))
    assert (code, err) == (1, "")
    assert out.splitlines() == ["1*y^0", "sinks consistent: false"]


def test_internal_check_error_exits_1_with_one_line(graph_file, capsys, monkeypatch):
    def broken(g, s):
        raise InternalCheckError("planted invariant failure")

    monkeypatch.setattr(cli, "tutte_gen", broken)
    code, out, err = run(capsys, "tutte", graph_file(C3_TEXT))
    assert (code, out) == (1, "")
    assert err == "property violation: planted invariant failure\n"
    assert "Traceback" not in err


def test_stabilize_refuses_host_without_certificate(graph_file, capsys):
    # two disjoint 20-cycles: the b-cycle never reaches the sink a0, so one
    # chip on b0 would circle forever; the host is refused before any firing
    text = "".join(f"{x}{i} {x}{(i + 1) % 20}\n" for x in "ab" for i in range(20))
    code, out, err = run(
        capsys, "stabilize", graph_file(text), "--sink", "a0", "--config", "b0=1"
    )
    assert code == 2 and out == ""
    assert "'b0'" in err and "never fires" in err


def test_cap_flag(graph_file, capsys, monkeypatch):
    import os

    monkeypatch.delenv("CFG_CAP_CELLS", raising=False)
    # fresh vertex names so no cached enumeration can satisfy the request
    path = graph_file("x1 x2\nx2 x1\nx2 x3\nx3 x2\n", "path.txt")
    code, _, err = run(capsys, "recurrents", path, "--cap", "1")
    assert code == 3 and "cap" in err
    assert "CFG_CAP_CELLS" not in os.environ
    code, out, _ = run(capsys, "recurrents", path)
    assert code == 0
    # a value set before the call is restored, not dropped
    monkeypatch.setenv("CFG_CAP_CELLS", "1000")
    path = graph_file("y1 y2\ny2 y1\ny2 y3\ny3 y2\n", "path2.txt")
    code, _, _ = run(capsys, "recurrents", path, "--cap", "1")
    assert code == 3 and os.environ["CFG_CAP_CELLS"] == "1000"


def test_cap_flag_beats_environment_and_ends_with_the_call(graph_file, capsys, monkeypatch):
    from chipfiring.errors import SettingError
    from chipfiring.recurrent import CELL_CAP, cell_cap

    monkeypatch.setenv("CFG_CAP_CELLS", "abc")
    path = graph_file(K3_TEXT, "k3.txt")
    code, out, _ = run(capsys, "recurrents", path, "--cap", "1000")
    assert code == 0 and out  # a bad environment value is ignored under --cap
    assert CELL_CAP.get() is None
    with pytest.raises(SettingError):
        cell_cap()
    monkeypatch.setenv("CFG_CAP_CELLS", "1")
    code, out, _ = run(capsys, "tutte", path, "--cap", "1000")
    assert code == 0 and out
    code, out, err = run(capsys, "tutte", path)
    assert code == 3 and out == "" and "cap of 1;" in err


def test_kappa_cube_of_a_looped_host_is_its_own(graph_file, capsys, monkeypatch):
    monkeypatch.delenv("CFG_CAP_CELLS", raising=False)
    path = graph_file("p q\nq p\nq r\nr q\nr r\n", "looped.txt")
    code, out, err = run(capsys, "recurrents", path, "--sink", "r", "--cap", "3")
    assert code == 3 and out == "" and "4 cells" in err
    code, out, _ = run(capsys, "recurrents", path, "--sink", "r", "--cap", "4")
    assert code == 0 and "kappa: 2" in out


def test_record_cache_is_bounded(capsys):
    from chipfiring.recurrent import _game

    _game.cache_clear()
    code, _, _ = run(capsys, "check", "--property", "recursions", "--seed", "1", "--count", "300")
    info = _game.cache_info()
    assert code == 0 and info.maxsize is not None and info.currsize <= info.maxsize
    _game.cache_clear()


def test_cap_checked_on_every_call(graph_file, capsys, monkeypatch):
    # one file throughout: the later calls find its enumeration in the cache
    path = graph_file(K3_TEXT, "k3.txt")
    for command in ("recurrents", "tutte"):
        monkeypatch.delenv("CFG_CAP_CELLS", raising=False)
        code, _, _ = run(capsys, command, path)
        assert code == 0
        code, out, err = run(capsys, command, path, "--cap", "1")
        assert code == 3 and out == "" and "cap" in err
        monkeypatch.setenv("CFG_CAP_CELLS", "abc")
        code, out, err = run(capsys, command, path)
        assert code == 2 and out == ""
        assert "CFG_CAP_CELLS must be a positive integer" in err


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_cap_environment_value(graph_file, capsys, monkeypatch, value):
    monkeypatch.setenv("CFG_CAP_CELLS", value)
    # fresh vertex names so no cached enumeration skips the cap
    path = graph_file(f"e{value} f{value}\nf{value} e{value}\n", "pair.txt")
    code, out, err = run(capsys, "recurrents", path)
    assert code == 2 and out == ""
    assert "CFG_CAP_CELLS must be a positive integer" in err
    # commands that check no cap still run under the bad value
    for argv in (
        ["stabilize", path, "--sink", f"e{value}", "--config", f"f{value}=2"],
        ["oracle", path, "--which", "arborescences"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out


class _CountingEnviron(dict):
    """An environment that counts reads of CFG_CAP_CELLS."""

    reads = 0

    def get(self, key, default=None):
        if key == "CFG_CAP_CELLS":
            self.reads += 1
        return super().get(key, default)


@pytest.mark.parametrize("setting", [None, "5000000"])
def test_cap_environment_read_once_per_run(graph_file, capsys, monkeypatch, setting):
    from chipfiring.tutte import tutte_gen

    environ = _CountingEnviron(os.environ)
    environ.pop("CFG_CAP_CELLS", None)
    if setting is not None:
        environ["CFG_CAP_CELLS"] = setting
    monkeypatch.setattr(os, "environ", environ)
    path = str(DATA / "demo5.txt")
    code, _, _ = run(capsys, "check", path, "--property", "recursions")
    assert code == 0 and environ.reads == 1
    # library callers outside the CLI still read it on every call
    g = parse_graph(path)
    tutte_gen(g, g.vertices[0])
    tutte_gen(g, g.vertices[0])
    assert environ.reads >= 3


def test_output_is_byte_stable(graph_file, capsys):
    path = graph_file(K3_TEXT)
    _, first, _ = run(capsys, "recurrents", path, "--format", "json")
    _, second, _ = run(capsys, "recurrents", path, "--format", "json")
    assert first == second
    _, first, _ = run(capsys, "check", "--property", "sink-independence", "--seed", "11", "--count", "2")
    _, second, _ = run(capsys, "check", "--property", "sink-independence", "--seed", "11", "--count", "2")
    assert first == second


def _reference_outputs(path, sink):
    """Text and JSON of ``cfg recurrents``: the text from the packed members,
    unpacked here, and the JSON from the generic encoder."""
    g = parse_graph(path)
    rs = enumerate_recurrents(g, sink)
    lines = [f"sink: {sink}", f"kappa: {rs.kappa}", f"count: {len(rs)}"]
    for vec, total, lvl in zip(unpack(g, sink, rs.members), rs.sums, rs.levels):
        chips = ",".join(f"{v}={x}" for v, x in zip(rs.domain, vec))
        lines.append(f"  {chips}  sum={total} level={lvl}")
    text = "\n".join(lines) + "\n"
    return text, json.dumps(rs.to_json_dict(), indent=2, sort_keys=True) + "\n"


# a one-vertex host prints "chips": {}; the second host has names that need
# JSON escaping or hold a "%", in a canonical (first-mention) order that
# sorting changes: 9 comes before 10, but "10" < "9"
NAMED_PAIRS = [("9", "10"), ("10", '"q'), ('"q', "\u00e9"), ("\u00e9", "a\\b"), ("a\\b", "%d")]
SPECIAL_TEXTS = ["a a\n", "".join(f"{a} {b}\n{b} {a}\n" for a, b in NAMED_PAIRS)]


def test_recurrents_writer_matches_generic_encoder(tmp_path, capsys):
    texts = SPECIAL_TEXTS + ["".join(f"{t} {h}\n" for t, h in g.arcs) for g in corpus()]
    special = []
    for i, text in enumerate(texts):
        path = tmp_path / f"g{i}.txt"
        path.write_text(text, encoding="utf-8")
        for sink in parse_graph(str(path)).vertices:
            text_out, json_out = _reference_outputs(str(path), sink)
            assert run(capsys, "recurrents", str(path), "--sink", sink) == (0, text_out, "")
            code, out, _ = run(capsys, "recurrents", str(path), "--sink", sink, "--format", "json")
            assert (code, out) == (0, json_out)
            if i < len(SPECIAL_TEXTS):
                special.append(out)
    assert '"chips": {}' in special[0]
    at_9, at_q = special[1], special[3]
    assert all(key in at_9 for key in ('"\\"q": ', '"\\u00e9": ', '"a\\\\b": ', '"%d": '))
    assert at_q.index('"10": ') < at_q.index('"9": ')


def complete_text(n: int) -> str:
    """Edge list of the complete digraph K_n on v0..v{n-1}: one arc each way per pair."""
    return "".join(f"v{i} v{j}\n" for i in range(n) for j in range(n) if i != j)


# member counts 1, 2, 3, 8 and 16: multiples of 2 and of 3, and not
@pytest.mark.parametrize("block", [1, 2, 3])
def test_recurrents_writer_blocks(tmp_path, capsys, monkeypatch, block):
    monkeypatch.setattr(cli, "WRITE_BLOCK", block)
    texts = [C3_TEXT, BANANA_TEXT, K3_TEXT, "a b\nb c\nc d\nd a\na a\n" * 2, complete_text(4)]
    texts += SPECIAL_TEXTS
    counts = set()
    for i, text in enumerate(texts):
        path = tmp_path / f"g{i}.txt"
        path.write_text(text, encoding="utf-8")
        g = parse_graph(str(path))
        for sink in g.vertices:
            text_out, json_out = _reference_outputs(str(path), sink)
            counts.add(len(enumerate_recurrents(g, sink)))
            assert run(capsys, "recurrents", str(path), "--sink", sink) == (0, text_out, "")
            code, out, _ = run(capsys, "recurrents", str(path), "--sink", sink, "--format", "json")
            assert (code, out) == (0, json_out)
    assert {n % block == 0 for n in counts} == ({True} if block == 1 else {True, False})
    assert max(counts) > 3 * block


class _Digest:
    """A stdout that keeps only the length and hash of what is written to it."""

    def __init__(self):
        self.size, self.hash = 0, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self.size += len(data)
        self.hash.update(data)
        return len(text)

    def flush(self) -> None:
        pass


def test_recurrents_json_streams_below_its_output_size(graph_file, monkeypatch):
    path = graph_file(complete_text(7), "k7.txt")
    enumerate_recurrents(parse_graph(path), "v0")  # the record, so only the writer is traced
    out = _Digest()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(["recurrents", path, "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = _reference_outputs(path, "v0")[1].encode()
    assert code == 0 and out.hash.digest() == hashlib.sha256(expected).digest()
    assert out.size == len(expected) > 2_500_000
    assert peak < out.size


def test_recurrents_and_kappa_leave_the_record_packed(graph_file, capsys):
    from chipfiring.recurrent import _game

    path = graph_file(complete_text(7), "k7.txt")
    g = parse_graph(path)
    _game.cache_clear()
    code, _, _ = run(capsys, "recurrents", path, "--format", "json")
    rs = _game(g, 0)  # the record the run enumerated, found by the parsed graph
    assert code == 0 and len(rs) == 16_807 and "vectors" not in vars(rs)
    _game.cache_clear()
    assert kappa(g) == 21
    rs = _game(g, 0)
    assert "members" in vars(rs) and "vectors" not in vars(rs)
    _game.cache_clear()


# the child caps its own address space at its size after import plus a margin
# far below what K9's record needs (its member map alone is 16.8 MB); no other
# process is limited
_OUT_OF_MEMORY_CHILD = """
import resource, sys
from chipfiring import cli
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, ((size + 8 * 1024) * 1024, hard))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_out_of_memory_exits_3_with_one_line(graph_file):
    path = graph_file(complete_text(9), "k9.txt")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY_CHILD, "recurrents", path, "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert child.returncode == 3
    assert child.stderr == "size cap exceeded: out of memory\n"
    assert "Traceback" not in child.stderr and child.stdout == ""


_CFG_CHILD = "import sys; from chipfiring import cli; sys.exit(cli.main(sys.argv[1:]))"


def test_closed_stdout_exits_2_without_a_traceback(graph_file):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a shell pipeline
    # K7's listing is about 700 KB, far above a 64 KiB pipe buffer, so the
    # child is still writing when the reader closes the pipe after one line
    child = subprocess.Popen(
        [sys.executable, "-c", _CFG_CHILD, "recurrents", graph_file(complete_text(7), "k7.txt")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline() == b"sink: v0\n"
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert child.returncode == 2
    assert b"Traceback" not in err and b"Exception ignored" not in err
    # a short output closed before it is read fails only when stdout is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-c", _CFG_CHILD, "info", graph_file(K3_TEXT)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (2, b"")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["--help"], ["check", "-h"]])
def test_help_into_a_closed_pipe_exits_2_without_a_traceback(argv, unbuffered):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"  # help fails in print, not in the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-c", _CFG_CHILD, *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (2, b"")


def test_edge_list_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"a b\n\xff\xfe c\n")
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_byte_order_mark_is_dropped(graph_file, capsys, tmp_path):
    plain = graph_file("a b\nb a\n", "plain.txt")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbfa b\r\nb a\r\n")
    assert parse_graph(str(marked)) == parse_graph(plain)
    for fmt in ("text", "json"):
        expected = run(capsys, "info", plain, "--format", fmt)
        assert run(capsys, "info", str(marked), "--format", fmt) == expected


@pytest.mark.parametrize("value", ["abc", "1/0", ""])
def test_bad_eval_is_a_usage_error_before_any_work(graph_file, capsys, monkeypatch, value):
    def not_reached(*args):
        raise AssertionError("tutte_gen ran for an --eval value that cannot be read")

    monkeypatch.setattr(cli, "tutte_gen", not_reached)
    with pytest.raises(SystemExit) as exc:
        main(["tutte", graph_file(K3_TEXT), "--eval", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "--eval" in captured.err


@pytest.mark.parametrize("value", ["1e5000", "2.5E-5000", "1_0e4_301"])
def test_eval_exponent_out_of_range_is_a_usage_error_before_any_work(
    graph_file, capsys, monkeypatch, value
):
    def not_reached(*args):
        raise AssertionError("tutte_gen ran for an --eval exponent out of range")

    monkeypatch.setattr(cli, "tutte_gen", not_reached)
    with pytest.raises(SystemExit) as exc:
        main(["tutte", graph_file(K3_TEXT), "--eval", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "--eval" in captured.err and "out of range" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_value_past_the_digit_limit_exits_2(capsys, fmt):
    path = str(DATA / "demo5.txt")  # 2 + 3y + y^2: the point prints, its value does not
    for value in ("1e4300", "1e2200"):
        code, out, err = run(capsys, "tutte", path, "--eval", value, "--format", fmt)
        assert code == 2 and out == ""
        assert "value at the --eval point cannot be printed" in err
    code, out, _ = run(capsys, "tutte", path, "--eval", "1e2000", "--format", fmt)
    assert code == 0 and str(2 + 3 * 10**2000 + 10**4000) in out


def test_main_reads_sys_argv(graph_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["cfg", "info", graph_file(C3_TEXT), "--format=json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["arc_count"] == 3


# -------------------------------------------- parse_args against argparse

README_LINES = [
    "cfg info k3.txt",
    "cfg recurrents k3.txt --sink s --format json",
    "cfg stabilize k3.txt --sink s --config 'a=2,b=2'",
    "cfg tutte k3.txt --eval 2",
    "cfg swap k3.txt --source s --target a --config 'a=1,b=0'",
    "cfg check k3.txt --property sink-independence --verbose",
    "cfg check --property recursions --seed 7 --count 10",
    "cfg conjecture1 k3.txt --format json",
    "cfg oracle k3.txt --sink s --which arborescences",
]

# the argv shapes of perfbench's operations
PERFBENCH_ARGVS = [
    *(["check", "g00.txt", "--property", p] for p in checks.PROPERTIES),
    ["tutte", "k7.txt", "--eval", "2"],
    ["recurrents", "k7.txt", "--sink", "k0", "--format", "json"],
    ["conjecture1", "grid3x3.txt"],
]

REJECTED = {
    "missing command": [],
    "unknown command": ["bogus", "g.txt"],
    "missing required option": ["stabilize", "g.txt"],
    "bad choice": ["info", "g.txt", "--format", "xml"],
    "bad int": ["check", "--property", "theta", "--seed", "x"],
    "unknown option": ["info", "g.txt", "--colour", "red"],
    "ambiguous prefix": ["stabilize", "g.txt", "--sink", "s", "--c", "a=1"],
    "extra positional": ["info", "g.txt", "h.txt"],
    "missing graph": ["tutte", "--eval", "2"],
    "missing value": ["recurrents", "g.txt", "--sink"],
    "flag with a value": ["check", "--property", "theta", "--verbose=yes"],
}

# values for each option: accepted ones, argparse's look-alikes (-5, -.5, a
# space) and ones the option refuses
OPTION_VALUES = {
    "format": ["text", "json", "xml"],
    "cap": ["5", "-5", "+7", "abc", ""],
    "sink": ["s", "-1", "a b", "-x y", "", "-x"],
    "config": ["a=2,b=1", "", "-a=1", "--a b"],
    "eval": ["2", "3/2", "-.5", "-1/2", " 4 ", "abc", "1/0", ""],
    "source": ["s", "-2"],
    "target": ["a", "--t"],
    "property": [*checks.PROPERTIES, "bogus"],
    "seed": ["7", "-3", "x"],
    "count": ["2", "0", "1.5"],
    "verbose": [None, "1"],
    "which": ["arborescences", "acyclic", "recurrents", "trees"],
}
REQUIRED = {
    "stabilize": {"sink": "s"},
    "swap": {"source": "s", "target": "a"},
    "check": {"property": "theta"},
    "oracle": {"which": "acyclic"},
}


def parser_argvs() -> list[list[str]]:
    """Every command and option, both value forms, every prefix of every option
    name, options before and after the positional, help requests and the
    rejected shapes above; no argv twice."""
    argvs = [["-h"], ["--help"], ["--he"], ["--hel=x"], ["-x", "info", "g.txt"], ["-5"], [""]]
    argvs += [shlex.split(line)[1:] for line in README_LINES] + PERFBENCH_ARGVS
    argvs += REJECTED.values()
    for name, command in cli.COMMANDS.items():
        required = REQUIRED.get(name, {})
        needed = [token for key, value in required.items() for token in (f"--{key}", value)]
        argvs += [
            [name],
            [name, "g.txt"],
            [name, *needed],
            [name, "g.txt", *needed],
            [name, *needed, "g.txt"],
            [name, "g.txt", "h.txt", *needed],
            [name, "-h"],
            [name, "--h"],
            [name, "g.txt", "--help"],
            [name, "g.txt", *needed, "--bogus"],
            [name, "g.txt", *needed, "--bogus=1"],
            [name, *needed, "--", "-g.txt"],
            [name, "--", "g.txt", "h.txt", *needed],
        ]
        for key in command.options:
            rest = [token for k, v in required.items() if k != key for token in (f"--{k}", v)]
            for cut in range(3, len(key) + 3):
                flag = f"--{key}"[:cut]
                argvs.append([name, "g.txt", *rest, flag])
                for value in OPTION_VALUES[key]:
                    forms = [[flag]] if value is None else [[flag, value], [f"{flag}={value}"]]
                    for tokens in forms:
                        argvs.append([name, *tokens, "g.txt", *rest])
                        argvs.append([name, "g.txt", *rest, *tokens])
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def _outcome(parse, argv):
    """(exit code or None, stdout, namespace or None) of one parse."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            return None, out.getvalue(), parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), None


def compare_with_argparse(argvs) -> Counter:
    """Parse each argv with ``parse_args`` and the argparse reference, assert
    that they agree and count the outcomes.

    Accepted argvs give equal attributes and the same handler, with
    ``--eval`` read as a ``Fraction``; an ``--eval`` that ``Fraction``
    refuses, which argparse kept as text, is a usage error.  Help exits 0
    with text on stdout; every other rejection exits 2 with stdout empty.
    """
    reference = build_parser()
    counts = Counter()
    for argv in argvs:
        ref_code, ref_out, ref_args = _outcome(reference.parse_args, argv)
        code, out, args = _outcome(parse_args, argv)
        if ref_args is not None:
            expected = {key: value for key, value in vars(ref_args).items() if key != "func"}
            if expected.get("eval") is not None:
                try:
                    expected["eval"] = Fraction(expected["eval"])
                except (ValueError, ZeroDivisionError):
                    assert (code, out) == (2, ""), argv
                    counts["eval refused"] += 1
                    continue
            assert (code, out) == (None, ""), argv
            assert {key: value for key, value in vars(args).items() if key != "func"} == expected, argv
            assert args.func is ref_args.func, argv
            counts["accepted"] += 1
        elif ref_code == 0:
            assert code == 0 and out.startswith("usage: cfg"), argv
            counts["help"] += 1
        else:
            assert (ref_code, ref_out) == (2, ""), argv
            assert (code, out) == (2, ""), argv
            counts["rejected"] += 1
    return counts


def test_parse_args_agrees_with_argparse():
    argvs = parser_argvs()
    counts = compare_with_argparse(argvs)
    assert sum(counts.values()) == len(argvs)
    assert counts["accepted"] >= 500 and counts["rejected"] >= 500
    assert counts["help"] >= 24 and counts["eval refused"] >= 10
    for shape in [shlex.split(line)[1:] for line in README_LINES] + PERFBENCH_ARGVS:
        assert compare_with_argparse([shape]) == {"accepted": 1}, shape
    for reason, argv in REJECTED.items():
        assert compare_with_argparse([argv]) == {"rejected": 1}, reason
