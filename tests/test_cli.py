import json

import pytest

from chipfiring import enumerate_recurrents
from chipfiring.cli import main, parse_graph

from support import DATA, corpus

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
    code, out, _ = run(
        capsys, "oracle", graph_file(K3_TEXT), "--sink", "s", "--which", "recurrents"
    )
    assert code == 0 and len(out.strip().splitlines()) == 3


def test_exit_codes(graph_file, capsys, tmp_path):
    # usage error from argparse
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


def test_output_is_byte_stable(graph_file, capsys):
    path = graph_file(K3_TEXT)
    _, first, _ = run(capsys, "recurrents", path, "--format", "json")
    _, second, _ = run(capsys, "recurrents", path, "--format", "json")
    assert first == second
    _, first, _ = run(capsys, "check", "--property", "sink-independence", "--seed", "11", "--count", "2")
    _, second, _ = run(capsys, "check", "--property", "sink-independence", "--seed", "11", "--count", "2")
    assert first == second


def _reference_outputs(path, sink):
    """Text and JSON of ``cfg recurrents`` built from the configurations and the
    generic encoder."""
    rs = enumerate_recurrents(parse_graph(path), sink)
    lines = [f"sink: {sink}", f"kappa: {rs.kappa}", f"count: {len(rs)}"]
    for c, total, lvl in zip(rs.configs, rs.sums, rs.levels):
        chips = ",".join(f"{v}={x}" for v, x in c.as_dict().items())
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
