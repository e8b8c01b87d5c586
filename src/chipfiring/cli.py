"""Command-line front end.

``COMMANDS`` is the one table of subcommands, their handlers and options;
``parse_args`` reads argv against it in one walk with argparse's grammar, but
builds no parser and loads no locale, so a call pays only for its tokens.

Exit codes: 0 success, 1 property violation (or internal invariant failure),
2 usage or input error (a closed stdout included), 3 size cap exceeded or out
of memory.  Output is byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import contextvars
import json
import os
import random
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

from . import checks
from .bijection import theta
from .dynamics import parse_config_literal, stabilize
from .errors import (
    ChipFiringError,
    GraphError,
    InternalCheckError,
    PropertyViolationError,
    SettingError,
    SizeCapError,
)
from .families import random_eulerian
from .graph import MultiDigraph, is_eulerian, parse_edge_list
from .lattice import conjecture1_check
from .oracles import brute_acyclic_sets, brute_arborescences, brute_recurrents
from .recurrent import CELL_CAP, DEFAULT_CELL_CAP, enumerate_recurrents
from .tutte import tutte_gen

USAGE_ERROR = 2
VIOLATION = 1
SIZE_CAP = 3


def parse_graph(path: str) -> MultiDigraph:
    """Read a graph from an edge-list file (see ``parse_edge_list``); a UTF-8
    byte-order mark at its start is dropped, and text that is not UTF-8 is refused."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    return parse_edge_list(text)


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _cmd_info(args) -> int:
    g = parse_graph(args.graph)
    data = {
        "vertices": list(g.vertices),
        "arc_count": g.n_arcs,
        "arcs": [list(a) for a in g.arcs],
        "out_degrees": {v: g.outdeg(v) for v in g.vertices},
        "in_degrees": {v: g.indeg(v) for v in g.vertices},
        "loops": g.loop_count,
        "eulerian": is_eulerian(g),
        "strongly_connected": g.is_strongly_connected(),
    }
    if args.format == "json":
        _emit_json(data)
    else:
        print(f"vertices: {' '.join(g.vertices)}")
        print(f"arcs: {g.n_arcs} (loops: {g.loop_count})")
        for v in g.vertices:
            print(f"  {v}: out {g.outdeg(v)}, in {g.indeg(v)}")
        print(f"eulerian: {str(data['eulerian']).lower()}")
        print(f"strongly connected: {str(data['strongly_connected']).lower()}")
    return 0


def _cmd_stabilize(args) -> int:
    g = parse_graph(args.graph)
    c = parse_config_literal(g, args.config or "", sink=args.sink)
    stable, record = stabilize(g, c)
    data = {
        "sink": args.sink,
        "stable": stable.as_dict(),
        "firings": record.as_dict(),
        "chips_to_sink": record.chips_to_sink,
    }
    if args.format == "json":
        _emit_json(data)
    else:
        print("stable: " + ",".join(f"{v}={c}" for v, c in stable.as_dict().items()))
        print("firings: " + ",".join(f"{v}={k}" for v, k in record.as_dict().items()))
        print(f"chips to sink: {record.chips_to_sink}")
    return 0


WRITE_BLOCK = 1024  # members per write of ``cfg recurrents``


def _cmd_recurrents(args) -> int:
    """Write the finished record WRITE_BLOCK members at a time; JSON in _emit_json's bytes."""
    g = parse_graph(args.graph)
    sink = g.vertices[0] if args.sink is None else args.sink
    rs = enumerate_recurrents(g, sink)
    if args.format == "json":
        order = sorted(range(len(rs.domain)), key=rs.domain.__getitem__)
        pick = itemgetter(*order) if len(order) > 1 else tuple  # one chip or none: already in order
        keys = ",\n".join(f"        {json.dumps(rs.domain[i]).replace('%', '%%')}: %d" for i in order)
        chips = f"{{\n{keys}\n      }}" if order else "{}"
        head, sep = '{\n  "configs": [\n', ",\n"
        member = f'    {{\n      "chips": {chips},\n      "level": %d,\n      "sum": %d\n    }}'
        tail = f'\n  ],\n  "kappa": {rs.kappa},\n  "sink": {json.dumps(rs.sink)}\n}}\n'
        fields = map(tuple.__add__, map(pick, rs.decode()), zip(rs.levels(), rs.sums))
    else:
        head, sep, tail = f"sink: {sink}\nkappa: {rs.kappa}\ncount: {len(rs)}\n", "\n", "\n"
        member = "  " + ",".join(f"{v.replace('%', '%%')}=%d" for v in rs.domain) + "  sum=%d level=%d"
        fields = map(tuple.__add__, rs.decode(), zip(rs.sums, rs.levels()))
    sys.stdout.write(head)
    for start in range(0, len(rs), WRITE_BLOCK):
        block = sep.join(map(member.__mod__, islice(fields, WRITE_BLOCK)))
        sys.stdout.write(sep + block if start else block)
    sys.stdout.write(tail)
    return 0


def _cmd_tutte(args) -> int:
    g = parse_graph(args.graph)
    per_sink = {s: tutte_gen(g, s) for s in g.vertices}
    reference = per_sink[g.vertices[0]]
    consistent = all(p == reference for p in per_sink.values())
    data = {
        "polynomial": reference.to_json_dict(),
        "text": reference.to_text(),
        "consistent": consistent,
    }
    if args.eval is not None:
        try:
            data["eval"] = {"at": str(args.eval), "value": str(reference.eval(args.eval))}
        except ValueError as exc:  # str() refuses integers past Python's digit limit
            raise ChipFiringError(
                f"the value at the --eval point cannot be printed: {exc}"
            ) from None
    if args.format == "json":
        _emit_json(data)
    else:
        print(reference.to_text())
        print(f"sinks consistent: {str(consistent).lower()}")
        if args.eval is not None:
            print(f"value at {data['eval']['at']}: {data['eval']['value']}")
    return 0 if consistent else VIOLATION


def _cmd_swap(args) -> int:
    g = parse_graph(args.graph)
    c = parse_config_literal(g, args.config or "", sink=args.source)
    result = theta(g, args.source, args.target, c)
    _emit_json(result.to_json_dict())
    return 0


def _check_inputs(args):
    """The graphs ``check`` runs on, one at a time: the file, then the seeded family."""
    if args.graph:
        yield args.graph, parse_graph(args.graph)
    if args.seed is not None:
        rng = random.Random(args.seed)
        for i in range(args.count):
            yield f"random[{i}]", random_eulerian(rng)


def _cmd_check(args) -> int:
    all_ok, checked = True, False
    for name, g in _check_inputs(args):
        checked = True
        report = checks.run_check(args.property, g)
        all_ok &= report.ok
        status = "ok" if report.ok else "FAILED"
        print(f"{name}: {status}")
        if args.verbose or not report.ok:
            for line in report.lines:
                print(f"  {line}")
    if not checked:
        if args.seed is None:
            print("check needs a graph file, a --seed, or both", file=sys.stderr)
        else:
            print(f"check --seed needs --count of at least 1, got {args.count}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if all_ok else VIOLATION


def _cmd_conjecture1(args) -> int:
    g = parse_graph(args.graph)
    report = conjecture1_check(g)
    if args.format == "json":
        _emit_json(report)
    else:
        for s in g.vertices:
            print(f"sink {s}: class maxima {tuple(report['sinks'][s])}")
        print(f"consistent: {str(report['consistent']).lower()}")
    return 0


def _cmd_oracle(args) -> int:
    g = parse_graph(args.graph)
    sink = g.vertices[0] if args.sink is None else args.sink
    if args.which == "arborescences":
        print(brute_arborescences(g, sink))
    elif args.which == "acyclic":
        print(brute_acyclic_sets(g, sink))
    else:
        for c in brute_recurrents(g, sink):
            print(",".join(f"{v}={x}" for v, x in c.as_dict().items()))
    return 0


class Option(NamedTuple):
    """One ``--name`` option.  ``kind`` reads its value: ``str`` keeps it, a
    converter such as ``int`` converts it, a tuple lists the accepted values,
    and ``bool`` makes a flag that takes no value."""

    default: object = None
    kind: object = str
    required: bool = False
    help: str = ""


class Command(NamedTuple):
    func: Callable[[SimpleNamespace], int]
    help: str
    graph_required: bool
    options: dict[str, Option]


# Fraction expands a decimal exponent eagerly (1e9999999 takes seconds), and
# one above Python's default digit limit gives a value str() refuses to print
MAX_EVAL_EXPONENT = 4300


def rational(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent above MAX_EVAL_EXPONENT
    in size before it is expanded.  In Fraction's grammar an ``e`` can only
    start the exponent, so text whose part after it is no integer is refused."""
    _, marker, exponent = text.lower().rpartition("e")
    if marker and abs(int(exponent)) > MAX_EVAL_EXPONENT:
        raise _Refused(
            f"argument --eval: exponent of {text!r} is out of range "
            f"(at most {MAX_EVAL_EXPONENT} in size)"
        )
    return Fraction(text)


_CAP = Option(None, int, help="enumeration cap in stable-cube cells (default from CFG_CAP_CELLS)")
_GRAPH_HELP = "edge-list file: 'tail head [multiplicity]' per line"


def _on_graph(func, help_text: str, **options: Option) -> Command:
    """A command that needs a graph file and takes ``--format``; commands that
    check the cell cap also take ``cap=_CAP``."""
    options = {"format": Option("text", ("text", "json")), **options}
    return Command(func, help_text, True, options)


COMMANDS = {
    "info": _on_graph(_cmd_info, "describe a graph"),
    "stabilize": _on_graph(
        _cmd_stabilize,
        "stabilize a configuration for a sink",
        sink=Option(required=True),
        config=Option("", help="chip literal, e.g. 'a=2,b=1'"),
    ),
    "recurrents": _on_graph(
        _cmd_recurrents, "enumerate recurrent configurations", cap=_CAP, sink=Option()
    ),
    "tutte": _on_graph(
        _cmd_tutte,
        "generating polynomial and per-sink agreement",
        cap=_CAP,
        eval=Option(None, rational, help="also evaluate at a rational point, e.g. 2 or 3/2"),
    ),
    "swap": _on_graph(
        _cmd_swap,
        "transport a recurrent configuration to another sink",
        source=Option(required=True),
        target=Option(required=True),
        config=Option("", help="chip literal for the source sink game"),
        format=Option("json", ("json",)),
    ),
    "check": Command(
        _cmd_check,
        "run a property suite; nonzero exit on violation",
        False,
        {
            "property": Option(None, checks.PROPERTIES, required=True),
            "seed": Option(None, int, help="also run on seeded random graphs"),
            "count": Option(25, int, help="number of random graphs (default 25)"),
            "verbose": Option(False, bool),
            "cap": _CAP,
        },
    ),
    "conjecture1": _on_graph(_cmd_conjecture1, "per-sink class-maxima report", cap=_CAP),
    "oracle": _on_graph(
        _cmd_oracle,
        "brute-force reference values",
        sink=Option(),
        which=Option(None, ("arborescences", "acyclic", "recurrents"), required=True),
        format=Option("text", ("text",)),
    ),
}
_TOP_USAGE = "usage: cfg [-h] {" + ",".join(COMMANDS) + "} ..."


class _Refused(Exception):
    """A usage error; ``parse_args`` prints it under the usage line and exits 2."""


class _Help(Exception):
    """A help request, carrying the help text."""


def _cmd_help(args) -> int:
    print(args.text)
    return 0


def _metavar(name: str, option: Option) -> str:
    if option.kind is bool:
        return ""
    if isinstance(option.kind, tuple):
        return " {" + ",".join(option.kind) + "}"
    return " " + name.upper()


def _command_usage(name: str, command: Command) -> str:
    words = ["usage: cfg", name, "[-h]"]
    for key, option in command.options.items():
        word = f"--{key}{_metavar(key, option)}"
        words.append(word if option.required else f"[{word}]")
    words.append("graph" if command.graph_required else "[graph]")
    return " ".join(words)


def _command_help(name: str, command: Command) -> str:
    rows = [("graph", _GRAPH_HELP)]
    rows += [(f"--{key}{_metavar(key, o)}", o.help) for key, o in command.options.items()]
    rows.append(("-h, --help", "show this help and exit"))
    lines = [_command_usage(name, command), "", command.help, ""]
    for flag, text in rows:
        lines.append(f"  {flag:<24}{text}" if len(flag) < 24 else f"  {flag}\n{'':26}{text}")
    return "\n".join(line.rstrip() for line in lines)


def _top_help() -> str:
    lines = [_TOP_USAGE, "", "Chip-firing games on Eulerian multidigraphs.", "", "commands:"]
    lines += [f"  {name:<13}{command.help}" for name, command in COMMANDS.items()]
    lines += ["", "Run 'cfg <command> -h' for the options of one command."]
    return "\n".join(lines)


def _classify(token: str, names) -> tuple[str | None, str | None] | None:
    """Read ``token`` the way argparse does: ``None`` for a positional, else
    ``(name, value after '=')``, where ``name`` is ``None`` for an unknown option.

    ``-``, ``--``, ``-5``, ``-.5`` and a word with a space that names no option
    are positionals; a unique prefix of ``--name`` names it, an ambiguous one
    is refused; ``-hX`` is ``-h`` with the value ``X``.
    """
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[:2] != "--":
        if token[1] == "h":
            return "help", token[2:] or None
        if re.fullmatch(r"-\d+|-\d*\.\d+", token):
            return None
    else:
        head, eq, value = token[2:].partition("=")
        value = value if eq else None
        if head in names:
            return head, value
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise _Refused(f"ambiguous option: {token} could match --{', --'.join(matches)}")
        if matches:
            return matches[0], value
    return None if " " in token else (None, None)


def _read_value(key: str, spec: Option, text: str):
    if isinstance(spec.kind, tuple):
        if text not in spec.kind:
            choices = ", ".join(spec.kind)
            raise _Refused(f"argument --{key}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return spec.kind(text)
    except (ValueError, ZeroDivisionError):
        raise _Refused(f"argument --{key}: invalid {spec.kind.__name__} value: {text!r}") from None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` (without the program name) against ``COMMANDS`` in one walk.

    Returns a namespace with ``command``, ``graph``, each option of the
    command and ``func``, its handler.  Takes ``--name value`` and
    ``--name=value`` with any unique prefix of ``name``, options on either
    side of the positional, and ``--`` before a positional that starts with
    ``-``.  ``-h``/``--help`` prints help to stdout and raises
    ``SystemExit(0)``; a usage error prints the usage line and the reason to
    stderr and raises ``SystemExit(2)``.  As in argparse, unknown options and
    extra positionals are refused only after the walk, so a later ``-h`` helps.
    """
    try:
        return _read_args(argv)
    except _Help as request:
        print(request)
        raise SystemExit(0) from None


def _read_args(argv: list[str]) -> SimpleNamespace:
    """``parse_args``, with a help request raised as ``_Help``."""
    name = command = None
    try:
        extras = []
        for at, token in enumerate(argv):
            option = _classify(token, ("help",))
            if option is None:
                break
            if option[0] is None:
                extras.append(token)
            elif option[1] is not None:
                raise _Refused(f"argument --help: ignored explicit argument {option[1]!r}")
            else:
                raise _Help(_top_help())
        else:
            raise _Refused("a command is required")
        name = argv[at]
        command = COMMANDS.get(name)
        if command is None:
            raise _Refused(f"invalid command: {name!r} (choose from {', '.join(COMMANDS)})")

        names = (*command.options, "help")
        args = {"command": name, "graph": None}
        args.update((key, option.default) for key, option in command.options.items())
        tokens = iter(argv[at + 1 :])
        only_positionals = False
        for token in tokens:
            if token == "--" and not only_positionals:
                only_positionals = True
                continue
            option = None if only_positionals else _classify(token, names)
            if option is None:
                if args["graph"] is None:
                    args["graph"] = token
                else:
                    extras.append(token)
                continue
            key, value = option
            if key is None:
                extras.append(token)
            elif key == "help" or command.options[key].kind is bool:
                if value is not None:
                    raise _Refused(f"argument --{key}: ignored explicit argument {value!r}")
                if key == "help":
                    raise _Help(_command_help(name, command))
                args[key] = True
            else:
                if value is None:
                    value = next(tokens, None)
                    if value in (None, "--") or _classify(value, names) is not None:
                        raise _Refused(f"argument --{key}: expected one argument")
                args[key] = _read_value(key, command.options[key], value)
        missing = ["graph"] if command.graph_required and args["graph"] is None else []
        missing += [f"--{k}" for k, o in command.options.items() if o.required and args[k] is None]
        if missing:
            raise _Refused(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise _Refused(f"unrecognized arguments: {' '.join(extras)}")
    except _Refused as exc:
        usage = _command_usage(name, command) if command else _TOP_USAGE
        prog = f"cfg {name}" if command else "cfg"
        print(f"{usage}\n{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR) from None
    return SimpleNamespace(**args, func=command.func)


def main(argv=None) -> int:
    try:
        args = _read_args(sys.argv[1:] if argv is None else argv)
    except _Help as request:
        # help is this run's output, so _run writes it and handles a closed stdout
        args = SimpleNamespace(text=str(request), func=_cmd_help)
    # the cap holds in a copy of the context, so it ends with this call
    return contextvars.copy_context().run(_run, args)


def environment_cap() -> int:
    """CFG_CAP_CELLS, or the default when it is unset; SettingError if invalid."""
    raw = os.environ.get("CFG_CAP_CELLS")
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise SettingError(f"CFG_CAP_CELLS must be a positive integer, got {raw!r}")
    return cap


def _run(args) -> int:
    try:
        if hasattr(args, "cap"):  # the commands that check the cap resolve it once per run
            if args.cap is not None and args.cap < 1:
                raise SettingError("--cap must be positive")
            CELL_CAP.set(environment_cap() if args.cap is None else args.cap)
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away; stdout now points at devnull, so the final flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR
    except (SizeCapError, MemoryError) as exc:  # a MemoryError has no message
        print(f"size cap exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return SIZE_CAP
    except (PropertyViolationError, InternalCheckError) as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return VIOLATION
    except ChipFiringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
