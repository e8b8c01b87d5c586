"""Command-line front end.

Exit codes: 0 success, 1 property violation (or internal invariant failure),
2 usage or input error, 3 size cap exceeded.  Output is byte-stable for fixed
inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import checks
from .bijection import theta
from .dynamics import parse_config_literal, stabilize
from .errors import (
    ChipFiringError,
    GraphError,
    InternalCheckError,
    PropertyViolationError,
    SizeCapError,
)
from .families import random_eulerian
from .graph import MultiDigraph, is_eulerian, parse_edge_list
from .lattice import conjecture1_check
from .oracles import brute_acyclic_sets, brute_arborescences, brute_recurrents
from .recurrent import enumerate_recurrents
from .tutte import tutte_gen

USAGE_ERROR = 2
VIOLATION = 1
SIZE_CAP = 3


def parse_graph(path: str) -> MultiDigraph:
    """Read a graph from an edge-list file (see ``parse_edge_list``)."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
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


def _recurrents_json(rs) -> str:
    """The bytes of ``_emit_json(rs.to_json_dict())``, from one template per member."""
    order = sorted(range(len(rs.domain)), key=rs.domain.__getitem__)
    keys = ",\n".join(f"        {json.dumps(rs.domain[i]).replace('%', '%%')}: %d" for i in order)
    chips = f"{{\n{keys}\n      }}" if order else "{}"
    member = f'    {{\n      "chips": {chips},\n      "level": %d,\n      "sum": %d\n    }}'
    body = ",\n".join(
        member % (*(vec[i] for i in order), lvl, total)
        for vec, total, lvl in zip(rs.vectors, rs.sums, rs.levels)
    )
    return f'{{\n  "configs": [\n{body}\n  ],\n  "kappa": {rs.kappa},\n  "sink": {json.dumps(rs.sink)}\n}}'


def _cmd_recurrents(args) -> int:
    g = parse_graph(args.graph)
    sink = args.sink or g.vertices[0]
    rs = enumerate_recurrents(g, sink)
    if args.format == "json":
        print(_recurrents_json(rs))
    else:
        print(f"sink: {sink}\nkappa: {rs.kappa}\ncount: {len(rs)}")
        for vec, total, lvl in zip(rs.vectors, rs.sums, rs.levels):
            chips = ",".join(f"{v}={x}" for v, x in zip(rs.domain, vec))
            print(f"  {chips}  sum={total} level={lvl}")
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
        y0 = Fraction(args.eval)
        data["eval"] = {"at": str(y0), "value": str(reference.eval(y0))}
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


def _cmd_check(args) -> int:
    graphs: list[tuple[str, MultiDigraph]] = []
    if args.graph:
        graphs.append((args.graph, parse_graph(args.graph)))
    if args.seed is not None:
        rng = random.Random(args.seed)
        for i in range(args.count):
            graphs.append((f"random[{i}]", random_eulerian(rng)))
    if not graphs:
        print("check needs a graph file, a --seed, or both", file=sys.stderr)
        return USAGE_ERROR
    all_ok = True
    for name, g in graphs:
        report = checks.run_check(args.property, g)
        all_ok &= report.ok
        status = "ok" if report.ok else "FAILED"
        print(f"{name}: {status}")
        if args.verbose or not report.ok:
            for line in report.lines:
                print(f"  {line}")
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
    sink = args.sink or g.vertices[0]
    if args.which == "arborescences":
        print(brute_arborescences(g, sink))
    elif args.which == "acyclic":
        print(brute_acyclic_sets(g, sink))
    else:
        for c in brute_recurrents(g, sink):
            print(",".join(f"{v}={x}" for v, x in c.as_dict().items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfg",
        description="Chip-firing games on Eulerian multidigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, graph_required=True):
        p = sub.add_parser(name, help=help_text)
        if graph_required:
            p.add_argument("graph", help="edge-list file: 'tail head [multiplicity]' per line")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--cap",
            type=int,
            default=None,
            help="enumeration cap in stable-cube cells (default from CFG_CAP_CELLS)",
        )
        p.set_defaults(func=func)
        return p

    add("info", _cmd_info, "describe a graph")

    p = add("stabilize", _cmd_stabilize, "stabilize a configuration for a sink")
    p.add_argument("--sink", required=True)
    p.add_argument("--config", default="", help="chip literal, e.g. 'a=2,b=1'")

    p = add("recurrents", _cmd_recurrents, "enumerate recurrent configurations")
    p.add_argument("--sink", default=None)

    p = add("tutte", _cmd_tutte, "generating polynomial and per-sink agreement")
    p.add_argument("--eval", default=None, help="also evaluate at a rational point, e.g. 2 or 3/2")

    p = add("swap", _cmd_swap, "transport a recurrent configuration to another sink")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--config", default="", help="chip literal for the source sink game")

    p = sub.add_parser("check", help="run a property suite; nonzero exit on violation")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--property", required=True, choices=checks.PROPERTIES)
    p.add_argument("--seed", type=int, default=None, help="also run on seeded random graphs")
    p.add_argument("--count", type=int, default=25, help="number of random graphs")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    add("conjecture1", _cmd_conjecture1, "per-sink class-maxima report")

    p = add("oracle", _cmd_oracle, "brute-force reference values")
    p.add_argument("--sink", default=None)
    p.add_argument(
        "--which",
        required=True,
        choices=("arborescences", "acyclic", "recurrents"),
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = getattr(args, "cap", None)
    if cap is None:
        return _run(args)
    if cap < 1:
        print("error: --cap must be positive", file=sys.stderr)
        return USAGE_ERROR
    # the cap reaches the library through CFG_CAP_CELLS for this call only
    previous = os.environ.get("CFG_CAP_CELLS")
    os.environ["CFG_CAP_CELLS"] = str(cap)
    try:
        return _run(args)
    finally:
        if previous is None:
            os.environ.pop("CFG_CAP_CELLS", None)
        else:
            os.environ["CFG_CAP_CELLS"] = previous


def _run(args) -> int:
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return SIZE_CAP
    except (PropertyViolationError, InternalCheckError) as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return VIOLATION
    except ChipFiringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
