"""Named property suites over a single graph, shared by the CLI and the tests.

Each suite returns a report with a verdict and printable observations.
Identities proved for the Eulerian class are asserted (a failure is a bug or a
counterexample and flips the verdict); statements that are open questions are
reported as observations and never flip the verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

from . import bijection, lattice, recurrent, tutte
from .dynamics import Configuration, _movers, _settle, add, beta, stabilize
from .errors import InternalCheckError, PropertyViolationError
from .graph import MultiDigraph, is_bridge, is_eulerian, reverse_partner

PROPERTIES = (
    "sink-independence",
    "recursions",
    "theta",
    "max-sum",
    "burning-uniqueness",
)


@dataclass
class CheckReport:
    prop: str
    ok: bool = True
    lines: list[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.lines.append(text)

    def fail(self, text: str) -> None:
        self.ok = False
        self.lines.append(f"VIOLATION: {text}")


def run_check(prop: str, g: MultiDigraph) -> CheckReport:
    try:
        runner = _RUNNERS[prop]
    except KeyError:
        raise ValueError(f"unknown property {prop!r}; choose from {PROPERTIES}") from None
    return runner(g)


def check_sink_independence(g: MultiDigraph) -> CheckReport:
    report = CheckReport("sink-independence")
    for s in g.vertices:
        rs = recurrent.enumerate_recurrents(g, s)
        raw = tuple(sorted(sum(vec) for vec in rs.vectors))
        report.note(f"sink {s}: raw chip totals {raw}")
    try:
        common = bijection.check_sink_independence(g)
    except PropertyViolationError as exc:
        report.fail(f"{exc} ({exc.details})")
        return report
    report.note(f"sum multiset: {common}")
    levels = tuple(sorted(recurrent.enumerate_recurrents(g, g.vertices[0]).levels))
    report.note(f"level multiset: {levels}")
    return report


def check_recursions(g: MultiDigraph) -> CheckReport:
    report = CheckReport("recursions")
    for i, (tail, head) in enumerate(g.arcs):
        if tail == head:
            kind = "loop"
        elif is_bridge(g, i):
            kind = "bridge_reverse" if reverse_partner(g, i) is not None else "bridge_no_reverse"
        elif reverse_partner(g, i) is not None:
            kind = "del_contract"
        else:
            continue
        if tutte.check_recursion(g, kind, i):
            report.note(f"{kind} at arc {i} ({tail}->{head}): ok")
        else:
            report.fail(f"{kind} at arc {i} ({tail}->{head})")
    for s in g.vertices:
        if g.out_neighbors(s):
            if tutte.check_recursion(g, "mobius", s):
                report.note(f"mobius at sink {s}: ok")
            else:
                report.fail(f"mobius at sink {s}")
    for s in g.vertices:
        neighbors = g.out_neighbors(s)
        for r in range(1, len(neighbors) + 1):
            for w in itertools.combinations(neighbors, r):
                if tutte.pw_closed_form_check(g, s, w):
                    report.note(f"closed form at sink {s}, subset {list(w)}: ok")
                else:
                    report.fail(f"closed form at sink {s}, subset {list(w)}")
    return report


def check_theta(g: MultiDigraph) -> CheckReport:
    """Sink-swap suite on chip vectors of the enumerated recurrent sets.

    The sets are burning-tested and certified by the determinant count, so the
    swap search runs on the integer core directly, and the image is recurrent
    exactly when it is a member of the target sink's set.
    """
    report = CheckReport("theta")
    recurrents = {s: recurrent.enumerate_recurrents(g, s) for s in g.vertices}
    max_swap = 0
    max_swap_minimal = 0
    images: dict[tuple[str, str, tuple[int, ...]], tuple[int, ...]] = {}
    for s1, s2 in itertools.permutations(g.vertices, 2):
        rs = recurrents[s1]
        i1, i2 = g.vertex_index(s1), g.vertex_index(s2)
        targets = recurrents[s2]._positions
        back_movers = _movers(g, i1)
        min_sum = min(rs.sums)
        swaps = []
        for c, total, minimal in zip(rs.configs, rs.sums, rs.minimal_flags):
            k, state = bijection._swap_search(g, i1, i2, c.chips)
            del state[i2]
            image = tuple(state)
            if image not in targets:
                raise InternalCheckError("swap image is not recurrent; this cannot happen")
            if total != g.outdeg(s2) + sum(image):
                raise InternalCheckError("swap image does not preserve the sum statistic")
            swaps.append(k)
            images[(s1, s2, c.chips)] = image
            max_swap = max(max_swap, k)
            if minimal:
                max_swap_minimal = max(max_swap_minimal, k)
            back, _ = bijection._swap_search(g, i2, i1, image)
            if back != k:
                report.fail(f"swap symmetry broke for {c} between {s1} and {s2}: {k} vs {back}")
            # the image augmented by k, stabilized toward s1, is c augmented by k
            round_trip = list(image)
            round_trip.insert(i2, g.outdeg(s2) + k)
            _settle(round_trip, back_movers)
            expected = list(c.chips)
            expected.insert(i1, g.outdeg(s1) + k)
            if round_trip != expected:
                report.fail(f"round trip did not return {c} augmented by {k}")
            if total == min_sum and k != 0:
                report.fail(f"minimum configuration {c} has swap number {k}")
        for (i, c), (j, d) in itertools.permutations(enumerate(rs.configs), 2):
            if swaps[i] > swaps[j] and all(a <= b for a, b in zip(c.chips, d.chips)):
                report.fail(f"swap numbers not monotone: {c} <= {d} but {swaps[i]} > {swaps[j]}")
        if len(set(images[(s1, s2, c.chips)] for c in rs.configs)) != len(rs.configs):
            report.fail(f"swap map is not injective from sink {s1} to {s2}")
    report.note(f"max swap number observed: {max_swap}")
    report.note(f"max swap number over minimal configurations: {max_swap_minimal}")
    # composition across three sinks: experiment only, nothing is asserted
    if g.n_vertices >= 3:
        composed_equal = 0
        composed_total = 0
        for s1, s2, s3 in itertools.permutations(g.vertices[:3], 3):
            for c in recurrents[s1].configs:
                direct = images[(s1, s3, c.chips)]
                via = images[(s2, s3, images[(s1, s2, c.chips)])]
                composed_total += 1
                composed_equal += direct == via
        report.note(
            f"three-sink composition agreed on {composed_equal}/{composed_total} cases"
        )
    return report


def check_max_sum(g: MultiDigraph) -> CheckReport:
    """Recurrent configurations maximize the chip total inside their class.

    Proven for Eulerian hosts (violations flip the verdict); on other strongly
    connected hosts the comparison is reported as an experiment only.
    """
    report = CheckReport("max-sum")
    eulerian = is_eulerian(g)
    observed_violations = 0
    for s in g.vertices:
        sink = g.vertex_index(s)
        recurrent._check_cap(g, sink)
        bounds = [out for v, out, _, _ in g._firing_table if v != sink]
        if 0 in bounds:
            continue  # no stable configuration; the host may be singular
        lat = lattice.firing_lattice(g, s)
        represent, config = lattice._representative(g, s), partial(Configuration, g, s)
        for cell in itertools.product(*map(range, bounds)):
            rep = represent(cell)
            if not lat.contains([a - b for a, b in zip(cell, rep)]):
                report.fail(f"class representative left the equivalence class of {config(cell)}")
                continue
            if sum(cell) > sum(rep):
                if eulerian:
                    report.fail(
                        f"stable {config(cell)} outweighs its recurrent representative {config(rep)}"
                    )
                else:
                    observed_violations += 1
    if eulerian:
        report.note("every stable configuration is bounded by its recurrent representative")
    else:
        report.note(
            "non-Eulerian host: observed "
            f"{observed_violations} stable configurations outweighing their representative "
            "(open question, not asserted)"
        )
    return report


def check_burning_uniqueness(g: MultiDigraph) -> CheckReport:
    report = CheckReport("burning-uniqueness")
    for s in g.vertices:
        rs = recurrent.enumerate_recurrents(g, s)
        for c in rs.configs:
            _, record = stabilize(g, add(c, beta(g, s)))
            bad = {v: record.count(v) for v in c.domain if record.count(v) != 1}
            if bad:
                report.fail(f"burning run of {c} fired {bad}")
        report.note(f"sink {s}: all {len(rs)} burning runs fired each vertex once")
    return report


_RUNNERS = {
    "sink-independence": check_sink_independence,
    "recursions": check_recursions,
    "theta": check_theta,
    "max-sum": check_max_sum,
    "burning-uniqueness": check_burning_uniqueness,
}
