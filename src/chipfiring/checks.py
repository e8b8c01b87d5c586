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
from .dynamics import Configuration
from .errors import InternalCheckError, PropertyViolationError
from .graph import MultiDigraph, is_eulerian
from .recurrent import _require_eulerian


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
    try:
        common = bijection.check_sink_independence(g)
    except PropertyViolationError as exc:
        common, violation = None, exc
    for s in g.vertices:  # a sink's own sums are read again only when the multisets differ
        sums = common if common is not None else sorted(recurrent.enumerate_recurrents(g, s).sums)
        out_s = g.outdeg(s)
        report.note(f"sink {s}: raw chip totals {tuple(total - out_s for total in sums)}")
    if common is None:
        report.fail(f"{violation} ({violation.details})")
        return report
    report.note(f"sum multiset: {common}")
    k = recurrent.kappa(g)
    report.note(f"level multiset: {tuple(total - k for total in common)}")
    return report


def check_recursions(g: MultiDigraph) -> CheckReport:
    _require_eulerian(g)  # before the arc loop, whose bridge tests need strong connectivity
    report = CheckReport("recursions")
    # One verdict per distinct arc, read at its first index.  Parallel copies share
    # a kind: is_bridge is False above multiplicity 1 and reverse_partner finds the
    # same first reverse arc for each.  Each copy's rewrites hold the same arc
    # multiset in another order, so they have the same T(y) and kappa.
    verdicts: dict[tuple[str, str], tuple[str | None, bool]] = {}
    arcs = []  # (line, verdict) per arc index with a kind
    for i, (tail, head) in enumerate(g.arcs):
        if (tail, head) not in verdicts:
            kind = tutte.recursion_kind(g, i)
            verdicts[tail, head] = kind, kind is not None and tutte._arc_identity(g, kind, i)
        kind, ok = verdicts[tail, head]
        if kind is not None:
            arcs.append((f"{kind} at arc {i} ({tail}->{head})", ok))
    # a sink's Möbius terms and support table are its closed forms' two sides
    mobius, closed = [], []
    for s in filter(g.out_neighbors, g.vertices):
        ok, terms, filtered = tutte._check_mobius(g, s)
        mobius.append((f"mobius at sink {s}", ok))
        closed.extend(
            (f"closed form at sink {s}, subset {list(w)}", filtered[w] == term)
            for w, term in terms.items()
        )
    for line, ok in itertools.chain(arcs, mobius, closed):
        if ok:
            report.note(f"{line}: ok")
        else:
            report.fail(line)
    return report


def check_theta(g: MultiDigraph) -> CheckReport:
    """Sink-swap suite on chip vectors of the enumerated recurrent sets.

    The sets are burning-tested and certified by the determinant count, so the
    swap search runs on the integer core directly, and the image is recurrent
    exactly when it is a member of the target sink's set.  Each member is
    searched once per ordered pair; the reverse pair's searches are the swaps back.
    """
    report = CheckReport("theta")
    recurrents = {s: recurrent.enumerate_recurrents(g, s) for s in g.vertices}
    # the suite's own index of each set's chip vectors, for its many lookups; its
    # keys, in enumeration order, are the only decoded copy of the members
    positions = {s: {vec: j for j, vec in enumerate(rs.decode())} for s, rs in recurrents.items()}
    # per ordered pair, per source member: its swap number, its image's index
    numbers: dict[tuple[str, str], list[int]] = {}
    images: dict[tuple[str, str], list[int]] = {}
    for s1, s2 in itertools.permutations(g.vertices, 2):
        swap, out2 = bijection._swapper(g, g.vertex_index(s1), g.vertex_index(s2)), g.outdeg(s2)
        ks, js = numbers[s1, s2], images[s1, s2] = [], []
        for vec, total in zip(positions[s1], recurrents[s1].sums):
            k, state = swap(vec)
            j = positions[s2].get(tuple(state))
            if j is None:
                raise InternalCheckError("swap image is not recurrent; this cannot happen")
            if total != out2 + sum(state):
                raise InternalCheckError("swap image does not preserve the sum statistic")
            ks.append(k)
            js.append(j)
    max_swap = max_swap_minimal = 0
    for s1 in g.vertices:
        rs, config = recurrents[s1], partial(Configuration, g, s1)  # for report lines only
        vectors = list(positions[s1])
        covers, minimal = _covers(vectors, positions[s1])
        min_sum = min(rs.sums)
        for s2 in g.vertices:
            if s2 == s1:
                continue
            ks, js = numbers[s1, s2], images[s1, s2]
            back, back_js = numbers[s2, s1], images[s2, s1]
            max_swap = max(max_swap, *ks)
            max_swap_minimal = max(max_swap_minimal, *itertools.compress(ks, minimal))
            for i, (vec, total, k, j) in enumerate(zip(vectors, rs.sums, ks, js)):
                if back[j] != k:
                    report.fail(
                        f"swap symmetry broke for {config(vec)} between {s1} and {s2}: "
                        f"{k} vs {back[j]}"
                    )
                elif back_js[j] != i:  # equal numbers: the swap back ended in the round trip's state
                    report.fail(f"round trip did not return {config(vec)} augmented by {k}")
                if total == min_sum and k != 0:
                    report.fail(f"minimum configuration {config(vec)} has swap number {k}")
            for lo, hi in covers:  # covering steps join every comparable pair of members
                if ks[lo] > ks[hi]:
                    report.fail(
                        f"swap numbers not monotone: {config(vectors[lo])} <= "
                        f"{config(vectors[hi])} but {ks[lo]} > {ks[hi]}"
                    )
            if len(set(js)) != len(js):
                report.fail(f"swap map is not injective from sink {s1} to {s2}")
        del vectors, covers, minimal  # freed before the next source sink's walk, not during it
    report.note(f"max swap number observed: {max_swap}")
    report.note(f"max swap number over minimal configurations: {max_swap_minimal}")
    # composition across three sinks: experiment only, nothing is asserted
    if g.n_vertices >= 3:
        composed_equal = composed_total = 0
        for s1, s2, s3 in itertools.permutations(g.vertices[:3], 3):
            for direct, j in zip(images[s1, s3], images[s1, s2]):
                composed_total += 1
                composed_equal += direct == images[s2, s3][j]
        report.note(
            f"three-sink composition agreed on {composed_equal}/{composed_total} cases"
        )
    return report


def _covers(vectors, positions) -> tuple[list[tuple[int, int]], list[bool]]:
    """The covering steps of one recurrent set: the pairs (i, j) with member
    j = member i + e_t, ordered by j, then i, and per member whether no pair ends
    at it (no other member is <= it).  The members form an up-set of the stable
    cube, so these steps join any two comparable members; each member's lower
    neighbours are looked up in ``positions``, its vector -> index map."""
    pairs, minimal = [], []
    for j, vec in enumerate(vectors):
        below = [
            i
            for t, x in enumerate(vec)
            if x and (i := positions.get(vec[:t] + (x - 1,) + vec[t + 1 :])) is not None
        ]  # ascending: lowering an earlier coordinate gives a lexicographically smaller vector
        pairs.extend((i, j) for i in below)
        minimal.append(not below)
    return pairs, minimal


def check_max_sum(g: MultiDigraph) -> CheckReport:
    """Recurrent configurations maximize the chip total inside their class.

    The members are one per coset of the firing lattice (Holroyd et al., 2008),
    certified by ``count`` distinct member keys, so each stable cell is compared
    with the member under its coset key; nothing is settled.  Proven for
    Eulerian hosts (violations flip the verdict); on other strongly connected
    hosts the comparison is reported as an experiment only.
    """
    report = CheckReport("max-sum")
    eulerian = is_eulerian(g)
    observed_violations = 0
    for s in g.vertices:
        rs, key = lattice._keyed_game(g, s)
        best = {key(vec): sum(vec) for vec in rs.decode()}  # coset key -> its member's total
        if len(best) != rs.count:
            raise InternalCheckError(
                f"{rs.count} recurrent configurations at sink {s} have {len(best)} "
                "distinct coset keys; each class must hold exactly one"
            )
        config = partial(Configuration, g, s)  # for report lines only
        for cell in itertools.product(*map(range, rs.bounds)):
            if sum(cell) > best[key(cell)]:
                if eulerian:
                    rep = next(vec for vec in rs.decode() if key(vec) == key(cell))
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
    """Each burning run of a recurrent fires every non-sink vertex once.

    Each run is the enumeration's own burning test; ``enumerate_recurrents``
    admits Eulerian hosts only, where it burns with one sink firing (Dhar).
    """
    report = CheckReport("burning-uniqueness")
    for s in g.vertices:
        rs = recurrent.enumerate_recurrents(g, s)
        burn = rs.burner[0]
        for vec in rs.decode():
            counts = burn(vec)
            if counts is None:
                raise InternalCheckError("burning run of a recurrent did not return it")
            bad = {v: k for v, k in zip(rs.domain, counts) if k != 1}
            if bad:
                report.fail(f"burning run of {Configuration(g, s, vec)} fired {bad}")
        report.note(f"sink {s}: all {len(rs)} burning runs fired each vertex once")
    return report


_RUNNERS = {
    "sink-independence": check_sink_independence,
    "recursions": check_recursions,
    "theta": check_theta,
    "max-sum": check_max_sum,
    "burning-uniqueness": check_burning_uniqueness,
}
PROPERTIES = tuple(_RUNNERS)
