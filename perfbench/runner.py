"""Runs each `cfg` invocation cold, in a child forked from a parent that has
imported ``chipfiring.cli`` but never called into it.

A fresh child per operation means no ``lru_cache`` entry, ``cached_property``
value or ``CFG_CAP_CELLS`` setting can carry over from an earlier operation.
The child captures stdout in memory, times only ``cli.main``, checks its own
output after the clock has stopped and sends a small JSON result back through
a pipe.  The parent runs one child at a time and kills any child that outlives
the per-operation limit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OP_LIMIT_S = 60.0


def import_program():
    """Import ``chipfiring.cli`` from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "chipfiring" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'chipfiring'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import chipfiring.cli

    return chipfiring.cli


def setup_seconds(repeats: int) -> list[float]:
    """Scaled wall times (see speed.py) of fresh interpreters importing
    ``chipfiring.cli``, after one warm-up.  The reference kernel runs in this
    process just before and after each interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats + 1):
        reference = speed.Reference()
        reference.bracket()
        start = time.perf_counter()
        process = subprocess.Popen([sys.executable, "-c", "import chipfiring.cli"], env=env)
        # wait on a pidfd: a timed Popen.wait polls, which rounds times up to 50 ms steps
        pidfd = os.pidfd_open(process.pid)
        try:
            ended = select.select([pidfd], [], [], OP_LIMIT_S)[0]
        finally:
            os.close(pidfd)
        elapsed = time.perf_counter() - start
        if not ended:
            process.kill()
        if process.wait() != 0:
            raise RuntimeError("a fresh interpreter failed to import chipfiring.cli")
        reference.bracket()
        times.append(reference.scale(elapsed))
    return times[1:]


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process; a forked child starts from the parent's."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child(cli, op, pinned, oracle, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = list(op.argv)
    main = tracer.root(cli.main) if tracer else cli.main
    # the host-speed reference runs only untraced: its ticks would land in spans
    reference = speed.Reference()
    reference.bracket()
    ticking = contextlib.nullcontext() if tracer else reference.ticking()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0 = _cpu_seconds()
        with ticking:
            start = time.perf_counter()
            try:
                code, raised = main(argv), None
            except (Exception, SystemExit) as exc:
                code, raised = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start - reference.spent
        cpu = _cpu_seconds() - cpu0 - reference.spent
    reference.bracket()
    rss = _peak_rss_mb()
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    error = raised
    if error is None and pinned and [code, digest] != [pinned["exit"], pinned["sha256"]]:
        error = f"exit {code} / sha256 {digest[:12]} differ from the pinned output"
    if error is None:
        try:
            error = workloads.verify(op, code, text, oracle)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    if error and err.getvalue():
        error += f"; stderr: {err.getvalue()[-300:]!r}"
    result = {
        "time_s": elapsed,
        "scaled_s": reference.scale(elapsed),
        "cpu_s": cpu,
        "rss_mb": rss,
        "out_bytes": len(text.encode()),
        "exit": code,
        "sha256": digest,
        "error": error,
    }
    if tracer:
        result["trace"] = tracer.finish(op.name)
    return result


def _fork(work, limit: float):
    """Run ``work()`` in a forked child; return ``(result, None)`` or ``(None, reason)``.

    The result travels back as JSON through a pipe.  A child still running at
    ``limit`` seconds is killed; either way the child is reaped before returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(work()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks, killed = [], False
    deadline = time.monotonic() + limit
    with os.fdopen(read_fd, "rb", buffering=0) as pipe:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            if select.select([pipe], [], [], remaining)[0]:
                chunk = pipe.read(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if killed:
        return None, f"killed after the per-op limit of {limit:.3g} s"
    if status != 0 or not chunks:
        return None, f"child ended with status {status} and no result"
    return json.loads(b"".join(chunks)), None


def run_op(cli, op, *, pinned=None, oracle=None, tracer_factory=None, limit=OP_LIMIT_S) -> dict:
    """Run one operation in a forked child and return its measurements.

    ``result["error"]`` is None for a correct run and says what went wrong
    otherwise: a wrong exit code or output, an exception, a crash, or a child
    killed at ``limit`` seconds.
    """

    def work():
        tracer = tracer_factory() if tracer_factory else None
        return _child(cli, op, pinned, oracle, tracer)

    result, reason = _fork(work, limit)
    if reason:
        elapsed = limit if reason.startswith("killed") else 0.0
        result = {
            "time_s": elapsed, "scaled_s": elapsed, "cpu_s": 0.0, "rss_mb": 0.0, "out_bytes": 0,
            "error": reason,
        }
    return result


def oracle_texts(ops) -> dict[str, str]:
    """T(1, y) from ``undirected_tutte_oracle`` for each symmetric input, as text.

    Computed in a forked child, so the oracle's caches never reach the parent.
    """
    wanted = {
        op.path: op.graph
        for op in ops
        if op.kind in ("tutte", "conjecture1") and op.graph.symmetric
    }

    def work():
        from chipfiring.graph import parse_edge_list
        from chipfiring.tutte import undirected_tutte_oracle

        return {
            path: undirected_tutte_oracle(parse_edge_list(g.edge_list())).to_text()
            for path, g in wanted.items()
        }

    texts, reason = _fork(work, OP_LIMIT_S)
    if reason:
        raise RuntimeError(f"undirected Tutte oracle: {reason}")
    return texts
