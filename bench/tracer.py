"""In-process traced run: spans around the calls into each treegray module.

Each wrapped function records a span (name, parent span, start, end) in one
flat array; nothing inside src/ is changed.  Functions are wrapped where the
calling module binds them, so a call is attributed to the layer it enters:

    cli.main                    the root span: one call of treegray.cli.main
    cli.format                  OrderedTree.__str__, Delta.__str__, cli.encode_parens
    cli.write / cli.flush       the output stream (a hashing sink in-process)
    generator.next              next() on each gray_code iterator (cli, oracle)
    ordering.plan_step / plan_last           as bound in treegray.generator
    relations.is_adjacent.generator / .oracle  as bound in generator / oracle
    relations.is_copying        as bound in treegray.ordering
    relations.delta             as bound in treegray.cli
    tree.child                  OrderedTree.child
    oracle.verify               as bound in treegray.cli
    oracle.enumerate_all / check_co1         as bound in treegray.oracle

A span's self time is its duration minus its child spans, so the self times
of all names add up to the root span.  The spans are written to
bench/out/trace-<workload>.spans (int64 quadruples) with a JSON header.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import harness


class Sink:
    """Stands in for stdout: counts lines and hashes what is written."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> int:
        self.digest.update(text.encode("ascii"))
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


class _TracedIterator:
    __slots__ = ("_next",)

    def __init__(self, traced_next: Callable) -> None:
        self._next = traced_next

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        return self._next()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # Four int64 per span: name id, parent span index (-1 for none),
        # start ns, end ns.
        self.spans = array("q")
        self.stack = [-1]
        self.writes = 0
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, stack[-1], clock(), 0))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * idx + 3] = clock()

        return traced

    def wrap_iterator(self, name: str, factory: Callable) -> Callable:
        def make(*args, **kwargs):
            return _TracedIterator(self.wrap(name, iter(factory(*args, **kwargs)).__next__))

        return make

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self, sink: Sink) -> None:
        import treegray.cli as cli
        import treegray.generator as generator
        import treegray.oracle as oracle
        import treegray.ordering as ordering
        from treegray.relations import Delta
        from treegray.tree import OrderedTree

        child = OrderedTree.child

        def counting_child(tree, i):
            c = child(tree, i)
            self.writes += len(c.levels)
            return c

        for owner in (cli, oracle):
            self.patch(owner, "gray_code", self.wrap_iterator("generator.next", owner.gray_code))
        wraps = [
            (generator, "plan_step", "ordering.plan_step"),
            (generator, "plan_last", "ordering.plan_last"),
            (generator, "is_adjacent", "relations.is_adjacent.generator"),
            (ordering, "is_copying", "relations.is_copying"),
            (OrderedTree, "__str__", "cli.format"),
            (Delta, "__str__", "cli.format"),
            (cli, "encode_parens", "cli.format"),
            (cli, "delta", "relations.delta"),
            (cli, "verify", "oracle.verify"),
            (oracle, "enumerate_all", "oracle.enumerate_all"),
            (oracle, "is_adjacent", "relations.is_adjacent.oracle"),
            (oracle, "check_co1", "oracle.check_co1"),
            (sink, "write", "cli.write"),
            (sink, "flush", "cli.flush"),
        ]
        for owner, attr, name in wraps:
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        self.patch(OrderedTree, "child", self.wrap("tree.child", counting_child))

    def summarize(self, keep_durations: str) -> dict[str, dict]:
        """Per name: calls and total self ns; each call's duration too for
        the one name `keep_durations`."""
        spans = self.spans
        count = len(spans) // 4
        child_ns = array("q", bytes(8 * count))
        for i in range(count):
            parent = spans[4 * i + 1]
            if parent >= 0:
                child_ns[parent] += spans[4 * i + 3] - spans[4 * i + 2]
        out = {name: {"calls": 0, "self_ns": 0, "durations": []} for name in self.names}
        for i in range(count):
            name = self.names[spans[4 * i]]
            entry = out[name]
            duration = spans[4 * i + 3] - spans[4 * i + 2]
            entry["calls"] += 1
            entry["self_ns"] += duration - child_ns[i]
            if name == keep_durations:
                entry["durations"].append(duration)
        return out

    def write_out(self, stem: str) -> None:
        out_dir = harness.BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{stem}.spans").write_bytes(self.spans.tobytes())
        header = {"fields": ["name", "parent", "start_ns", "end_ns"], "dtype": "int64", "names": self.names}
        (out_dir / f"{stem}.json").write_text(json.dumps(header) + "\n")


def _import_cli():
    """treegray.cli from this checkout's src/, never an installed copy."""
    if str(harness.SRC) not in sys.path:
        sys.path.insert(0, str(harness.SRC))
    import treegray.cli as cli

    if harness.SRC not in Path(cli.__file__).resolve().parents:
        raise harness.HarnessError(f"imported treegray from {cli.__file__}, not {harness.SRC}")
    return cli


def _timed_call(main: Callable, argv: tuple[str, ...], sink: Sink) -> tuple[int, float]:
    with contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        rc = main(list(argv))
        return rc, time.perf_counter() - t0


def _failure(rc: int, sink: Sink, workload: "harness.Workload", digests: dict):
    if rc != 0:
        return f"exit {rc}"
    return harness.check_output(digests, workload.argv, sink.lines, sink.digest.hexdigest())


def _us_per_call(entry: dict) -> float:
    return entry["self_ns"] / entry["calls"] / 1e3 if entry["calls"] else 0.0


def _traced_call(cli, workload: "harness.Workload", digests: dict, tally: "harness.Tally") -> tuple["Tracer", float]:
    tracer = Tracer()
    sink = Sink()
    try:
        tracer.install(sink)
        rc, wall = _timed_call(tracer.wrap("cli.main", cli.main), workload.argv, sink)
    finally:
        tracer.restore()
    tally.note(_failure(rc, sink, workload, digests))
    return tracer, wall


def trace_workload(workload: "harness.Workload", seconds: float, digests: dict) -> tuple[dict[str, float], "harness.Tally"]:
    """Untraced and traced runs in turn for `seconds`, at least one pair.

    The machine's speed drifts over tens of seconds, so each traced run is
    compared with the untraced run just before it; trace.overhead_frac is
    the median of those ratios, minus 1.  The per-layer figures come from
    the last traced run.
    """
    cli = _import_cli()
    tally = harness.Tally()
    untraced, ratios = [], []
    deadline = time.perf_counter() + seconds
    while True:
        sink = Sink()
        rc, wall = _timed_call(cli.main, workload.argv, sink)
        untraced.append(wall)
        tally.note(_failure(rc, sink, workload, digests))
        tracer, traced_wall = _traced_call(cli, workload, digests, tally)
        ratios.append(traced_wall / wall)
        if time.perf_counter() + wall + traced_wall > deadline:
            break

    layers = tracer.summarize("generator.next")
    tracer.write_out(f"trace-{workload.name}")
    empty = {"calls": 0, "self_ns": 0, "durations": []}

    def get(name: str) -> dict:
        return layers.get(name, empty)

    def self_s(name: str) -> float:
        return get(name)["self_ns"] / 1e9

    adj_gen, adj_oracle = get("relations.is_adjacent.generator"), get("relations.is_adjacent.oracle")
    adj_calls = adj_gen["calls"] + adj_oracle["calls"]
    adj_self = adj_gen["self_ns"] + adj_oracle["self_ns"]
    nexts = get("generator.next")["durations"]
    untraced_wall = statistics.median(untraced)
    values = {
        "tree.child.calls": get("tree.child")["calls"],
        "tree.child.self_s": self_s("tree.child"),
        "tree.writes_per_tree": tracer.writes / workload.trees,
        "relations.is_adjacent.calls": adj_calls,
        "relations.is_adjacent.self_s": adj_self / 1e9,
        "relations.is_adjacent.us_per_call": adj_self / adj_calls / 1e3 if adj_calls else 0.0,
        "relations.is_adjacent.generator.calls": adj_gen["calls"],
        "relations.is_adjacent.generator.us_per_call": _us_per_call(adj_gen),
        "relations.is_adjacent.oracle.calls": adj_oracle["calls"],
        "relations.is_adjacent.oracle.us_per_call": _us_per_call(adj_oracle),
        "relations.delta.calls": get("relations.delta")["calls"],
        "relations.delta.self_s": self_s("relations.delta"),
        "relations.is_copying.calls": get("relations.is_copying")["calls"],
        "relations.is_copying.self_s": self_s("relations.is_copying"),
        "ordering.plan_step.calls": get("ordering.plan_step")["calls"],
        "ordering.plan_step.self_s": self_s("ordering.plan_step"),
        "ordering.plan_step.us_per_call": _us_per_call(get("ordering.plan_step")),
        "ordering.plan_last.calls": get("ordering.plan_last")["calls"],
        "ordering.plan_last.self_s": self_s("ordering.plan_last"),
        "generator.next.calls": len(nexts),
        "generator.self_s": self_s("generator.next"),
        "generator.first_tree_s": nexts[0] / 1e9 if nexts else 0.0,
        "generator.next_p50_us": harness.nearest_rank(nexts, 50) / 1e3 if nexts else 0.0,
        "generator.next_p99_us": harness.nearest_rank(nexts, 99) / 1e3 if nexts else 0.0,
        "oracle.verify.self_s": self_s("oracle.verify"),
        "oracle.enumerate_all.self_s": self_s("oracle.enumerate_all"),
        "oracle.check_co1.calls": get("oracle.check_co1")["calls"],
        "oracle.check_co1.self_s": self_s("oracle.check_co1"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.format.calls": get("cli.format")["calls"],
        "cli.format.self_s": self_s("cli.format"),
        "cli.write.calls": get("cli.write")["calls"],
        "cli.write.self_s": self_s("cli.write"),
        "cli.flush.calls": get("cli.flush")["calls"],
        "cli.flush.self_s": self_s("cli.flush"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": statistics.median(ratios) - 1,
        "trace.spans": len(tracer.spans) // 4,
    }
    return values, tally
