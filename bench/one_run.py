"""Run one command with its stdout on a pipe and report what the reader saw.

Usage: python3 -S one_run.py TIMEOUT_S -- PROGRAM ARGS...

Prints one JSON object: exit code, wall time, time to the first and last
output record, record count, SHA-256 of the output, the p50/p99 delay between
consecutive records, and the child's peak RSS from wait4.

This runs as its own small interpreter (-S, and only os and time imported
before the spawn) because Linux charges a spawned child's peak RSS with at
least its parent's peak: spawned from the harness, the child would report
the harness's memory instead of its own.
"""
import os
import time


def _nearest_rank(pairs, pct):
    """pct-th percentile by nearest rank over (value, weight) pairs."""
    total = sum(w for _, w in pairs)
    rank = max(1, -(-total * pct // 100))
    acc = 0
    for value, weight in sorted(pairs):
        acc += weight
        if acc >= rank:
            return value
    return None


def main(argv):
    timeout = float(argv[1])
    if argv[2] != "--" or len(argv) < 4:
        raise SystemExit("usage: one_run.py TIMEOUT_S -- PROGRAM ARGS...")
    cmd = argv[3:]
    # With two CPUs or more, the child gets one to itself and the reader
    # another: left to the scheduler, the two often share a CPU, which made
    # wall times swing by a third from run to run on a 2-CPU machine.  The
    # reader then busy-polls the pipe, so a record is stamped when it is
    # written; a reader asleep in read() wakes late after a long stall and
    # collects the next records in one chunk.
    cpus = sorted(os.sched_getaffinity(0))
    r, w = os.pipe()
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[-1:])
    t0 = time.perf_counter_ns()
    pid = os.posix_spawn(
        cmd[0], cmd, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)]
    )
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:1])
    os.close(w)

    import hashlib
    import json
    import signal
    from array import array

    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    digest = hashlib.sha256()
    # A chunk that completes k records spreads its wait over those k: each
    # gets (arrival - previous arrival) / k, so records that arrive together
    # are neither dropped nor counted as zero delay.
    gaps = array("d")
    weights = array("q")
    records = 0
    first = last = None
    os.set_blocking(r, len(cpus) < 2)
    while True:
        try:
            chunk = os.read(r, 1 << 16)
        except BlockingIOError:
            continue
        t = time.perf_counter_ns()
        if not chunk:
            break
        digest.update(chunk)
        k = chunk.count(b"\n")
        if k:
            if first is None:
                first = t
            else:
                gaps.append((t - last) / k)
                weights.append(k)
            last = t
            records += k
    _, status, usage = os.wait4(pid, 0)
    t_exit = time.perf_counter_ns()
    signal.setitimer(signal.ITIMER_REAL, 0)
    os.close(r)
    pairs = list(zip(gaps, weights))
    print(json.dumps({
        "exit": os.waitstatus_to_exitcode(status),
        "t0_ns": t0,
        "wall_ns": t_exit - t0,
        "first_ns": None if first is None else first - t0,
        "last_ns": None if last is None else last - t0,
        "records": records,
        "sha256": digest.hexdigest(),
        "gaps": sum(weights),
        "gap_p50_ns": _nearest_rank(pairs, 50) if pairs else None,
        "gap_p99_ns": _nearest_rank(pairs, 99) if pairs else None,
        "maxrss_kb": usage.ru_maxrss,
    }))


if __name__ == "__main__":
    import sys

    main(sys.argv)
