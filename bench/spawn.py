"""Launcher that starts, times and reaps the measured child processes.

``run.py`` starts this small process first and sends it one JSON request
per line: ``{"argv": [...], "env": {...}, "timeout": seconds}``.  For each,
it starts the child with stdout on a pipe, notes the time to the first
line and to the exit, and answers with one JSON line holding those times,
the exit code, the child's peak RSS and its stdout.

The launcher exists for the RSS.  A child's ``ru_maxrss`` starts from the
high-water mark of the process that launched it, so children launched by
``run.py`` itself, which holds the corpora, would all report ``run.py``'s
size.  This process stays smaller than any child it measures.
"""

import json
import os
import select
import signal
import sys
import time


def launch(argv, env, timeout):
    read_end, write_end = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, write_end, 1),
        (os.POSIX_SPAWN_CLOSE, read_end),
        (os.POSIX_SPAWN_CLOSE, write_end),
    ])
    os.close(write_end)
    chunks, first_s, timed_out = [], None, False
    deadline = start + timeout
    with os.fdopen(read_end, "rb", buffering=0) as pipe:
        while True:
            ready, _, _ = select.select([pipe], [], [], max(0.0, deadline - time.perf_counter()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
                break
            chunk = pipe.read(65536)
            if first_s is None and (b"\n" in chunk or not chunk):
                first_s = time.perf_counter() - start
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    return {
        "code": -9 if timed_out else os.waitstatus_to_exitcode(status),
        "wall_s": wall_s,
        "first_s": wall_s if first_s is None else first_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "stdout": b"".join(chunks).decode("utf-8", "replace"),
    }


def main() -> None:
    # Every child runs on the same CPU as the reference load it is
    # compared with.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for request in sys.stdin:
        job = json.loads(request)
        print(json.dumps(launch(job["argv"], job["env"], job["timeout"])), flush=True)


if __name__ == "__main__":
    main()
