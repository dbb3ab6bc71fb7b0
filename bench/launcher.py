"""Spawn children from a small process and report what each one cost.

    python3 bench/launcher.py

The peak RSS that `wait4` reports for a child includes the peak RSS of
the process that spawned it, because the child starts as a copy of that
process and the kernel carries the copy's high-water mark across `exec`.
So the `cli-cold` workload does not spawn its CLI processes itself,
holding `subdebt` and its inputs in memory, but asks this process, which
imports nothing else.  Each line on standard input is a JSON list
`[argv, stdout path, stderr path]`; for each, one line
`[exit code, peak RSS in kB, wall time in ns]` is written to standard
output.  The children inherit this process's environment.  It exits at
the end of its input.
"""

import json
import os
import sys
import time


def spawn(argv: list[str], stdout: str, stderr: str, env) -> tuple[int, int, int]:
    """Run a child to completion with its output in files.

    Returns (exit code, peak RSS in kB, wall time in ns)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter_ns() - start


def main() -> None:
    for line in sys.stdin:
        argv, stdout, stderr = json.loads(line)
        print(json.dumps(spawn(argv, stdout, stderr, os.environ)), flush=True)


if __name__ == "__main__":
    main()
