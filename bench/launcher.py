"""The process that starts the benchmark's commands.

    python bench/launcher.py

run.py starts one launcher and sends it one JSON request a line on
standard input: {"cmd": [...], "out": PATH, "err": PATH, "timeout": S}.
The launcher runs the command (in its own working directory and
environment) with standard output and error in those files, and answers
with one JSON line {"rc", "wall_s", "cpu_s", "rss_mb"}; rc is -9 when
the command was killed after `timeout` seconds.  It exits at the end
of its input.

Why a process of its own: Linux reports as a child's peak RSS (ru_maxrss
from wait4) at least the peak RSS of the process that started it.  The
harness holds the outputs, spans and checker and would set that floor
above a small evenk command.  This launcher imports almost nothing, so
the floor it sets is about that of a bare interpreter, below any evenk
command.
"""

import json
import os
import select
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def launch(cmd: list, out: str, err: str, timeout: float) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, WRITE, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)  # readable once the child has exited
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return {
        "rc": -9 if timed_out else os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(launch(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
