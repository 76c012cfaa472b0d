"""Starts and reaps the CLI children of run.py from a process that stays small.

A child's ``ru_maxrss`` is at least the resident size of the process that
started it, as it was at the ``exec``: Linux keeps that high-water mark in
the child's usage.  run.py holds the workload's files and the referee's
verified outputs, so children it started itself would report its size, not
their own.  This process imports little and keeps nothing between ops.

run.py starts it with one end of a Unix socket pair as its stdin.  Each
request is the child's argv as JSON, with the child's stdout and stderr
file descriptors attached.  The reply is a JSON object with the child's
exit code and its ``ru_maxrss`` in KiB.  An empty request ends the process.
A child still running after the timeout, the only argument, is killed.
"""

import json
import os
import signal
import socket
import sys


def main() -> int:
    timeout_s = int(sys.argv[1])
    requests = socket.socket(fileno=0)
    while True:
        message, fds, _, _ = socket.recv_fds(requests, 1 << 16, 2)
        if not message:
            return 0
        argv = json.loads(message)
        stdout, stderr = fds
        try:
            pid = os.posix_spawn(
                argv[0],
                argv,
                os.environ,
                file_actions=[
                    (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                    (os.POSIX_SPAWN_DUP2, stdout, 1),
                    (os.POSIX_SPAWN_DUP2, stderr, 2),
                ],
                setsigdef=(signal.SIGPIPE,),
            )
        finally:
            os.close(stdout)
            os.close(stderr)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(timeout_s)
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        reply = {"exit_code": os.waitstatus_to_exitcode(status), "rss_kib": usage.ru_maxrss}
        requests.sendall(json.dumps(reply).encode())


if __name__ == "__main__":
    sys.exit(main())
