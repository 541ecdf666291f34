"""Start child processes on behalf of the benchmark and report their exit and peak RSS.

A child's peak RSS as ``wait4`` reports it includes the memory of the process
that forked it, so the benchmark, which holds the workload's arrays, does not
start the CLI itself: it starts this small process first, before it allocates
anything, and sends it one command per line. Each request is a JSON object
with ``cmd``, ``stdout`` and ``stderr``; the token ``{spawn}`` in ``cmd`` is
replaced by the ``time.perf_counter()`` reading taken just before the child
starts. Each reply is a JSON line with ``start``, ``end``, ``returncode`` and
``maxrss_kb``. The launcher exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import time


class Launcher:
    """The benchmark's handle on a launcher process."""

    def __init__(self, env: dict, cwd):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)

    def run(self, cmd, stdout, stderr) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "stdout": str(stdout), "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            cmd = [repr(start) if arg == "{spawn}" else arg for arg in req["cmd"]]
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"start": start, "end": end, "returncode": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
