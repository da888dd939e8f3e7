"""Starts one measured child process per request and reports how it ran.

run.py starts this helper before it builds any large input.  On Linux a
child's peak resident memory (ru_maxrss) also counts the memory of the
process it was forked from, so children started from this small process
report their own peak.  Protocol: one JSON request per line on standard
input ({"argv", "env", "stdout", "stderr"}), one JSON reply per line on
standard output ({"seconds", "code", "maxrss_kb"}).  It exits when its
standard input closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                    env=request["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"seconds": seconds, "code": proc.returncode,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
