"""Run one curator operation in a fresh process and report its peak RSS.

Usage: python3 rss_probe.py <src-dir> <curator cli args...>

Prints one JSON line: the exit code and this process's peak resident set
size in KiB.  Forked pool workers are separate processes and are not
included.

The peak is VmHWM from /proc/self/status, which belongs to the address
space this process got at exec.  getrusage's ru_maxrss is not used: Linux
carries it over exec, so it would include the launching process's peak.
"""
import contextlib
import io
import json
import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from curator import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(sys.argv[2:])
    print(json.dumps({"rc": rc, "peak_rss_kib": peak_rss_kib()}))
