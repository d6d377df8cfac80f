"""One `meskf simulate` campaign in a fresh interpreter, timed.

    python3 bench/child.py SPAWN_T RESULT_JSON [--trace SPANS_NPZ] \
        -- <arguments of meskf simulate>

SPAWN_T is the CLOCK_MONOTONIC reading of the parent just before it
started this interpreter, so set-up time counts interpreter start-up
and the import of meskf and its CLI. The campaign goes through
``meskf.cli.main``, the code behind the ``meskf`` command. With
``--trace`` the layer spans of the campaign are recorded and written
to SPANS_NPZ when it ends. RESULT_JSON receives setup_s, campaign_s
and cpu_s (the process and any children) in reference seconds
(``hostspeed``), the same three as measured, peak_rss_mb and the exit
code. The host-speed probe samples the set-up and, unless traced, the
campaign; a traced campaign is scaled by the marks around it only, so
that no probe runs inside a span.
"""

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from hostspeed import SETUP_INTERVAL_S, Probe


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    """High-water resident set of this process image. getrusage's
    ru_maxrss would also count the parent's pages copied at fork."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    spawn_t, result_path = float(argv[0]), Path(argv[1])
    rest = argv[2:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: child.py SPAWN_T RESULT_JSON "
                         "[--trace SPANS] -- SIMULATE_ARGS")
    probe = Probe()
    probe.start(SETUP_INTERVAL_S)
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from meskf import cli
    setup_end = _clock()
    probe.stop()
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"meskf imported from {cli.__file__}, not {src}")
    probe.mark()
    setup_raw_s = setup_end - spawn_t
    setup_s, _, _ = probe.scale(spawn_t, setup_end, setup_raw_s, 0.0)

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        probe.start()
    cpu0 = _cpu_s()
    t0 = _clock()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main(["simulate"] + rest[1:])
    t1 = _clock()
    cpu_raw_s = _cpu_s() - cpu0
    probe.stop()
    probe.mark()
    if tracer:
        tracer.uninstall()
        tracer.save(spans_path)
    campaign_s, cpu_s, probe_s = probe.scale(t0, t1, t1 - t0, cpu_raw_s)
    result_path.write_text(json.dumps({
        "rc": rc, "setup_s": setup_s, "campaign_s": campaign_s,
        "cpu_s": cpu_s, "setup_raw_s": setup_raw_s,
        "campaign_raw_s": t1 - t0, "cpu_raw_s": cpu_raw_s,
        "probe_ms": 1e3 * probe_s, "probe_samples": len(probe.samples),
        "peak_rss_mb": _peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
