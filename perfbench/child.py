"""One workload invocation in a fresh interpreter.

    python3 child.py --setup SRC          import interpanel.cli, build the
                                          parser, print CLOCK_MONOTONIC
    python3 child.py --spec SPEC.json     time cli.main(argv), write a result

The spec names the source tree, the CLI argv, the JSON files the CLI
writes, where to put the result and spans, whether to trace, and
optional injected sleeps. The result holds wall time of cli.main, peak
RSS and CPU time of this process, and, when traced, the per-layer
metrics.
"""

import sys
import time


def setup(src):
    sys.path.insert(0, src)
    import interpanel.cli
    interpanel.cli.build_parser()
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))


def peak_rss_mb():
    """Peak resident set of this process image, in MiB, from VmHWM.

    VmHWM belongs to the image that exec started; ru_maxrss would carry
    the forking parent's peak, so there is no fallback to it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run(spec_path):
    import json
    import os
    import resource
    import traceback

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from interpanel import cli

    import tracer
    for name, seconds in spec.get("sleep", {}).items():
        tracer.inject_sleep(name, seconds)
    tr = tracer.Tracer() if spec["trace"] else None
    if tr is not None:
        tr.install()

    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(spec["argv"])
    except Exception:
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "rc": rc, "error": error, "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "cpu_s": ru.ru_utime + ru.ru_stime,
    }
    if tr is not None:
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)
        json_bytes = sum(os.path.getsize(p) for p in spec["json_outputs"]
                         if os.path.exists(p))
        try:
            layers = tracer.layer_metrics(tr.spans)
        except ValueError as exc:
            layers, result["error"] = {}, f"trace: {exc}"
        layers["cli.main.json_bytes_out"] = (json_bytes, "bytes")
        result["layers"] = layers
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--setup"]:
        setup(sys.argv[2])
    elif sys.argv[1:2] == ["--spec"]:
        run(sys.argv[2])
    else:
        sys.exit("usage: child.py --setup SRC | --spec SPEC.json")
