"""One benchmark operation in a fresh interpreter.

    python3 child.py SRC_DIR TRACE_OUT -- GENRANK_ARGS...

Imports genrank from SRC_DIR, runs `genrank.cli.main(GENRANK_ARGS)` once
with its standard output captured, and prints one JSON line: the exit
code, the captured output, the monotonic times at which `main` was
entered and left (the parent subtracts its spawn time to get set-up
time), the CPU time inside `main`, the peak resident set and the
pacer's reference bursts (`pace.py`), taken from the first line of this
script to just after `main` returns.  TRACE_OUT
"-" runs untraced; "+" traces and keeps the spans in memory; any other
value also writes the spans there when the operation ends.
"""

import io
import json
import os
import resource
import sys
import time


def main() -> int:
    started = time.monotonic()
    from pace import Pacer
    pacer = Pacer()
    pacer.start()
    src, trace_out, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py SRC_DIR TRACE_OUT -- ARGS...", file=sys.stderr)
        return 64
    sys.path.insert(0, src)
    import genrank.cli
    if not os.path.abspath(genrank.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"genrank was imported from {genrank.cli.__file__}, not {src}",
              file=sys.stderr)
        return 70
    tracer = None
    if trace_out != "-":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    error = None
    pacer.burst()
    cpu0, entered = time.process_time(), time.monotonic()
    try:
        code = genrank.cli.main(argv)
    except Exception as exc:  # the CLI would end here with a traceback
        code, error = 1, f"{type(exc).__name__}: {exc}"
    finally:
        left = time.monotonic()
        cpu = time.process_time() - cpu0
        pacer.burst()
        pacer.stop()
        sys.stdout = real_stdout
    report = {
        "exit": code,
        "error": error,
        "stdout": captured.getvalue(),
        "started": started,
        "entered": entered,
        "left": left,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "bursts": pacer.bursts,
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
        report["counts"] = tracer.counts
        report["missing"] = tracer.missing
        report["nested"] = tracer.nested_s("nielsen.orbit", "redundancy.search")
        if trace_out != "+":
            tracer.write(trace_out, " ".join(argv))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
