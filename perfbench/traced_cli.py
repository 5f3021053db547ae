"""Run one ``python -m repro`` command with the layer wrappers installed.

Usage: ``python -m perfbench.traced_cli SPANS.json <repro arguments>``.
Writes the span list, the memo-cache statistics and the exit code to
``SPANS.json`` and exits with the command's code.  The ``bootstrap``
span covers ``import repro.cli``; interpreter start before it is left
unattributed.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    from perfbench import tracer

    recorder = tracer.Recorder()
    recorder.add("bootstrap", "bootstrap", START, time.perf_counter())
    with tracer.installed(recorder):
        code = repro.cli.main(argv)
        memo = tracer.memo_info()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"code": code, "spans": recorder.spans, "memo": memo},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
