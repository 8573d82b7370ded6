"""``python -m effpcm.cli`` with the layer wrappers installed (traced cli runs).

Usage: PERFBENCH_SPANS=<file> python cli_child.py <effpcm arguments>
Writes the span summary and the time ``import effpcm.cli`` took to <file>,
then exits with the CLI's own exit code (or its traceback).
"""

import time

start = time.perf_counter()
import effpcm.cli  # noqa: E402  (timed)

import_s = time.perf_counter() - start

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

recorder = tracing.SpanRecorder()
tracing.install(recorder)
try:
    code = effpcm.cli.main(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "summary": tracing.summarize(recorder)}, fh)
sys.exit(code)
