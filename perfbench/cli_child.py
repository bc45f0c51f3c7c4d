"""Run one pfcert command with spans recorded, for the traced cli_commands run.

usage: cli_child.py SPAN_FILE SPAWN_TIME PFCERT_ARGS...

SPAWN_TIME is the parent's perf_counter() just before it started this
process; the clock is system-wide, so the first span, cli.import, covers
interpreter start-up plus `import pfcert.cli`.
"""

import sys
from time import perf_counter

span_file, spawn_time = sys.argv[1], float(sys.argv[2])

import pfcert.cli  # noqa: E402

imported = perf_counter()

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.spans.append(("cli.import", spawn_time, imported, -1, -1, None, None, None))
tracer.install()
try:
    code = pfcert.cli.main(sys.argv[3:])
finally:
    tracer.write(span_file)
sys.exit(code)
