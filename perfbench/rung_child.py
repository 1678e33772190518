"""Run one CLI check with spans installed: ``rung_child.py SPANS_FILE ARGS...``.

Prints the CLI's own output, then one line with the trace summary, and
writes the raw spans to SPANS_FILE.  Exits with the CLI's status.
"""

import json
import sys
import traceback
from pathlib import Path

import gpt_tomo.cli

from ladder import TRACE_MARKER
from tracer import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = gpt_tomo.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(TRACE_MARKER + json.dumps(tracer.summary()))
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
