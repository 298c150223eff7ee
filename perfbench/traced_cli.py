"""Run one satlink CLI command with spans installed, in a fresh process.

Usage: python3 -X importtime perfbench/traced_cli.py <satlink arguments>

The command's output goes to stdout as usual.  The last stderr line is
PERFBENCH-TRACE followed by JSON with the span totals, the i_infty cache
counts, the validity guards that fired and where each span was bound.
"""

import json
import sys
import traceback
import warnings
from collections import Counter

from satlink.cli import main

from tracer import Tracer, cache_info
from worker import TRACE_MARK, guard_name


def run() -> int:
    spans = Tracer().install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(sys.argv[1:])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # reported as a failure cause by the caller
            traceback.print_exc()
            rc = 1
    report = {
        "trace": spans.state(),
        "cache": cache_info(),
        "guards": dict(Counter(guard_name(str(w.message)) for w in caught)),
        "coverage": spans.coverage(),
    }
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(report), file=sys.stderr)
    return rc if isinstance(rc, int) else 1


if __name__ == "__main__":
    sys.exit(run())
