"""Run the `weylchar` CLI with the benchmark's spans installed.

Usage: python3 perfbench/launch_cli.py <weylchar arguments>.  Behaves like
`python -m weylchar.cli` (same stdout, same exit code) and, at exit, prints
one line on stderr: TRACE_MARK followed by the span statistics as JSON.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import weylchar.cli  # noqa: E402
from tracer import TRACE_MARK, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return weylchar.cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        sys.stdout.flush()
        report = {"stats": tracer.stats(), "absent": tracer.absent}
        print(TRACE_MARK + json.dumps(report), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
