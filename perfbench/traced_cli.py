"""``python -m pexpfan`` with spans around the traced functions.

Used by the traced run of the cli workload: stdout and the exit code are the
command's own; the last line of stderr is the span summary as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pexpfan.cli  # noqa: E402  (imports every traced module)
import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.active = True
        try:
            code = pexpfan.cli.run(sys.argv[1:])
        finally:
            tracer.active = False
            sys.stdout.flush()
            print(json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
