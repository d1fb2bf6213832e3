"""Traced child for the page-pipeline workload.

    python3 perfbench/shim.py SPANS_JSON page --verify ...

Installs the span wrappers, runs ``fourcurv.cli.main`` on the remaining
arguments, writes the recorded spans to SPANS_JSON and exits with the CLI's
exit code.  Needs ``src/`` on PYTHONPATH, as for ``python -m fourcurv``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

import fourcurv.cli  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.request_id = 0
    tracer.install()
    try:
        rc = fourcurv.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(tracer.to_rows()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
