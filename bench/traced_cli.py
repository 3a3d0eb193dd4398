"""Run one ``proxybench`` CLI command under the benchmark tracer.

    python bench/traced_cli.py SPANS_JSON CLI_ARG...

Behaves like ``python -m proxybench.cli CLI_ARG...`` and also writes the
spans of the call to ``SPANS_JSON``: ``cli.import`` for importing the
package, then ``cli.main`` and the layer spans below it.  The package is
imported from the ``PYTHONPATH`` the caller sets.
"""

import json
import sys

from tracer import Tracer, instrument


def main(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.op = 0
    index = tracer.begin("cli.import")
    import proxybench.cli

    tracer.end(index)
    instrument(tracer)
    try:
        return tracer.call("cli.main", proxybench.cli.main, argv)
    finally:
        tracer.restore()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
