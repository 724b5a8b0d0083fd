"""Traced entry to the command line: the CLI's own `main` plus timing spans.

Run as `python -X importtime perfbench/clitrace.py <cli arguments>` with
`src` on PYTHONPATH.  Standard output is the CLI's; the spans go to stderr
as one `PERFBENCH_SPANS [[name, seconds], ...]` line after the import log.
"""

import json
import sys
import time


def main():
    from gpchannels import cli

    spans = []
    original = cli.run_formula_suite

    def traced():
        start = time.perf_counter()
        try:
            return original()
        finally:
            spans.append(("selfcheck.run_formula_suite", time.perf_counter() - start))

    cli.run_formula_suite = traced
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print("PERFBENCH_SPANS " + json.dumps(spans), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
