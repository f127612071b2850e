"""Traced stand-in for ``python -m garma.cli``.

Usage: cli_driver.py SPANS.json ARGV...

Times a fresh ``import garma``, wraps garma's public functions (spans.py),
calls ``garma.cli.main(ARGV)``, writes the spans and the import time to
SPANS.json and exits with main's return code.
"""

import sys
import time


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import garma

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    import garma.cli

    code = garma.cli.main(argv)
    tracer.dump(spans_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
