"""One traced CLI call, run by worker.py as

    python perfbench/clichild.py ARGS...

with PYTHONPATH pointing at src/.  It does what `python -m trisum.cli ARGS`
does, with the span wrappers of spans.py installed after the import, and
writes its spans and the time of main() to stderr on one marked line.
"""

import json
import sys
import time

import trisum.cli

import spans


def main() -> int:
    tracer = spans.Tracer(trisum)
    tracer.install()
    t0 = time.perf_counter()
    code = trisum.cli.main(sys.argv[1:])
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    sys.stderr.write(spans.CHILD_MARK + json.dumps({"main_s": main_s, "spans": tracer.spans,
                                                 "counts": tracer.counts}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
