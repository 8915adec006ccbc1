"""One sha256 over every field of every ``HolonomyReport`` that the
benchmark's ``holonomy`` ops produce, to check that a change to the float
engine leaves its outputs bit for bit as they were.

    python tests/tools/report_digest.py --src path/to/checkout/src --seeds 11,12,13

The ops and the way each is run come from ``bench/workloads.py`` and
``bench/ops.py`` of this checkout, read as they are; the program comes
from ``--src`` (default: this checkout's ``src``), so the same inputs can
be digested on two trees.  Arrays enter the digest by dtype, shape and
bytes, other values by type and repr (exact for floats); an op that
raises enters by its exception.  Prints one line per seed and then the
digest over all of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def leaves(x):
    """The arrays and plain values of a report, in field order."""
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from leaves(getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from leaves(y)
    else:
        yield x


def feed(digest, report, np):
    for v in leaves(report):
        if isinstance(v, np.ndarray):
            digest.update(repr((v.dtype.str, v.shape)).encode())
            digest.update(np.ascontiguousarray(v).tobytes())
        else:
            digest.update(repr((type(v).__name__, v)).encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the arrconn package")
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    import numpy as np

    import ops
    import workloads

    mods = ops.import_program("holonomy")
    state = ops.prepare("holonomy", mods)
    total = hashlib.sha256()
    for seed in (int(s) for s in args.seeds.split(",")):
        digest = hashlib.sha256()
        items = workloads.generate("holonomy", seed)
        for op in items:
            try:
                report, _ = ops.run_op("holonomy", mods, state, op)
            except Exception as exc:  # an op that raises is part of the output
                digest.update(repr((type(exc).__name__, str(exc))).encode())
            else:
                feed(digest, report, np)
        print(f"seed {seed}: {len(items)} ops {digest.hexdigest()}")
        total.update(digest.digest())
    print(f"all: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
