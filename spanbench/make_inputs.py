"""Build a workload's input graphs in a fresh interpreter and time it.

    python3 spanbench/make_inputs.py SEED [SPEC=PATH ...]

Imports spanlab's CLI module from ``src/`` (a CLI user pays that import
on every run, and import-time work would otherwise hide from every
metric), builds each graph with ``spanlab.graphs.generate`` from SEED
and writes it to PATH.  Prints one JSON line: the whole set-up time, the
time inside ``generate``, and the sha256 of every file written.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spanlab.cli  # noqa: E402,F401
from spanlab import graphs  # noqa: E402


def main(argv: list[str]) -> None:
    seed = int(argv[0])
    generate_s = 0.0
    built = []
    for item in argv[1:]:
        spec, path = item.split("=", 1)
        t = time.perf_counter()
        g = graphs.generate(graphs.GraphSpec.parse(spec), seed)
        generate_s += time.perf_counter() - t
        graphs.write_graph_file(g, path)
        built.append(path)
    setup_s = time.perf_counter() - _T0
    digests = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in built}
    print(json.dumps({"setup_s": setup_s, "generate_s": generate_s, "files": digests}))


if __name__ == "__main__":
    main(sys.argv[1:])
