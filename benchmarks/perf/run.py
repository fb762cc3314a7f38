"""Driver entry: ``python3 benchmarks/perf/run.py --workload W --seed N
--seconds S --trace 0|1`` runs one pass and prints the result object as
the last line of stdout.  Puts the checkout root and ``src/`` on the
import path itself, so it needs no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
# Drop this directory (a script's default first entry) so the package's
# modules are only importable as ``benchmarks.perf.*``.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

if __name__ == "__main__":
    from benchmarks.perf.cli import main

    sys.exit(main(["one", *sys.argv[1:]]))
