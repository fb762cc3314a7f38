"""``python -m benchmarks.perf run|compare|one`` (see :mod:`.cli`)."""

import sys

from .spec import ROOT

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from .cli import main  # noqa: E402  (needs src/ on the path)

sys.exit(main())
