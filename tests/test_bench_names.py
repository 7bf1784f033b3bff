"""The benchmark traces each layer by wrapping functions where the calling
module binds them (``dfbench/tracing.py``).  A refactor that drops one of
those names, such as ``simcheck``'s ``sat_witness`` import or
``efa.is_sat``, would silently blind a traced layer, so every name it
wraps must exist."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from dfbench.tracing import Tracer  # noqa: E402


def test_every_traced_name_exists():
    assert Tracer().absent == []
