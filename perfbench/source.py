"""Put the checkout's own ``src/`` first on the import path."""

from __future__ import annotations

import os
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(CHECKOUT, "src")


def add_source_path() -> None:
    """Import ``repro`` from this checkout, never from anywhere else.

    Raises ``SystemExit`` when the checkout has no ``src/repro``: the
    benchmark measures the code beside it or nothing.
    """
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SystemExit(f"no repro package under {SOURCE}")
    if sys.path[:1] != [SOURCE]:
        sys.path.insert(0, SOURCE)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != SOURCE:
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {SOURCE}")
