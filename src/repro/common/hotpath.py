"""Marker for hot-path functions.

``@hotpath`` is a zero-cost annotation: it tags a function as part of the
simulator's inner loop — code that must read the plain ints and flat
arrays bound at machine build time instead of falling back to
interpreted dict/dataclass lookups.  The hygiene linter
(``coma-sim lint``) enforces the discipline inside marked functions with
the HOT rules:

=======  ==============================================================
rule     meaning
=======  ==============================================================
HOT001   interpreted table dispatch: a tuple- or string-keyed subscript
         (``table[(state, event)]``, ``d["level"]``) or ``.get()`` call —
         intern the key to a small int and index a flat array
HOT002   allocation per call: a list/dict/set display, a comprehension,
         or a ``list()``/``dict()``/``set()``/``sorted()`` call — hoist
         the container out of the hot loop or precompute it at build time
HOT003   repeated multi-level attribute chain (``self.timing.nc_ns`` read
         more than once) — resolve it once into a local, or intern it on
         the object at machine build time
=======  ==============================================================

The decorator itself does nothing at runtime (no wrapper, no overhead);
the linter recognizes the bare ``@hotpath`` decoration syntactically.
"""

from __future__ import annotations


def hotpath(fn):
    """Mark ``fn`` as hot-path code held to the HOT lint rules."""
    fn.__hotpath__ = True
    return fn
