"""TramLib aggregation schemes.

The four schemes of the paper (§III-B) plus the no-aggregation baseline:

* :class:`~repro.tram.schemes.ww.WWScheme` — per source *worker*, one
  buffer per destination *worker* (SMP-unaware).
* :class:`~repro.tram.schemes.wps.WPsScheme` — per source worker, one
  buffer per destination *process*; items grouped by PE at the
  destination.
* :class:`~repro.tram.schemes.wsp.WsPScheme` — like WPs but the source
  worker groups items before sending.
* :class:`~repro.tram.schemes.pp.PPScheme` — one *shared* buffer per
  destination process on each source process, filled by all of its
  workers through atomics.
* :class:`~repro.tram.schemes.direct.DirectScheme` — every item is its
  own message (baseline).

Use :func:`make_scheme` (re-exported as :func:`repro.tram.make_scheme`)
to construct one by name.
"""

from repro.tram.schemes.base import SchemeBase
from repro.tram.schemes.direct import DirectScheme
from repro.tram.schemes.node_level import NNScheme, WNsScheme
from repro.tram.schemes.pp import PPScheme
from repro.tram.schemes.routed2d import Routed2DScheme, grid_shape
from repro.tram.schemes.registry import SCHEME_NAMES, make_scheme
from repro.tram.schemes.wps import WPsScheme
from repro.tram.schemes.wsp import WsPScheme
from repro.tram.schemes.ww import WWScheme

__all__ = [
    "DirectScheme",
    "NNScheme",
    "WNsScheme",
    "PPScheme",
    "Routed2DScheme",
    "grid_shape",
    "SCHEME_NAMES",
    "SchemeBase",
    "WPsScheme",
    "WWScheme",
    "WsPScheme",
    "make_scheme",
]
