"""TramLib — the paper's shared-memory-aware message aggregation library.

Construction::

    from repro.tram import make_scheme, TramConfig

    tram = make_scheme(
        "WPs", rt, TramConfig(buffer_items=1024, item_bytes=8),
        deliver_item=lambda ctx, item: ...,
    )

Inside worker handlers, call ``tram.insert(ctx, dst, payload)`` (per-item
fidelity) or ``tram.insert_bulk(ctx, counts)`` (flow fidelity), and
``tram.flush(ctx)`` at end-of-phase. See
:mod:`repro.tram.schemes` for the scheme catalogue and
:class:`~repro.tram.config.TramConfig` for flush policies (explicit /
idle / timeout / priority).
"""

from repro.tram.buffer import CountBuffer, ItemBuffer, proportional_take
from repro.tram.config import TramConfig
from repro.tram.item import BulkBatch, Item, ItemBatch
from repro.tram.schemes import (
    SCHEME_NAMES,
    DirectScheme,
    PPScheme,
    SchemeBase,
    WPsScheme,
    WsPScheme,
    WWScheme,
    make_scheme,
)
from repro.tram.stats import LatencyAggregate, TramStats

__all__ = [
    "BulkBatch",
    "CountBuffer",
    "DirectScheme",
    "Item",
    "ItemBatch",
    "ItemBuffer",
    "LatencyAggregate",
    "PPScheme",
    "SCHEME_NAMES",
    "SchemeBase",
    "TramConfig",
    "TramStats",
    "WPsScheme",
    "WWScheme",
    "WsPScheme",
    "make_scheme",
    "proportional_take",
]
