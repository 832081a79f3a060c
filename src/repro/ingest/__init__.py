"""Streaming ingestion: append rows while queries are being served (PR 9).

New rows land in a small uncompressed :class:`~repro.ingest.delta.DeltaStore`
per table — no bitpack, no approximation codes, so an append is O(rows) with
zero effect on the packed base segments.  Every scan / theta join / aggregate
unions base + delta: the approximate phase runs over the packed base exactly
as before, delta rows are evaluated exactly and billed on their own
``ingest.delta.*`` span phase (see :mod:`repro.ingest.union`), so a query
over settled data keeps a byte-identical modeled Timeline.  An explicit or
watermark-triggered :func:`~repro.ingest.compact.compact_table` re-decomposes
base + delta against a freshly planned global approximation — replaying the
recorded ``bwdecompose`` arguments — which makes *append then compact*
byte-identical (Result and modeled Timeline) to bulk-loading the same rows
up front, and bumps the catalog epoch that plan caches key on.
"""

from .delta import DeltaStore
from .union import apply_delta, delta_tables, run_with_delta
from .compact import compact_table

__all__ = [
    "DeltaStore",
    "apply_delta",
    "compact_table",
    "delta_tables",
    "run_with_delta",
]
