"""The opacity modes and their one leak schedule over time buckets.

A bucket leaks when reaching a private final and reaching a public final
disagree (in weak mode: only a private final without a public one).  The
game prunes with `Mode.leaks`; both meta-strategy checks reduce their
buckets to (bucket, private final, public final) rows for `bucket_verdict`.
"""
from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .strategies import Bucket


class Mode(Enum):
    FULL = "full"
    WEAK = "weak"
    ALMOST_FULL = "almost"
    CLOSED_FULL = "closed"

    def leaks(self, priv: bool, pub: bool) -> bool:
        return priv and not pub if self is Mode.WEAK else priv != pub


def bucket_verdict(
    mode: Mode, rows: Iterable[tuple[Bucket, bool, bool]]
) -> tuple[bool, Bucket | None]:
    """(ok, first offending bucket) for ``(bucket, priv, pub)`` rows in time
    order.  An interval leak always loses; a point leak loses in full and
    weak mode, is ignored in almost mode, and in closed mode loses unless
    the previous or next interval reaches a final; there the last listed
    point is skipped, as its next interval is not listed and its periodic
    twin decides it."""
    rows = list(rows)
    finals = {b.k: priv or pub for b, priv, pub in rows if b.kind == "interval"}
    last_point = max(b.k for b, _, _ in rows if b.kind == "point")
    for bucket, priv, pub in rows:
        if not mode.leaks(priv, pub):
            continue
        if bucket.kind == "point":
            k = bucket.k
            if mode is Mode.ALMOST_FULL:
                continue
            if mode is Mode.CLOSED_FULL and (
                k == last_point or finals.get(k - 1) or finals.get(k)
            ):
                continue
        return False, bucket
    return True, None
