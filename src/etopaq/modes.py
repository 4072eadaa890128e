"""The opacity modes and their one leak schedule over time buckets.

A bucket leaks when reaching a private final and reaching a public final
disagree (in weak mode: only a private final without a public one).
`Mode.rule` judges one bucket from its flags and a one-bit memo handed on
from the bucket before; the game applies it at each integer point and each
interval it closes, and `bucket_verdict` folds it over the (bucket, private
final, public final) rows of both meta-strategy checks.
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

    def rule(self, point: bool, priv: bool, pub: bool, memo: bool) -> bool | None:
        """Judges one bucket: None when it loses, else the memo the next
        bucket reads.  An interval leak always loses; a point leak loses in
        full and weak mode and is ignored in almost mode.  Closed mode
        excuses a point leak by a final in the interval before it (the memo
        it reads) or else after it (the obligation it hands on, which an
        interval reaching no final fails); after an interval the memo says
        whether it reached a final.  Only closed mode sets the memo."""
        leak = self.leaks(priv, pub)
        if point:
            if not leak or self is Mode.ALMOST_FULL:
                return False
            return not memo if self is Mode.CLOSED_FULL else None
        if leak or (memo and not (priv or pub)):
            return None
        return self is Mode.CLOSED_FULL and (priv or pub)


def bucket_verdict(
    mode: Mode, rows: Iterable[tuple[Bucket, bool, bool]]
) -> tuple[bool, Bucket | None]:
    """(ok, first offending bucket) for ``(bucket, priv, pub)`` rows in time
    order, point 0 first: `Mode.rule` folded over the rows.  An interval
    that loses without leaking failed the obligation of the point before
    it, which is reported; an obligation still pending after the last
    listed point is not failed, as its periodic twin decides it."""
    memo, point = False, None
    for bucket, priv, pub in rows:
        at_point = bucket.kind == "point"
        memo = mode.rule(at_point, priv, pub, memo)
        if memo is None:
            return False, bucket if at_point or mode.leaks(priv, pub) else point
        if at_point:
            point = bucket
    return True, None
