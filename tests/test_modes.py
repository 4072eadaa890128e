"""Truth table of the one per-mode leak schedule, written out by hand, and
the fold of `Mode.rule` against a neighbour-lookup reference.

Both meta-strategy checkers share `bucket_verdict` and the game shares
`Mode.rule`, so they can no longer catch each other's slips in it; this
table and the reference do."""
from __future__ import annotations

import itertools

from etopaq.modes import Mode, bucket_verdict
from etopaq.strategies import Bucket

FULL, WEAK, ALMOST, CLOSED = Mode.FULL, Mode.WEAK, Mode.ALMOST_FULL, Mode.CLOSED_FULL
NONE, PRIV, PUB, BOTH = (False, False), (True, False), (False, True), (True, True)


def table(*flags):
    """Rows for point 0, interval 0, point 1, ... with the given flags."""
    rows = []
    for i, (priv, pub) in enumerate(flags):
        kind = "point" if i % 2 == 0 else "interval"
        rows.append((Bucket(kind, i // 2), priv, pub))
    return rows


P1, I0 = Bucket("point", 1), Bucket("interval", 0)

CASES = [
    # (why, mode, flags, expected offending bucket or None)
    ("clean table", FULL, (NONE, BOTH, BOTH, NONE, NONE), None),
    ("interval leak, full", FULL, (NONE, PRIV, NONE), I0),
    ("interval leak, weak", WEAK, (NONE, PRIV, NONE), I0),
    ("interval leak, almost", ALMOST, (NONE, PRIV, NONE), I0),
    ("interval leak, closed", CLOSED, (NONE, PUB, NONE), I0),
    ("public-only interval leaks in full", FULL, (NONE, PUB, NONE), I0),
    ("weak ignores public-only interval", WEAK, (NONE, PUB, NONE), None),
    ("weak ignores public-only point", WEAK, (NONE, NONE, PUB, NONE, NONE), None),
    ("point leak fatal in full", FULL, (NONE, NONE, PRIV, NONE, NONE), P1),
    ("point leak fatal in weak", WEAK, (NONE, NONE, PRIV, NONE, NONE), P1),
    ("point leak ignored in almost", ALMOST, (NONE, NONE, PRIV, NONE, NONE), None),
    ("closed rescued by previous interval", CLOSED, (NONE, BOTH, PRIV, NONE, NONE), None),
    ("closed rescued by next interval", CLOSED, (NONE, NONE, PRIV, BOTH, NONE), None),
    ("closed not rescued", CLOSED, (NONE, NONE, PRIV, NONE, NONE), P1),
    ("closed point 0 has no previous interval", CLOSED, (PUB, NONE, NONE), Bucket("point", 0)),
    ("closed skips the last point", CLOSED, (NONE, NONE, PRIV), None),
    ("only closed skips the last point", FULL, (NONE, NONE, PRIV), P1),
    ("first offender wins", FULL, (NONE, NONE, PRIV, PUB, NONE), P1),
]


def test_bucket_verdict_truth_table():
    for why, mode, flags, expected in CASES:
        ok, offending = bucket_verdict(mode, table(*flags))
        assert (ok, offending) == (expected is None, expected), why


def test_leaks_predicate():
    for mode in Mode:
        assert not mode.leaks(False, False) and not mode.leaks(True, True)
        assert mode.leaks(True, False)
        assert mode.leaks(False, True) == (mode is not Mode.WEAK)


def _neighbour_verdict(mode, rows):
    """The schedule by neighbour lookup: a point leak in closed mode loses
    unless the interval before or after it reaches a final, the last listed
    point being skipped."""
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


def test_rule_fold_matches_neighbour_lookup_on_every_short_table():
    """Every flag table of 1, 3, 5 or 7 buckets, in every mode."""
    checked = 0
    for mode in Mode:
        for n in range(1, 8, 2):
            for flags in itertools.product((NONE, PRIV, PUB, BOTH), repeat=n):
                rows = table(*flags)
                assert bucket_verdict(mode, rows) == _neighbour_verdict(mode, rows), (
                    mode,
                    flags,
                )
                checked += 1
    assert checked == 4 * (4 + 4**3 + 4**5 + 4**7)
