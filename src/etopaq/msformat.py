"""Meta-strategy files: JSON with stem/loop arrays of unit plans."""
from __future__ import annotations

import json

from .strategies import MetaStrategy, UnitPlan


class StrategyFormatError(ValueError):
    pass


def _list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise StrategyFormatError(f"{where} must be a list")
    return obj


def _names(obj, controllable: frozenset[str], where: str) -> frozenset[str]:
    for n in _list(obj, where):
        if not isinstance(n, str):
            raise StrategyFormatError(f"{where}: {n!r} is not an action name")
        if n not in controllable:
            raise StrategyFormatError(f"{where}: {n!r} is not a controllable action")
    return frozenset(obj)


def _plan_from(obj, controllable: frozenset[str], where: str) -> UnitPlan:
    if not isinstance(obj, dict) or set(obj) - {"point", "interval"}:
        raise StrategyFormatError(f"{where}: plan must have point/interval fields")
    interval = _list(obj.get("interval", []), f"{where}: interval")
    if not interval:
        raise StrategyFormatError(f"{where}: interval must be a nonempty list")
    return UnitPlan(
        _names(obj.get("point", []), controllable, f"{where}: point"),
        tuple(
            _names(part, controllable, f"{where}: interval[{j}]")
            for j, part in enumerate(interval)
        ),
    )


def parse(text: str, controllable: frozenset[str]) -> MetaStrategy:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StrategyFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) - {"stem", "loop"}:
        raise StrategyFormatError("top level must be an object with stem/loop fields")
    stem, loop = (
        [_plan_from(p, controllable, f"{part}[{i}]")
         for i, p in enumerate(_list(doc.get(part, []), part))]
        for part in ("stem", "loop")
    )
    if not loop:
        raise StrategyFormatError("loop must be nonempty")
    return MetaStrategy(tuple(stem), tuple(loop))


def dump(phi: MetaStrategy) -> str:
    def plan_obj(p: UnitPlan) -> dict:
        return {
            "point": sorted(p.at_point),
            "interval": [sorted(part) for part in p.in_interval],
        }
    doc = {
        "stem": [plan_obj(p) for p in phi.stem],
        "loop": [plan_obj(p) for p in phi.loop],
    }
    return json.dumps(doc, indent=2) + "\n"


def load(path: str, controllable: frozenset[str]) -> MetaStrategy:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), controllable)


def save(phi: MetaStrategy, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump(phi))
