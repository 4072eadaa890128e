"""The DOT exports of the paper fixtures, pinned byte for byte by digest.

Every rewrite of the region, belief or game layers must leave the exports
byte-identical; a test that only checks an export starts with ``digraph``
would let a changed ordering or label through."""
from __future__ import annotations

import hashlib
import random
import re

from conftest import fixture_path, load_space, load_ta
from etopaq import dot, prepare, taformat
from etopaq.beliefs import BeliefSpace
from etopaq.cli import main
from etopaq.game import check_exists, solve
from etopaq.graphs import bfs
from etopaq.modes import Mode
from etopaq.regions import RegionContext
from etopaq.ta import make_finals_urgent

# per fixture: regions, beliefs, beliefs --pretty, then the game in each mode
# of `Mode` (full, weak, almost, closed), each export uncapped and complete
EXPORT_DIGESTS = {
    "ta1": (
        "99ba0c9474d5a39d8c6d71683b0ba4215ef07473e0437fd92f6f6bcba48fe388",
        "34b53e447d16f2c61c5bac91d73ddeb8b03928ef8f65d530cf984a39ba78f941",
        "ad824722d293bdd78e7382be54207a485964ce087eff8e507738550960011aa5",
        "375d1b2722ef85064971f152c2674af7ffb7555d06059e72b0d68a67a4d33cbf",
        "a192a0f4000b64dd1959872902a1e70b6c1deccd9374a74d8e19d7f3c75f1f70",
        "f3210f6a3febab7d4475ac4cfc17ae9a486199867507e163158cabd8f4efc82f",
        "e5dccb806315e38ecb635bd8ce02ccb2991e749b18cebfc29238c6131eac637c",
    ),
    "ta_opaque": (
        "52f3f0c83293c4787b462e5c85ed8dc9dc62eb38b4a8b9929b2d69af056a0a07",
        "bbd53d86dfeb4f924d2ac8f68e1d686c7c1cefaf3f4a94a5e1d09905e33f56ca",
        "11da9b4184129a306c0c0c4b10021800d0daed25f94bc5ec90083ed789209378",
        "341a640203e6f112d3abe34ecff675b176cc54011792bd1c4b3790d2f3986f54",
        "55764be515af872044932445d7a8cdb0a1d2308300725a30a78825cdbb2b698a",
        "5bd28fdad7fccdb14b3391a3e7481f4b4f532ef7211edfc7891d4fc4fc98b400",
        "323207ac40fe7135d328151c3e6dde740d42a04ece29e4dd1ad94571cb5cf5bd",
    ),
    "ta_opaque2": (
        "a7776b6468bc7da131296d0b0bf32b1c3a800cc6a7875c97716f1f207eac5f12",
        "ff7c1735d84e6d25dcdd2ad695d645becc2e614ab53da3533336cd93194b3263",
        "a8de05b83ec19c0b30239d20e071cd5d1845f1f62b4624a4478ec8dd9dddee22",
        "8f7f1571b89d03a091c6c397fc35c796ceb1a994beff904f5da5fc2b964d8cff",
        "fd495a460411676604830ced634becb0fbc99dc4927ceee0915bb987c9ec810c",
        "604e8ab51d03a1adf741a1a2fdd1f9da3c8cc2e46d1a009575ba3fe679ff2829",
        "8097662e7165dcbaba56e15bd4805005a5c65460408b2eedbd6526121ebee5d3",
    ),
    "ta_counterex": (
        "a6fa845af83c8381e21671fb14617b18e3872739b777cf5a4b0cb7b43a771a17",
        "f67529957d8dac694b43ac54e7d9d6b1f8d3ff7f504434aab5154eaf1e2e50fd",
        "e6f2eee7dd7f5693181e80fdbdc6917c58bbc20efaf3702d08ee091482ef16fc",
        "6935492edbcada51f38b88ba13eea75b7658e241988e4e64db8d0fe6b4441fac",
        "6935492edbcada51f38b88ba13eea75b7658e241988e4e64db8d0fe6b4441fac",
        "205787354161affacd483beaea5b24e3cee726f19d598fb29292d7261697a89a",
        "4769d216d64e067e5db54f6916117461eb1db54306111646b95aff32a690dac0",
    ),
    "ta_nfv": (
        "d135963141eb7dfd05d08331a2e695ca38b207b8bf8bf07a2f613542921f3c1b",
        "50e487d068b262d903b1a13b866cb69ea5b02d9f11a5df1512154b2fab26a090",
        "24634c86b468c6b2f45783a29e522e23b986808b1035dfdaf63206056591890b",
        "d22ec44466d942e5467bbe0448b4c6743161e37a127fad57f368b107cf9764be",
        "49c6f0d4e3eb1468915d7cef755ba7a9e102e831bfdbaaa270c7d581ba4b09f0",
        "b0783f3684ff2fe1de53f6c34b5adb68b60a3ded310b4df6e65a0cb01ab0ca6e",
        "b0783f3684ff2fe1de53f6c34b5adb68b60a3ded310b4df6e65a0cb01ab0ca6e",
    ),
    "t2_like": (
        "1f3eeec46266e6d6716a5a803c1d3606eaa917252036fde54cbc946ca2f98f3a",
        "5e25c247314d13c3ff3930cc58c839fab02b5ece2b56fad26424bef1e17bb7e6",
        "8314b34739b4977477421d5fdcea583245d16802a7aae079a699f9d1c54b2613",
        "8510dd5379a3a5d54b528158c8075f57ed3c649e08c81b61e3febfdf6f0b744b",
        "8510dd5379a3a5d54b528158c8075f57ed3c649e08c81b61e3febfdf6f0b744b",
        "0bfcd34fb8781f0be7a62ddde2b4c832918045f7a072cb776e88ead99dae9d11",
        "0bfcd34fb8781f0be7a62ddde2b4c832918045f7a072cb776e88ead99dae9d11",
    ),
    "t3_like": (
        "02da8a944c72c5998eee5a759aede08dcdf120a958d0f4f9f7e71fe454043799",
        "4038e49ba7b3b9b56fff2acc4596c0250bb457773e001ee3dd9e939c6af126c3",
        "1f991e4d946599f2cdde0fce80c2ba2284cf9e2340e579b309f5962df511c2c5",
        "56eef6e84aec7666dc19755bd4a1fc74d6fdbfe1d9dd32af90edd8528d5b2a7c",
        "56eef6e84aec7666dc19755bd4a1fc74d6fdbfe1d9dd32af90edd8528d5b2a7c",
        "0bfcd34fb8781f0be7a62ddde2b4c832918045f7a072cb776e88ead99dae9d11",
        "a873af4c35432c1fc120816b31aff2432bea6ca47eec5300310a5512e713f1d2",
    ),
}


def _exports(name: str):
    ta = prepare(load_ta(name))
    yield dot.regions_dot(RegionContext(ta))
    yield dot.beliefs_dot(BeliefSpace(RegionContext(ta)))
    yield dot.beliefs_dot(BeliefSpace(RegionContext(ta)), pretty=True)
    for mode in Mode:
        yield dot.game_dot(BeliefSpace(RegionContext(ta)), mode)


def test_dot_exports_of_the_paper_fixtures_are_pinned_by_digest():
    assert len(EXPORT_DIGESTS) == 7
    for name, want in EXPORT_DIGESTS.items():
        got = []
        for text, stopped in _exports(name):
            assert stopped == "", name
            got.append(hashlib.sha256(text.encode()).hexdigest())
        assert tuple(got) == want, name


# --- names that hold the characters a DOT string escapes -------------------------

_DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')

QUOTED_TA = r"""ta quoted
clocks: x
controllable: ab\ a"b
uncontrollable: u
locations:
  l0 init
  l"1
  l\2
  lp private
  lf final
edges:
  l0 -> l"1 via ab\ guard: x < 1
  l"1 -> lf via u
  l0 -> l\2 via a"b
  l\2 -> lp via u guard: x > 1
  lp -> lf via u
"""


def _dot_strings(text: str) -> list[str]:
    """The unescaped quoted strings of a DOT export, after checking that
    every one closes on its line: none of the characters a string escapes
    is left outside one."""
    out = []
    for line in text.splitlines():
        assert not set(_DOT_STRING.sub("", line)) & {'"', "\\"}, line
        out += [re.sub(r"\\(.)", r"\1", s) for s in _DOT_STRING.findall(line)]
    return out


def test_dot_strings_close_when_names_hold_quotes_and_backslashes():
    ta = prepare(make_finals_urgent(taformat.parse(QUOTED_TA)))
    regions, stopped = dot.regions_dot(RegionContext(ta))
    assert stopped == ""
    labels = _dot_strings(regions)
    assert {"0/ab\\", '0/a"b'} <= set(labels)
    assert any(s.startswith('l"1') for s in labels) and any(s.startswith("l\\2") for s in labels)
    for pretty in (False, True):
        text, stopped = dot.beliefs_dot(BeliefSpace(RegionContext(ta)), pretty=pretty)
        assert stopped == ""
        tips = _dot_strings(text)
        assert any('l"1' in s for s in tips) and any("l\\2" in s for s in tips)
        assert any("ab\\" in s for s in tips) and any('a"b' in s for s in tips)
    for mode in Mode:
        text, stopped = dot.game_dot(BeliefSpace(RegionContext(ta)), mode)
        assert stopped == ""
        assert any("ab\\" in s or 'a"b' in s for s in _dot_strings(text)), mode


# --- controllable names that no edge carries --------------------------------------


def test_unused_controllable_names_change_no_export_and_no_verdict():
    """`ta_wide` is `ta_counterex` with 22 more controllable names that no
    edge carries, 24 in all.  A belief step walks only the classes of the
    names able to fire, so every export and every solve is that of
    `ta_counterex`, and as cheap: 2^24 enabled sets are never listed."""
    assert len(load_ta("ta_wide").controllable) == 24
    assert list(_exports("ta_wide")) == list(_exports("ta_counterex"))
    for mode in Mode:
        wide, narrow = (
            BeliefSpace(RegionContext(prepare(load_ta(name)))) for name in ("ta_wide", "ta_counterex")
        )
        got, want = solve(wide, mode), solve(narrow, mode)
        assert (got.status, got.witness, got.detail) == (want.status, want.witness, want.detail)
        assert (got.stats.states, got.stats.edges) == (want.stats.states, want.stats.edges), mode
        assert wide.successors_computed() == narrow.successors_computed(), mode
    assert check_exists(load_space("ta_wide")) == check_exists(load_space("ta_counterex"))


# --- every export against the store it renders ------------------------------------

_NAME = r'("(?:[^"\\]|\\.)*"|g\d+)'
_NODE_LINE = re.compile(rf"^  {_NAME} \[")
_EDGE_LINE = re.compile(rf"^  {_NAME} -> {_NAME} \[label=")


def _lines(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The node names and the (source, target) names of the edges of a DOT
    export, after checking that every other line is its frame."""
    nodes, edges = [], []
    body = text.splitlines()
    assert body[:2] == [body[0], "  rankdir=LR;"] and body[0].startswith("digraph ")
    assert body[-1] == "}"
    for line in body[2:-1]:
        edge = _EDGE_LINE.match(line)
        if edge:
            edges.append(edge.groups())
        else:
            nodes.append(_NODE_LINE.match(line).group(1))
    return nodes, edges


def test_exports_on_random_automata_write_each_node_and_edge_of_their_store_once(monkeypatch):
    """On seeded random automata, every export writes one line per node and
    one per edge of the store its walk fills, under distinct names, and its
    edges join written nodes only.  The digests pin the fixtures alone."""
    from conftest import random_ta

    from etopaq import game

    stores = []

    def kept(*args, **kwargs):
        stores.append(bfs(*args, **kwargs))
        return stores[-1]

    monkeypatch.setattr(dot, "bfs", kept)  # the region walk is the first one
    rng = random.Random(20240917)  # the seed of the acceptance suite's random draws
    checked = 0
    for i in range(30):
        ta = prepare(random_ta(rng, name=f"export{i}"))
        stores.clear()
        regions, _ = dot.regions_dot(RegionContext(ta))
        space = BeliefSpace(RegionContext(ta))
        exports = [
            (regions, stores[0]),
            (dot.beliefs_dot(space)[0], space.explore()),
            (dot.beliefs_dot(space, pretty=True)[0], space.explore()),
            (dot.game_dot(space, Mode.FULL)[0], game.explore(space, Mode.FULL, None, None)),
        ]
        for text, g in exports:
            assert g.stopped == ""
            nodes, edges = _lines(text)
            assert len(nodes) == len(set(nodes)) == len(g.nodes), ta.name
            assert len(edges) == len(g.pairs) // 2 == g.edges, ta.name
            assert {name for edge in edges for name in edge} <= set(nodes), ta.name
            checked += len(edges)
    assert checked > 1000


class _Clock:
    """A clock one second later at each reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1
        return self.now


def test_a_render_reads_no_region_once_its_time_is_up(monkeypatch):
    """Each belief's regions are read, for its name, rank and tooltip, as
    the belief is written: once the time cap has passed, neither export
    calls `RegionContext.key` or `format_region` again.  The render's first
    clock reading is 1 here, so its deadline is 1 + the cap."""
    clock = _Clock()
    monkeypatch.setattr(dot, "time", clock)
    calls = {}
    for name in ("key", "format_region"):

        def counted(self, rid, read=getattr(RegionContext, name)):
            calls["late" if clock.now > 1 + 3.5 else "early"] += 1
            return read(self, rid)

        monkeypatch.setattr(RegionContext, name, counted)
    ta = prepare(load_ta("ta_opaque"))
    for pretty in (False, True):
        clock.now = 0.0
        calls.update(early=0, late=0)
        text, stopped = dot.beliefs_dot(BeliefSpace(RegionContext(ta)), pretty, None, 3.5)
        assert stopped == "time cap 3.5s exceeded" and text.count("shape=box") == 2, pretty
        assert calls["late"] == 0 < calls["early"], (pretty, calls)


def test_a_render_past_its_time_reads_no_edge_row_past_the_last_node_written(monkeypatch):
    """Once the render's deadline has passed, every export reads the edge
    rows of the nodes it wrote and no other: `Explored.steps` is called on
    no later node.  The render's first clock reading is 1 here, so its
    deadline is 1 + the cap, and it writes 3 nodes under a 3.5 s cap."""
    from etopaq.graphs import Explored

    clock = _Clock()
    monkeypatch.setattr(dot, "time", clock)
    late = []

    def counted(self, i, read=Explored.steps):
        if clock.now > 1 + 3.5:
            late.append(i)
        return read(self, i)

    monkeypatch.setattr(Explored, "steps", counted)
    ta = prepare(load_ta("ta_opaque"))
    renders = [
        lambda: dot.regions_dot(RegionContext(ta), None, 3.5),
        lambda: dot.beliefs_dot(BeliefSpace(RegionContext(ta)), False, None, 3.5),
        lambda: dot.beliefs_dot(BeliefSpace(RegionContext(ta)), True, None, 3.5),
    ]
    renders += [
        lambda m=mode: dot.game_dot(BeliefSpace(RegionContext(ta)), m, None, 3.5) for mode in Mode
    ]
    for k, render in enumerate(renders):
        clock.now = 0.0
        late.clear()
        text, stopped = render()
        assert stopped == "time cap 3.5s exceeded" and text.count("shape=") == 3, k
        assert late and max(late) < 3, (k, late)


def test_a_render_past_the_time_cap_keeps_its_first_nodes_and_is_indeterminate(
    monkeypatch, tmp_path, capsys
):
    """The render honours the time cap on its own: where the walk finishes,
    a render that runs out of time writes the nodes it rendered, a prefix in
    id order, and the edges among them, closes the graph, and reports the
    cap; the command line exits 2 on it.  Only the render reads the slow
    clock here, one second per node, so it writes 3 nodes under a 3.5 s cap."""
    ta = prepare(load_ta("ta_opaque"))
    monkeypatch.setattr(dot, "time", _Clock())
    cut = [
        dot.regions_dot(RegionContext(ta), None, 3.5),
        dot.beliefs_dot(BeliefSpace(RegionContext(ta)), False, None, 3.5),
        dot.beliefs_dot(BeliefSpace(RegionContext(ta)), True, None, 3.5),
    ]
    cut += [dot.game_dot(BeliefSpace(RegionContext(ta)), mode, None, 3.5) for mode in Mode]
    for k, ((text, stopped), (whole, _)) in enumerate(zip(cut, _exports("ta_opaque"))):
        assert stopped == "time cap 3.5s exceeded", k
        nodes, edges = _lines(text)
        all_nodes, all_edges = _lines(whole)
        assert len(nodes) == 3 < len(all_nodes), k
        assert {name for edge in edges for name in edge} <= set(nodes), k
        if k != 2:  # a pretty name ranks its belief among the beliefs written only
            assert nodes == all_nodes[:3], k
            assert edges == [e for e in all_edges if set(e) <= set(nodes)], k
    target = tmp_path / "cut.dot"
    for extra in ([], ["--pretty"]):
        monkeypatch.setattr(dot, "time", _Clock())
        path = str(fixture_path("ta_opaque.ta"))
        assert main(["beliefs", path, "--dot", str(target), "--time-cap", "3.5", *extra]) == 2
        assert "INDETERMINATE time cap 3.5s exceeded" in capsys.readouterr().err
        assert target.read_text().count("shape=") == 3
