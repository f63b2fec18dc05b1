"""Path calculus and the cover test.

Oracle (written first, frozen): a path is covered by a family when every
sufficiently long extension of it passes through a family member.  The
oracle enumerates extensions outright; the library must agree.
"""

import itertools

import pytest

from selfsim.graphs import (DirectedGraph, GraphError, Path, comparable,
                            covers, is_prefix, path_key)

from conftest import oracle_has_entrance


def oracle_covers(graph, p, family):
    """Brute force: recursively extend p; a branch is good once a family
    member is a prefix, bad if it reaches max family length (or a source)
    uncovered."""
    if not family:
        return False
    max_len = max(len(f.edges) for f in family)

    def good(q):
        if any(is_prefix(f, q) for f in family):
            return True
        if len(q.edges) >= max_len:
            return False
        outs = graph.received_by(graph.path_src(q))
        if not outs:
            return False
        return all(good(graph.extend(q, e.name)) for e in outs)

    return good(p)


@pytest.fixture(scope="module")
def diamond():
    # u receives nothing; v receives a,b; w receives c; plus a loop at w
    return DirectedGraph(
        ["u", "v", "w"],
        [("a", "u", "v"), ("b", "w", "v"), ("c", "v", "w"), ("l", "w", "w")])


def all_paths(graph, max_len):
    return graph.all_paths(max_len)


def test_path_construction_and_composition(diamond):
    p = diamond.path(["a"])
    assert p.base == "v" and diamond.path_src(p) == "u"
    q = diamond.path(["c", "a"])    # c then a: rg(a) = v = sr(c)
    assert q.base == "w" and diamond.path_src(q) == "u"
    with pytest.raises(GraphError):
        diamond.path(["a", "c"])    # rg(c) = w != sr(a) = u
    with pytest.raises(GraphError):
        diamond.path([], base=None)


def test_prefix_tail_concat_roundtrip(diamond):
    for p in all_paths(diamond, 4):
        for n in range(len(p.edges) + 1):
            pre, tail = diamond.prefix(p, n), diamond.tail_after(p, n)
            assert diamond.concat(pre, tail) == p
            assert is_prefix(pre, p)
            assert comparable(diamond, pre, p)


def test_path_key_orders_by_length_then_name(diamond):
    paths = sorted(all_paths(diamond, 3), key=path_key)
    lengths = [len(p.edges) for p in paths]
    assert lengths == sorted(lengths)


def test_sources_and_entrances(diamond):
    assert diamond.is_source("u")
    assert not diamond.is_source("v")
    assert oracle_has_entrance(diamond, diamond.vertex_path("v"))  # a and b
    assert oracle_has_entrance(diamond, diamond.vertex_path("w"))  # c and l
    assert not oracle_has_entrance(diamond, diamond.vertex_path("u"))
    assert oracle_has_entrance(diamond, diamond.path(["c", "a"]))
    assert [e.name for e in diamond.received_by("v")] == ["a", "b"]


def test_covers_matches_oracle_exhaustively(diamond):
    paths = [p for p in all_paths(diamond, 2)]
    fams = [list(c) for n in (1, 2) for c in itertools.combinations(paths, n)]
    fams += [[]]
    for p in all_paths(diamond, 1):
        for fam in fams:
            assert covers(diamond, p, fam) == oracle_covers(diamond, p, fam), \
                (str(p), [str(f) for f in fam])


def test_covers_on_loop_graph():
    g = DirectedGraph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    v = g.vertex_path("v")
    # every length-2 word covers the vertex path only if all 4 are present
    fam = [g.path(list(w)) for w in itertools.product("ef", repeat=2)]
    assert covers(g, v, fam)
    assert not covers(g, v, fam[:-1])
    assert covers(g, g.path(["e"]), [g.path(["e"])])
    assert not covers(g, g.path(["e"]), [g.path(["f"])])


def test_dot_export_is_deterministic(diamond):
    assert diamond.to_dot() == diamond.to_dot()
    assert "digraph" in diamond.to_dot()
