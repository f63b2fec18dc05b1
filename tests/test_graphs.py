"""The path calculus of a directed graph."""

import pytest

from selfsim.graphs import (DirectedGraph, GraphError, comparable, is_prefix,
                            path_key)
from selfsim.groupoids import BehavioralModel

from conftest import oracle_has_entrance


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
            assert comparable(pre, p)


def test_path_key_orders_by_length_then_name(diamond):
    paths = sorted(all_paths(diamond, 3), key=path_key)
    lengths = [len(p.edges) for p in paths]
    assert lengths == sorted(lengths)


def test_sources_and_entrances(diamond):
    assert diamond.is_source("u")
    assert not diamond.is_source("v")
    assert oracle_has_entrance(diamond, diamond.path((), base="v"))  # a and b
    assert oracle_has_entrance(diamond, diamond.path((), base="w"))  # c and l
    assert not oracle_has_entrance(diamond, diamond.path((), base="u"))
    assert oracle_has_entrance(diamond, diamond.path(["c", "a"]))
    assert [e.name for e in diamond.received_by("v")] == ["a", "b"]


def test_dot_export_is_deterministic(diamond):
    assert diamond.to_dot() == diamond.to_dot()
    assert "digraph" in diamond.to_dot()


def test_a_graph_keeps_one_order_fixed_at_construction():
    g = DirectedGraph(["w", "v", "u"],
                      [("f", "v", "w"), ("e", "u", "w"), ("d", "w", "v")])
    assert g.vertices == ("u", "v", "w")
    assert [e.name for e in g.edges] == ["d", "e", "f"]
    assert [e.name for e in g.received_by("w")] == ["e", "f"]
    assert g.received_by("w") is g.received_by("w")
    assert g.sources() == ("u",)
    # a repeated name is refused here, not left for validate
    with pytest.raises(GraphError, match="'edges' lists the name 'e' twice"):
        DirectedGraph(["v"], [("e", "v", "v"), ("a", "v", "v"),
                              ("e", "x", "v")])
    with pytest.raises(GraphError,
                       match="'vertices' lists the name 'v' twice"):
        DirectedGraph(["w", "v", "u", "v"], [])
    clash = DirectedGraph(["v", "w"], [("w", "v", "x")])
    assert clash.validate() == ["edge 'w' has unknown rng 'x'",
                                "name 'w' used for both a vertex and an edge"]
    model = BehavioralModel(["w", "v"], [("1", "v", "v", True),
                                         ("2", "w", "w", True)])
    assert model.vertices == ("v", "w")


def test_received_names_are_stored_once_per_vertex(diamond):
    for v in diamond.vertices:
        names = diamond.received_names(v)
        assert type(names) is tuple
        assert names == tuple(e.name for e in diamond.received_by(v))
        assert diamond.received_names(v) is names
    assert diamond.received_names("v") == ("a", "b")
    with pytest.raises(GraphError):
        diamond.received_names("x")

