"""Graph container: construction, families, surgery, and serialization."""

import pytest

from graphpurify.errors import CapacityError, ParameterError
from graphpurify.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    icosahedron_graph,
    load_graph,
    parse_family,
    path_graph,
    read_edge_list,
    star_graph,
)
from oracles import edge_count, write_edge_list


class TestConstruction:
    def test_from_edges_adjacency_is_symmetric(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        for u in range(4):
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 2)])

    def test_vertex_cap(self):
        with pytest.raises(CapacityError):
            Graph.from_edges(257, [])

    def test_edges_round_trip(self):
        edges = [(0, 3), (1, 2), (0, 1)]
        g = Graph.from_edges(4, edges)
        assert g.edges() == sorted(edges)
        assert edge_count(g) == 3


class TestFamilies:
    def test_path(self):
        g = path_graph(4)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_star_hub_is_zero(self):
        g = star_graph(5)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_complete(self):
        g = complete_graph(4)
        assert edge_count(g) == 6

    def test_grid_2x3(self):
        g = grid_graph([2, 3])
        # row-major: 0 1 2 / 3 4 5
        assert g.has_edge(0, 1) and g.has_edge(1, 2)
        assert g.has_edge(0, 3) and g.has_edge(2, 5)
        assert not g.has_edge(2, 3)
        assert edge_count(g) == 7

    def test_icosahedron_is_5_regular(self):
        g = icosahedron_graph()
        assert g.n == 12
        assert all(g.degree(v) == 5 for v in range(12))
        assert edge_count(g) == 30

    def test_parse_family(self):
        assert parse_family("path:3").edges() == path_graph(3).edges()
        assert parse_family("ghz:4").edges() == star_graph(4).edges()
        assert edge_count(parse_family("grid:2x2")) == 4
        with pytest.raises(ParameterError):
            parse_family("blancmange:3")

    def test_cluster_is_the_side_3_lattice(self):
        # the family behind the 3d^2 round formula names a graph too
        assert parse_family("cluster:1") == grid_graph([3])
        assert parse_family("cluster:2") == grid_graph([3, 3])
        assert parse_family("cluster:5").n == 243
        with pytest.raises(CapacityError, match="cluster:6"):
            parse_family("cluster:6")
        for bad in ("cluster:0", "cluster:x", "cluster"):
            with pytest.raises(ParameterError):
                parse_family(bad)


class TestSurgery:
    def test_delete_vertex_relabels(self):
        g = path_graph(4)
        h, kept = g.delete_vertex(1)
        assert kept == [0, 2, 3]
        assert h.n == 3
        # old edge (2,3) is now (1,2); vertex 0 lost its only edge
        assert h.edges() == [(1, 2)]

    def test_toggle_edge(self):
        g = path_graph(3)
        h = g.toggle_edge(0, 2)
        assert h.has_edge(0, 2)
        assert h.toggle_edge(0, 2) == g

    def test_spanning_forest_skips_edgeless_components(self):
        # components {0, 1}, {2} and {3, 4}: the lone vertex 2 has no tree
        g = Graph.from_edges(5, [(0, 1), (3, 4)])
        assert g.spanning_forest() == [[(0, 1)], [(3, 4)]]
        assert Graph.from_edges(3, []).spanning_forest() == []

    def test_spanning_forest_bfs_order(self):
        assert star_graph(4).spanning_forest() == [[(0, 1), (0, 2), (0, 3)]]
        assert path_graph(4).spanning_forest() == [[(0, 1), (1, 2), (2, 3)]]
        # each tree roots at its lowest vertex; a cycle's closing edge is left out
        g = Graph.from_edges(7, [(5, 3), (3, 6), (1, 4), (4, 2), (2, 1)])
        assert g.spanning_forest() == [[(1, 2), (1, 4)], [(3, 5), (3, 6)]]


class TestSerialization:
    def test_edge_list_round_trip(self):
        g = Graph.from_edges(5, [(0, 4), (1, 2), (2, 3)])
        assert read_edge_list(write_edge_list(g)) == g

    def test_write_edge_list_format(self):
        assert write_edge_list(path_graph(3)) == "3\n0 1\n1 2\n"

    def test_load_graph_family_or_file(self, tmp_path):
        assert load_graph("cycle:5") == cycle_graph(5)
        path = tmp_path / "g.edges"
        path.write_text(write_edge_list(path_graph(3)))
        assert load_graph(str(path)) == path_graph(3)

    def test_comments_and_blanks_ignored(self):
        assert read_edge_list("# a graph\n3\n\n0 1\n# middle\n1 2\n") == path_graph(3)

    def test_repeated_edge_rejected(self):
        # two CZs on one pair cancel, so a repeated edge leaves the graph ambiguous
        for text, line in (("3\n0 1\n0 1\n", "0 1"), ("3\n0 1\n1 2\n1 0\n", "1 0")):
            with pytest.raises(ParameterError, match=f"edge line '{line}' repeats"):
                read_edge_list(text)
