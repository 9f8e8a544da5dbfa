"""Graph container, edge-list format, derivations, and generators."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from nullcore.errors import (
    DuplicateEdgeError,
    EdgeListParseError,
    MalformedHeaderError,
    SelfLoopError,
    VertexRangeError,
)
from nullcore.graphs import (
    Graph,
    VertexProvenance,
    add_edge,
    adjacency_matrix,
    delete_edge,
    delete_vertex,
    gen_cycle,
    gen_path,
    gen_random_bipartite,
    gen_random_graph,
    gen_random_tree,
    gen_random_unicyclic,
    gen_star,
    incidence_matrix,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_forest,
    is_tree,
    is_unicyclic,
    parse_edge_list,
    serialize_edge_list,
    subdivision,
    to_dot,
)
from nullcore.rng import SplitMix64
import nullcore.graphs

import oracle
from test_analysis import drawn_graphs


def test_graph_basic_invariants():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    assert g.n == 4 and g.m == 3
    assert g.neighbours(1) == (0, 2)
    assert g.degree(1) == 2 and g.degree(3) == 1
    assert g.has_edge(3, 2) and not g.has_edge(0, 2)
    assert g.edges() == ((0, 1), (1, 2), (2, 3))
    assert g.vertices() == (0, 1, 2, 3)
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert hash(g) == hash(Graph(4, [(0, 1), (1, 2), (2, 3)]))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_empty_and_single_vertex():
    assert Graph(0).edges() == ()
    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert is_tree(Graph(1))
    assert not is_tree(Graph(2))
    assert is_forest(Graph(2))


def test_parse_serialize_roundtrip():
    g = gen_random_graph(9, 1, 2, 12345)
    assert parse_edge_list(serialize_edge_list(g)) == g
    text = "# comment\n3 2\n\n0 1\n# mid comment\n1 2\n"
    g2 = parse_edge_list(text)
    assert g2 == Graph(3, [(0, 1), (1, 2)])
    assert serialize_edge_list(g2) == "3 2\n0 1\n1 2\n"


def test_parse_error_classes_and_line_numbers():
    with pytest.raises(MalformedHeaderError) as info:
        parse_edge_list("nope\n")
    assert info.value.line_no == 1
    with pytest.raises(MalformedHeaderError):
        parse_edge_list("")
    with pytest.raises(MalformedHeaderError):
        parse_edge_list("3 -1\n")
    with pytest.raises(VertexRangeError) as info:
        parse_edge_list("3 1\n0 7\n")
    assert info.value.line_no == 2
    with pytest.raises(SelfLoopError):
        parse_edge_list("3 1\n2 2\n")
    with pytest.raises(DuplicateEdgeError) as info:
        parse_edge_list("3 2\n0 1\n1 0\n")
    assert info.value.line_no == 3
    # wrong edge count and malformed body lines are base parse errors
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 1\n0 x\n")
    # every specific class is also the base class
    for exc in (MalformedHeaderError, VertexRangeError, SelfLoopError,
                DuplicateEdgeError):
        assert issubclass(exc, EdgeListParseError)


# One spelling per character class that int() reads but the format
# does not: a plus sign, a digit separator, a non-ASCII digit.
_LOOSE_INTEGERS = ("+1", "1_0", "\uff12")


@pytest.mark.parametrize("loose", _LOOSE_INTEGERS)
def test_header_integers_are_strict(loose):
    for head in (f"{loose} 0", f"12 {loose}"):
        with pytest.raises(MalformedHeaderError, match="expected 'n m'") as info:
            parse_edge_list(f"# comment\n{head}\n")
        assert info.value.line_no == 2


@pytest.mark.parametrize("loose", _LOOSE_INTEGERS)
def test_edge_integers_are_strict(loose):
    for line in (f"{loose} 0", f"0 {loose}"):
        with pytest.raises(EdgeListParseError, match="expected 'u w'") as info:
            parse_edge_list(f"12 2\n3 4\n{line}\n")
        assert type(info.value) is EdgeListParseError
        assert info.value.line_no == 3


def test_minus_sign_still_reaches_the_range_checks():
    with pytest.raises(MalformedHeaderError, match="counts must be non-negative"):
        parse_edge_list("3 -1\n")
    with pytest.raises(VertexRangeError):
        parse_edge_list("3 1\n-1 2\n")
    assert parse_edge_list("12 1\n10 0\n").edges() == ((0, 10),)


def test_header_vertex_count_is_capped(monkeypatch):
    # A small cap stands in for the real one; nothing large is allocated.
    monkeypatch.setattr(nullcore.graphs, "MAX_VERTICES", 5)
    assert parse_edge_list("5 1\n0 4\n").n == 5
    with pytest.raises(MalformedHeaderError, match="exceeds the limit") as info:
        parse_edge_list("# comment\n6 0\n")
    assert info.value.line_no == 2


def test_add_delete_edge():
    p3 = gen_path(3)
    c3 = add_edge(p3, 0, 2)
    assert c3.has_edge(0, 2) and p3.m == 2
    with pytest.raises(ValueError):
        add_edge(c3, 0, 2)
    with pytest.raises(ValueError):
        add_edge(p3, 1, 1)
    back = delete_edge(c3, 2, 0)
    assert back == p3
    with pytest.raises(ValueError):
        delete_edge(p3, 0, 2)


def test_delete_vertex_and_induced_subgraph():
    p4 = gen_path(4)
    g, prov = induced_subgraph(p4, [0, 2, 3])
    assert g == Graph(3, [(1, 2)])
    assert prov.vertex_map() == {0: 0, 1: 2, 2: 3}
    assert prov.source_vertex(1) == 2
    h, hprov = delete_vertex(p4, 1)
    assert h == Graph(3, [(1, 2)])
    assert hprov.vertex_map() == {0: 0, 1: 2, 2: 3}
    # keep is treated as a set; duplicates collapse
    g2, _ = induced_subgraph(p4, [0, 0, 1])
    assert g2 == Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        induced_subgraph(p4, [0, 9])
    with pytest.raises(ValueError):
        delete_vertex(p4, 9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn_graphs(max_n=20), st.data())
def test_derived_graphs_equal_the_checked_constructor(g, data):
    # parse_edge_list, induced_subgraph, delete_vertex and subdivision
    # freeze their adjacency lists unchecked; each must equal Graph() on
    # the same edges, edge count included
    lines = ["%d %d" % (e if data.draw(st.booleans()) else e[::-1])
             for e in data.draw(st.permutations(g.edges()))]
    for text in (serialize_edge_list(g),
                 "\n".join(["%d %d" % (g.n, g.m)] + lines)):
        parsed = parse_edge_list(text)
        assert parsed == g and parsed.m == g.m and hash(parsed) == hash(g)
    keep = data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))
    kept = sorted(set(keep))
    label = {old: new for new, old in enumerate(kept)}
    expected = Graph(len(kept), [(label[u], label[w]) for u, w in g.edges()
                                 if u in label and w in label])
    h, prov = induced_subgraph(g, keep)
    assert h == expected and h.m == expected.m
    assert prov == VertexProvenance(tuple(("vertex", v) for v in kept))
    v = data.draw(st.integers(0, g.n - 1))
    assert delete_vertex(g, v) == induced_subgraph(
        g, [u for u in range(g.n) if u != v])
    if is_connected(g):
        edges = g.edges()
        expected = Graph(g.n + len(edges), [
            (end, g.n + k) for k, edge in enumerate(edges) for end in edge])
        s, prov = subdivision(g)
        assert s == expected and s.m == expected.m
        assert prov == VertexProvenance(tuple(
            [("vertex", v) for v in range(g.n)]
            + [("edge", edge) for edge in edges]))


def test_subdivision_structure():
    p4 = gen_path(4)
    s, prov = subdivision(p4)
    # originals keep labels, one new vertex per edge in lexicographic order
    assert s.n == 7 and s.m == 6
    assert s.edges() == ((0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6))
    assert prov.source_vertex(2) == 2
    assert prov.source_edge(4) == (0, 1)
    assert prov.source_edge(6) == (2, 3)
    assert is_tree(s)
    # subdividing K1 is a no-op
    s1, _ = subdivision(Graph(1))
    assert s1 == Graph(1)
    with pytest.raises(ValueError):
        subdivision(Graph(2))  # disconnected


def test_structure_predicates():
    assert is_tree(gen_path(5))
    assert not is_tree(gen_cycle(5))
    assert is_forest(Graph(5, [(0, 1), (2, 3)]))
    assert not is_forest(gen_cycle(3))
    assert is_unicyclic(gen_cycle(6)) is not None
    assert is_unicyclic(gen_path(6)) is None
    two_cycles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert is_unicyclic(two_cycles) is None


def test_cycle_extraction_is_deterministic():
    g = gen_random_unicyclic(9, 4242)
    cycle = is_unicyclic(g)
    assert cycle is not None
    assert cycle[0] == min(cycle)
    # consecutive cycle vertices are adjacent, ends close the loop
    for a, b in zip(cycle, cycle[1:]):
        assert g.has_edge(a, b)
    assert g.has_edge(cycle[-1], cycle[0])
    assert len(set(cycle)) == len(cycle)


def test_is_bipartite_fixture_and_oracle():
    decomp = is_bipartite(gen_path(4))
    assert decomp is not None
    assert decomp.v1 == (0, 2) and decomp.v2 == (1, 3)
    assert decomp.cross.rows == 2 and decomp.cross.cols == 2
    assert is_bipartite(gen_cycle(5)) is None
    rng = SplitMix64(88)
    for _ in range(120):
        n = 2 + rng.below(9)
        g = gen_random_graph(n, 1, 3, rng.next_u64())
        _, ok = oracle.bipartition(n, list(g.edges()))
        assert (is_bipartite(g) is not None) == ok


def test_bipartite_cross_block_shape():
    g = gen_random_bipartite(8, 17)
    decomp = is_bipartite(g)
    assert decomp is not None
    assert len(decomp.v1) + len(decomp.v2) == g.n
    total = sum(
        decomp.cross.entry(i, j)
        for i in range(decomp.cross.rows)
        for j in range(decomp.cross.cols)
    )
    assert total == g.m


def test_adjacency_and_incidence_matrices():
    p3 = gen_path(3)
    assert adjacency_matrix(p3).to_lists() == [
        [0, 1, 0], [1, 0, 1], [0, 1, 0]]
    b = incidence_matrix(p3)
    assert b.rows == 3 and b.cols == 2
    assert b.to_lists() == [[1, 0], [1, 1], [0, 1]]


def test_generators_fixed_shapes():
    assert gen_path(1) == Graph(1)
    assert gen_path(4).edges() == ((0, 1), (1, 2), (2, 3))
    assert gen_cycle(3).edges() == ((0, 1), (0, 2), (1, 2))
    assert gen_star(4).edges() == ((0, 1), (0, 2), (0, 3))
    with pytest.raises(ValueError):
        gen_cycle(2)
    with pytest.raises(ValueError):
        gen_path(0)


def test_random_generators_are_deterministic_and_typed():
    rng = SplitMix64(3333)
    for _ in range(60):
        n = 1 + rng.below(12)
        seed = rng.next_u64()
        t = gen_random_tree(n, seed)
        assert t == gen_random_tree(n, seed)
        assert is_tree(t)
        b = gen_random_bipartite(max(n, 2), seed)
        assert b == gen_random_bipartite(max(n, 2), seed)
        assert is_bipartite(b) is not None
        u = gen_random_unicyclic(max(n, 3), seed)
        assert u == gen_random_unicyclic(max(n, 3), seed)
        assert is_unicyclic(u) is not None
        g = gen_random_graph(n, 1, 2, seed)
        assert g == gen_random_graph(n, 1, 2, seed)



def test_generators_are_capped(monkeypatch):
    # A small cap stands in for the real one; nothing large is allocated.
    monkeypatch.setattr(nullcore.graphs, "MAX_VERTICES", 5)
    calls = (
        lambda n: gen_path(n),
        lambda n: gen_cycle(n),
        lambda n: gen_star(n),
        lambda n: gen_random_tree(n, 7),
        lambda n: gen_random_graph(n, 1, 2, 7),
        lambda n: gen_random_bipartite(n, 7),
        lambda n: gen_random_unicyclic(n, 7),
    )
    for make in calls:
        assert make(5).n == 5
    # an over-cap request fails before any graph is built
    monkeypatch.setattr(nullcore.graphs, "Graph", None)
    for make in calls:
        with pytest.raises(ValueError, match="exceeds the limit 5"):
            make(6)


def test_pair_loop_generators_have_their_own_cap(monkeypatch):
    # G(n, p) and the bipartite generator visit every vertex pair, so
    # each refuses n above a lower, per-kind limit before the loop runs.
    graphs = nullcore.graphs
    graph_cap = graphs.MAX_RANDOM_GRAPH_VERTICES
    bipartite_cap = graphs.MAX_RANDOM_BIPARTITE_VERTICES
    assert max(graph_cap, bipartite_cap) < graphs.MAX_VERTICES
    monkeypatch.setattr(graphs, "MAX_RANDOM_GRAPH_VERTICES", 4)
    monkeypatch.setattr(graphs, "MAX_RANDOM_BIPARTITE_VERTICES", 3)
    assert gen_random_graph(4, 1, 2, 7).n == 4
    assert gen_random_bipartite(3, 7).n == 3
    assert gen_random_tree(6, 7).n == 6  # the other kinds keep MAX_VERTICES
    # a refused request draws and builds nothing, so the real caps are
    # probed just above without allocating
    monkeypatch.setattr(graphs, "Graph", None)
    monkeypatch.setattr("nullcore.rng.SplitMix64", None)
    cases = (
        (lambda n: gen_random_graph(n, 1, 2, 7), 4, graph_cap),
        (lambda n: gen_random_bipartite(n, 7), 3, bipartite_cap),
    )
    for make, small, _ in cases:
        with pytest.raises(ValueError, match="exceeds the limit %d" % small):
            make(small + 1)
    monkeypatch.setattr(graphs, "MAX_RANDOM_GRAPH_VERTICES", graph_cap)
    monkeypatch.setattr(graphs, "MAX_RANDOM_BIPARTITE_VERTICES", bipartite_cap)
    for make, _, real in cases:
        with pytest.raises(ValueError, match="exceeds the limit %d" % real):
            make(real + 1)


def test_random_tree_spans_labelled_shapes():
    # All three labelled trees on 3 vertices should appear.
    seen = set()
    for seed in range(40):
        seen.add(gen_random_tree(3, seed).edges())
    assert seen == {
        ((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))}


def test_random_graph_probability_bounds():
    assert gen_random_graph(6, 0, 1, 9).m == 0
    assert gen_random_graph(6, 1, 1, 9).m == 15
    with pytest.raises(ValueError):
        gen_random_graph(6, 3, 2, 9)


def test_to_dot_output():
    p3 = gen_path(3)
    text = to_dot(p3)
    assert text.startswith("graph G {")
    assert "0 -- 1;" in text and "1 -- 2;" in text
    from nullcore.analysis import classify_vertices
    tagged = to_dot(p3, classify_vertices(p3))
    assert "[part=cv]" in tagged and "[part=ncv]" in tagged


def _unicyclic_by_listing(n, seed):
    """The extra edge drawn from a list of every non-edge of the tree."""
    rng = SplitMix64(seed)
    tree = gen_random_tree(n, rng.next_u64())
    non_edges = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        if not tree.has_edge(u, w)
    ]
    return add_edge(tree, *non_edges[rng.below(len(non_edges))])


def test_unicyclic_matches_listing_of_non_edges():
    # the row walk picks the same edge as the list, so every seeded
    # unicyclic graph (and the verify output built on it) is unchanged
    for n in range(3, 41):
        for seed in range(40):
            assert gen_random_unicyclic(n, seed) == _unicyclic_by_listing(
                n, seed), (n, seed)


def test_add_edge_rejects_what_graph_rejects():
    # add_edge builds on g's adjacency without Graph's checks, so it
    # gives Graph's own message for the edge it would append
    p3 = gen_path(3)
    for u, w in ((1, 1), (0, 3), (3, 0), (-1, 2), (2, -1), (0, 1), (1, 0)):
        with pytest.raises(ValueError) as info:
            add_edge(p3, u, w)
        with pytest.raises(ValueError) as expected:
            Graph(3, p3.edges() + ((min(u, w), max(u, w)),))
        assert str(info.value) == str(expected.value)


def test_add_edge_matches_a_rebuilt_graph():
    rng = SplitMix64(41)
    for _ in range(40):
        g = gen_random_graph(1 + rng.below(12), 1, 3, rng.next_u64())
        for u in range(g.n):
            for w in range(g.n):
                if u != w and not g.has_edge(u, w):
                    h = add_edge(g, u, w)
                    rebuilt = Graph(g.n, g.edges() + ((min(u, w), max(u, w)),))
                    assert h == rebuilt and h.m == rebuilt.m == g.m + 1


def test_delete_edge_rejects_a_self_loop():
    # a self-loop and an endpoint out of range are pairs that are not
    # edges, with the same message as any other missing edge
    p3 = gen_path(3)
    for u, w in ((1, 1), (0, 3), (3, 0), (-1, 0), (0, -1), (0, 2), (2, 0)):
        with pytest.raises(ValueError) as info:
            delete_edge(p3, u, w)
        assert str(info.value) == f"edge ({u},{w}) not present"


def test_delete_edge_matches_a_rebuilt_graph():
    rng = SplitMix64(43)
    for _ in range(40):
        g = gen_random_graph(1 + rng.below(12), 1, 2, rng.next_u64())
        for u, w in g.edges():
            rebuilt = Graph(g.n, [e for e in g.edges() if e != (u, w)])
            for a, b in ((u, w), (w, u)):
                h = delete_edge(g, a, b)
                assert h == rebuilt and h.m == rebuilt.m == g.m - 1
                assert add_edge(h, a, b) == g


def _heap_pruefer_tree(n, seed):
    """gen_random_tree's tree, decoded by the textbook heap of leaves:
    the smallest leaf is joined to the next entry of the sequence."""
    rng = SplitMix64(seed)
    seq = [rng.below(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def test_random_tree_matches_the_heap_decoder():
    for n in range(2, 201):
        for seed in (0, 7, 2**64 - 1, 1000 + n):
            assert gen_random_tree(n, seed) == _heap_pruefer_tree(n, seed), (
                n, seed)


def test_random_tree_on_two_vertices():
    for seed in (0, 1, 7, 2**64 - 1):
        assert gen_random_tree(2, seed) == Graph(2, [(0, 1)])


def test_header_that_int_refuses_is_malformed():
    # ASCII, no '+' or '_', two fields: only int() rejects it
    with pytest.raises(MalformedHeaderError, match="expected 'n m'"):
        parse_edge_list("--1 2\n")


def test_has_edge_with_an_endpoint_out_of_range():
    g = gen_path(3)
    for u, w in ((0, 3), (3, 0), (-1, 0), (0, -1)):
        assert not g.has_edge(u, w)


def test_graph_is_immutable_and_has_a_repr():
    g = Graph(3, [(1, 2)])
    with pytest.raises(AttributeError):
        g.n = 4
    assert repr(g) == "Graph(n=3, edges=((1, 2),))"


def test_rng_below_rejects_an_empty_range():
    for bound in (0, -1):
        with pytest.raises(ValueError):
            SplitMix64(0).below(bound)
