"""The hypergraph build path: the hMetis parser, the lazily built incidence
index, contraction and connected components, each checked against a
test-local referee that reads, contracts or traverses every pin the
straightforward way."""

import importlib
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hgcut
from hgcut import (
    ContractionLog,
    Hypergraph,
    PipelineConfig,
    compact,
    connected_components,
    contract_groups,
    format_hmetis,
    parse_hmetis,
    run_pipeline_detailed,
)
from hgcut.hgraph import _roots
from hgcut.reduce import _contract, initial_state
from conftest import random_instance, two_cycle_union

# -- referee parser: checks every token and builds through the validating
# -- public constructor ---------------------------------------------------------


def _ref_int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} is not an integer: {tok!r}") from None


def _ref_weight(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        w = float(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: weight is not a number: {tok!r}") from None
    if w != w:
        raise ValueError(f"line {lineno}: weight is not a number: {tok!r}")
    return w


def reference_parse(text):
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("%"):
            continue
        entries.append((lineno, s.split()))
    if not entries:
        raise ValueError("empty hypergraph file")
    lineno, head = entries[0]
    if len(head) not in (2, 3):
        raise ValueError(f"line {lineno}: header must be 'm n [fmt]'")
    m = _ref_int(head[0], lineno, "hyperedge count")
    n = _ref_int(head[1], lineno, "vertex count")
    if m < 0 or n < 0:
        raise ValueError(f"line {lineno}: counts must be nonnegative")
    fmt = head[2] if len(head) == 3 else "0"
    if fmt not in ("0", "1", "10", "11"):
        raise ValueError(f"line {lineno}: unsupported fmt code {fmt!r}")
    has_ew = fmt in ("1", "11")
    has_vw = fmt in ("10", "11")
    need = 1 + m + (n if has_vw else 0)
    if len(entries) != need:
        raise ValueError(
            f"expected {need} data lines ({m} hyperedges"
            + (f" plus {n} vertex weights" if has_vw else "")
            + f"), found {len(entries)}"
        )
    pins_lists, eweights = [], []
    for lineno, toks in entries[1 : 1 + m]:
        if has_ew:
            if len(toks) < 2:
                raise ValueError(f"line {lineno}: weighted hyperedge needs a weight and pins")
            w = _ref_weight(toks[0], lineno)
            if w < 0:
                raise ValueError(f"line {lineno}: negative hyperedge weight")
            pin_toks = toks[1:]
        else:
            w, pin_toks = 1, toks
        pins = []
        for t in pin_toks:
            v = _ref_int(t, lineno, "pin id")
            if v < 1 or v > n:
                raise ValueError(f"line {lineno}: pin out of range: {v} (vertex count {n})")
            pins.append(v - 1)
        eweights.append(w)
        pins_lists.append(pins)
    # vertex-weight lines are checked, then dropped
    for lineno, toks in entries[1 + m :]:
        if len(toks) != 1:
            raise ValueError(f"line {lineno}: vertex weight lines hold one number")
        if _ref_weight(toks[0], lineno) < 0:
            raise ValueError(f"line {lineno}: negative vertex weight")
    return Hypergraph(n, pins_lists, eweights)


def outcome(parse, text):
    """What a parser makes of ``text``, with weight types kept apart
    (``2 == 2.0``, but ``repr`` tells them apart)."""
    try:
        h = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", h.vertex_count, repr(list(h.edges())))


_WEIGHTS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["2.0", "1e3", "0.5", "+7", "007", "inf", "-0.0"]),
)
_BAD = ["x", "0", "-1", "-2.5", "nan", "1.5", "99", "%", "1 2"]
_NOISE = ["", "   ", "\t", "% comment", "%", "  % indented 1 2"]


@st.composite
def hmetis_texts(draw):
    """hMetis text with unsorted and duplicate pins, comments, blank lines,
    odd whitespace and every fmt code; sometimes with one fault."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 7))
    fmt = draw(st.sampled_from(["", " 0", " 1", " 10", " 11"]))
    has_ew = fmt.strip() in ("1", "11")
    has_vw = fmt.strip() in ("10", "11")
    sep = st.sampled_from([" ", "  ", "\t"])
    lines = [f"{m} {n}{fmt}"]
    for _ in range(m):
        toks = [str(v) for v in draw(st.lists(st.integers(1, n), min_size=1, max_size=6))]
        if has_ew:
            toks.insert(0, draw(_WEIGHTS))
        lines.append(draw(sep).join(toks))
    if has_vw:
        lines.extend(draw(_WEIGHTS) for _ in range(n))
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        bad = draw(st.sampled_from(_BAD))
        j = draw(st.integers(0, len(toks)))
        if j == len(toks) or draw(st.booleans()):
            toks.insert(j, bad)
        else:
            toks[j] = bad
        lines[i] = " ".join(toks)
    out = []
    for line in lines:
        out.extend(draw(st.lists(st.sampled_from(_NOISE), max_size=2)))
        out.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "])))
    out.extend(draw(st.lists(st.sampled_from(_NOISE), max_size=2)))
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestParser:
    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(hmetis_texts())
    def test_agrees_with_checked_referee(self, text):
        got = outcome(parse_hmetis, text)
        assert got == outcome(reference_parse, text)
        if got[0] == "ok":
            canonical = format_hmetis(parse_hmetis(text))
            assert format_hmetis(parse_hmetis(canonical)) == canonical

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty hypergraph file"),
            ("% only a comment\n\n", "empty hypergraph file"),
            ("% c\n3\n", "line 2: header must be 'm n [fmt]'"),
            ("% c\n1 2 3 4\n1 2\n", "line 2: header must be 'm n [fmt]'"),
            ("x 2\n1 2\n", "line 1: hyperedge count is not an integer: 'x'"),
            ("1 y\n1 2\n", "line 1: vertex count is not an integer: 'y'"),
            ("-1 2\n", "line 1: counts must be nonnegative"),
            ("1 2 7\n1 2\n", "line 1: unsupported fmt code '7'"),
            ("2 3\n1 2\n", "expected 3 data lines (2 hyperedges), found 2"),
            ("1 2 10\n1 2\n5\n",
             "expected 4 data lines (1 hyperedges plus 2 vertex weights), found 3"),
            ("% c\n2 3 1\n4 1 2\n\n% c\n5\n", "line 6: weighted hyperedge needs a weight and pins"),
            ("2 3 1\n4 1 2\nx 2 3\n", "line 3: weight is not a number: 'x'"),
            ("2 3 1\n4 1 2\nnan 2 3\n", "line 3: weight is not a number: 'nan'"),
            ("2 3 1\n4 1 2\n-2 2 3\n", "line 3: negative hyperedge weight"),
            ("2 3\n1 2\n% c\n2 x\n", "line 4: pin id is not an integer: 'x'"),
            ("2 3\n1 2\n3 4\n", "line 3: pin out of range: 4 (vertex count 3)"),
            ("2 3\n1 2\n0 3\n", "line 3: pin out of range: 0 (vertex count 3)"),
            ("1 2 10\n1 2\n5\n5 6\n", "line 4: vertex weight lines hold one number"),
            ("1 2 11\n3 1 2\n5\nabc\n", "line 4: weight is not a number: 'abc'"),
            ("1 2 11\n3 1 2\n5\nnan\n", "line 4: weight is not a number: 'nan'"),
            ("1 2 11\n3 1 2\n5\n-1\n", "line 4: negative vertex weight"),
            # a wrong data-line count is reported before a fault inside a line
            ("2 3\n1 x\n", "expected 3 data lines (2 hyperedges), found 2"),
            ("1 3\n1 9\n1 2\n", "expected 2 data lines (1 hyperedges), found 3"),
            ("1 2 10\n1 2\n5\n-1\n7\n",
             "expected 4 data lines (1 hyperedges plus 2 vertex weights), found 5"),
        ],
    )
    def test_error_message_and_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_hmetis(text)
        assert str(exc.value) == message

    def test_first_fault_in_line_order_wins(self):
        # a bad pin on line 3 precedes a bad weight on line 4
        with pytest.raises(ValueError, match=r"^line 3: pin out of range: 9 "):
            parse_hmetis("3 3 1\n1 1 2\n1 2 9\n-1 1 3\n")

    def test_parsed_input_has_no_incidence_until_asked(self):
        h = parse_hmetis("2 3\n3 1 1\n2 3\n")
        assert h._incidence is None
        assert list(h.incident(0)) == [0] and len(h.incident(2)) == 2
        assert h._incidence is not None


# -- incidence on first use ------------------------------------------------------


def eager_incidence(h):
    incidence = [[] for _ in range(h.vertex_count)]
    for eid, (pins, _) in enumerate(h.edges()):
        for v in pins:
            incidence[v].append(eid)
    return incidence


def random_groups(rng, n):
    vertices = list(range(n))
    rng.shuffle(vertices)
    groups, i = [], 0
    while i < n:
        k = rng.choice((1, 1, 2, 2, 3, n))
        groups.append(vertices[i : i + k])
        i += k
    return groups


def dirty_copy(rng, h):
    """``h`` plus single-pin, zero-weight and parallel edges."""
    n = h.vertex_count
    extra = [[rng.randrange(n)], [0, n - 1], list(h.pins(0))]
    return Hypergraph(
        n,
        [h.pins(e) for e in range(h.edge_count)] + extra,
        list(h.edge_weights()) + [3, 0, 2],
    )


class TestLazyIncidence:
    def test_matches_eager_index_after_contractions_and_compaction(self):
        for seed in range(80):
            rng = random.Random(seed)
            h = random_instance(seed)
            while h.vertex_count >= 2:
                if rng.random() < 0.3:
                    nxt = compact(dirty_copy(rng, h))
                else:
                    nxt = contract_groups(h, random_groups(rng, h.vertex_count))
                if nxt is not h:
                    assert nxt._incidence is None
                h = nxt
                ref = eager_incidence(h)
                # query order varies: degrees first, then the lists
                degrees = [len(h.incident(v)) for v in range(h.vertex_count)]
                if rng.random() < 0.5 and h.vertex_count:
                    assert max(degrees) == max(map(len, ref))
                    assert min(degrees) == min(map(len, ref))
                assert degrees == list(map(len, ref))
                assert [list(h.incident(v)) for v in range(h.vertex_count)] == ref


# -- contraction against the straightforward rebuild -------------------------------


class ReferenceLog:
    """Union-find merge history, one union at a time."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.merge_order = []
        self.members = {v: [v] for v in range(n)}
        self.current = list(range(n))

    def find(self, v):
        while self.parent[v] != v:
            v = self.parent[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if len(self.members[ra]) < len(self.members[rb]):
            ra, rb = rb, ra
        self.merge_order.append((ra, rb))
        self.parent[rb] = ra
        self.members[ra].extend(self.members.pop(rb))
        return ra

    def apply(self, groups, relabel, new_count):
        for g in groups:
            acc = self.current[g[0]]
            for v in g[1:]:
                acc = self.union(acc, self.current[v])
        new_current = [0] * new_count
        for old, root in enumerate(self.current):
            new_current[relabel[old]] = root
        self.current = new_current

    def expand(self, ids):
        return frozenset(u for c in ids for u in self.members[self.find(self.current[c])])


def reference_contract(h, groups, log):
    """Relabel every pin of every edge through sets and sorts, then rebuild
    through the validating constructor."""
    n = h.vertex_count
    norm = [sorted(set(g)) for g in groups if len(set(g)) >= 2]
    if not norm:
        return h
    rep = list(range(n))
    for g in norm:
        for v in g:
            rep[v] = g[0]
    relabel, nxt = [-1] * n, 0
    for v in range(n):
        if relabel[rep[v]] < 0:
            relabel[rep[v]] = nxt
            nxt += 1
        relabel[v] = relabel[rep[v]]
    merged = {}
    for pins, w in h.edges():
        key = tuple(sorted({relabel[v] for v in pins}))
        if w == 0 or len(key) < 2:
            continue
        merged[key] = merged[key] + w if key in merged else w
    log.apply(norm, relabel, nxt)
    return Hypergraph(nxt, list(merged), list(merged.values()))


def same_graph(a, b):
    return (a.vertex_count, repr(list(a.edges()))) == (b.vertex_count, repr(list(b.edges())))


class TestContraction:
    def test_matches_reference_rebuild_and_log(self):
        for seed in range(120):
            rng = random.Random(seed)
            h = random_instance(seed)
            if seed % 3 == 0:  # float weights: the summation order must match
                h = Hypergraph(
                    h.vertex_count,
                    [h.pins(e) for e in range(h.edge_count)],
                    [w / 10 for w in h.edge_weights()],
                )
            log, ref_log = ContractionLog(h.vertex_count), ReferenceLog(h.vertex_count)
            ref = h
            while h.vertex_count >= 2:
                groups = random_groups(rng, h.vertex_count)
                h = contract_groups(h, groups, log)
                ref = reference_contract(ref, groups, ref_log)
                assert same_graph(h, ref)
                for c in range(h.vertex_count):
                    assert log.expand_block([c]) == ref_log.expand([c])

    def test_one_vertex_contraction_keeps_the_log(self):
        for seed in range(40):
            rng = random.Random(seed)
            h0 = random_instance(seed)
            n = h0.vertex_count
            log, ref_log = ContractionLog(n), ReferenceLog(n)
            h, ref = h0, h0
            if seed % 2:  # reach the last step through earlier merges
                groups = random_groups(rng, n)
                h = contract_groups(h, groups, log)
                ref = reference_contract(ref, groups, ref_log)
            everything = list(range(h.vertex_count))
            rng.shuffle(everything)
            one = contract_groups(h, [everything], log)
            ref = reference_contract(ref, [everything], ref_log)
            assert one.vertex_count == 1 and one.edge_count == 0
            assert same_graph(one, ref)
            assert log.expand_block([0]) == ref_log.expand([0]) == frozenset(range(n))


# -- connected components against a search over the incidence lists ---------------


def reference_components(h):
    labels, comp = [-1] * h.vertex_count, 0
    incidence = eager_incidence(h)
    for s in range(h.vertex_count):
        if labels[s] >= 0:
            continue
        labels[s], stack = comp, [s]
        while stack:
            v = stack.pop()
            for eid in incidence[v]:
                for u in h.pins(eid):
                    if labels[u] < 0:
                        labels[u] = comp
                        stack.append(u)
        comp += 1
    return labels


class TestComponents:
    def test_matches_search_and_builds_no_incidence(self):
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(1, 30)
            edges = [
                rng.sample(range(n), rng.randint(0, min(n, 4)))
                for _ in range(rng.randint(0, n))
            ]
            h = Hypergraph(n, edges)
            assert connected_components(h) == reference_components(h)
            assert h._incidence is None


# -- one closure for every contraction ----------------------------------------------


def reference_roots(n, links):
    """Each vertex's smallest class member, by a search over the links."""
    touching = [[] for _ in range(n)]
    for i, link in enumerate(links):
        for v in link:
            touching[v].append(i)
    roots = [-1] * n
    for s in range(n):
        if roots[s] >= 0:
            continue
        roots[s], stack = s, [s]
        while stack:
            for i in touching[stack.pop()]:
                for u in links[i]:
                    if roots[u] < 0:
                        roots[u] = s
                        stack.append(u)
    return roots


@st.composite
def link_lists(draw):
    """Vertex count and links: overlapping tuples and lists, empty and
    one-pin links, repeated vertices, or no links at all."""
    n = draw(st.integers(0, 24))
    if n == 0:
        return 0, []
    link = st.lists(st.integers(0, n - 1), max_size=5)
    return n, draw(st.lists(st.one_of(link, link.map(tuple)), max_size=n + 3))


def dense_labels(roots):
    """Reference roots numbered in the order of each class's smallest
    vertex, and the number of classes."""
    number = {}
    return [number.setdefault(r, len(number)) for r in roots], len(number)


def closed_groups(n, links):
    by_root = {}
    for v, r in enumerate(reference_roots(n, links)):
        by_root.setdefault(r, []).append(v)
    return [g for _, g in sorted(by_root.items()) if len(g) >= 2]


class TestClosure:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(link_lists())
    def test_roots_match_search(self, case):
        n, links = case
        assert _roots(n, links) == dense_labels(reference_roots(n, links))

    def test_contract_equals_contract_groups_on_closed_groups(self):
        for seed in range(120):
            rng = random.Random(seed)
            h = random_instance(seed)
            n = h.vertex_count
            if seed % 3 == 0:  # float weights: the summation order must match
                h = Hypergraph(
                    n,
                    [h.pins(e) for e in range(h.edge_count)],
                    [w / 10 for w in h.edge_weights()],
                )
            links = [
                tuple(rng.choice(range(n)) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(0, n))
            ]
            state = initial_state(h, PipelineConfig(want_partition=True))
            ref_log, raw_log = ContractionLog(n), ContractionLog(n)
            groups = closed_groups(n, links)
            ref = contract_groups(h, groups, ref_log)
            raw = contract_groups(h, links, raw_log)
            assert _contract(state, links) == bool(groups)
            assert (raw is h) == (ref is h) == (not groups)
            assert same_graph(state.current, ref) and same_graph(raw, ref)
            for c in range(ref.vertex_count):
                assert state.log.expand_block([c]) == ref_log.expand_block([c])
                assert raw_log.expand_block([c]) == ref_log.expand_block([c])


# -- one connectivity pass, on the residual only; numpy only where it is used ------


def disconnected_residual():
    """Two 4-regular cycle unions joined by a zero-weight edge: connected
    as given, disconnected once the rules drop that edge."""
    a = two_cycle_union()
    edges = [list(p) for p, _ in a.edges()]
    edges += [[u + 16 for u in p] for p in edges] + [[0, 16]]
    return Hypergraph(32, edges, [1] * 64 + [0])


class TestResidualConnectivity:
    @pytest.mark.parametrize("solver", ["exact", "bip"])
    def test_disconnected_residual_is_cut_once_for_free(self, solver, monkeypatch):
        import hgcut.osolve
        import hgcut.reduce

        calls = []

        def counted(h):
            calls.append(h.vertex_count)
            return connected_components(h)

        monkeypatch.setattr(hgcut.osolve, "connected_components", counted)
        monkeypatch.setattr(hgcut.reduce, "connected_components", counted)
        result, state = run_pipeline_detailed(
            disconnected_residual(), PipelineConfig(solver=solver, want_partition=True)
        )
        assert result.value == 0 and result.partition == frozenset(range(16))
        assert state.residual.status == "disconnected" and state.residual.phases is None
        assert calls == [32]  # the residual only: the input gets no pass

    def test_connected_residual_checked_once(self, monkeypatch):
        import hgcut.osolve
        import hgcut.reduce

        calls = []

        def counted(h):
            calls.append(h.vertex_count)
            return connected_components(h)

        monkeypatch.setattr(hgcut.osolve, "connected_components", counted)
        monkeypatch.setattr(hgcut.reduce, "connected_components", counted)
        result, state = run_pipeline_detailed(two_cycle_union())
        assert result.value == 4 and state.residual.phases >= 1
        assert calls == [16]


@pytest.mark.parametrize("pins", [20_000, 320_000])
def test_trivial_path_is_one_rebuild(pins, monkeypatch):
    """On the near-linear scaling family (criterion 8) heavy-edge runs
    first and collapses everything in one step: one ``contract_groups``
    call, no ``compact`` and no connectivity pass."""
    import hgcut.osolve
    import hgcut.reduce

    assert hgcut.reduce.RULE_ORDER[0][0] == "heavy-edge"
    calls = []
    for module, name in [
        (hgcut.reduce, "compact"),
        (hgcut.reduce, "connected_components"),
        (hgcut.reduce, "contract_groups"),
        (hgcut.osolve, "connected_components"),
    ]:
        def counted(*args, _f=getattr(module, name), _name=name):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(module, name, counted)
    h = hgcut.random_hypergraph(
        hgcut.GenSpec(
            vertex_count=pins // 5, edge_count=pins // 3, seed=1234, ensure_connected=True
        )
    )
    _, state = run_pipeline_detailed(h)
    assert state.stop_reason == "terminal"
    assert calls == ["contract_groups"]


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(hgcut.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys; before = 'numpy' in sys.modules; import hgcut.cli, hgcut; "
        "print(before, 'numpy' in sys.modules); "
        "print(*(f'hgcut.{m}' in sys.modules for m in ('synth', 'trimmer', 'lpcluster'))); "
        "from hgcut import build_model, brute_mincut; print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "False", "False", "False", "True"]


def test_every_exported_name_resolves():
    """Every name in ``hgcut.__all__`` and in each submodule's ``__all__``
    is bound, so a name left behind by a removed function fails here."""
    missing = [f"hgcut.{name}" for name in hgcut.__all__ if not hasattr(hgcut, name)]
    for info in pkgutil.iter_modules(hgcut.__path__):
        module = importlib.import_module(f"hgcut.{info.name}")
        missing += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []
