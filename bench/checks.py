"""Correctness checks on CLI outputs, valid for any seed.

Each check returns None when the output is right and a short reason when
it is not.  They run outside the timed window.  ``analyze`` is checked
against ``tests/oracle.py`` (nullity up to ``ORACLE_NULLITY_MAX_N``
vertices, per-vertex classes up to ``ORACLE_CLASSES_MAX_N``) and every
kernel vector by an exact integer product A x = 0.  Above the oracle's
size the nullity is certified instead: the output's independent kernel
vectors bound it from below and the rank modulo a 61-bit prime from
above.  ``reduce`` and ``mc`` are checked against
the already-checked ``analyze`` output of the same graph, ``perturb`` by
recomputing its answer with the benchmark's own rational kernel, and
``verify`` by its verdict line.
"""

import json

import oracle
from reference import core_of, kernel_basis, rank_mod_p

ORACLE_NULLITY_MAX_N = 32
ORACLE_CLASSES_MAX_N = 16


class CheckFailed(Exception):
    pass


def _require(cond, reason):
    if not cond:
        raise CheckFailed(reason)


def _neighbours(g):
    adj = [set() for _ in range(g.n)]
    for u, w in g.edges:
        adj[u].add(w)
        adj[w].add(u)
    return adj


def _check_analyze(g, out, _context):
    d = json.loads(out)
    _require(d["n"] == g.n and d["m"] == len(g.edges), "n or m differs")
    adj = _neighbours(g)
    basis = d["kernel_basis"]
    _require(len(basis) == d["nullity"], "basis size is not the nullity")
    for vec in basis:
        _require(len(vec) == g.n and any(vec), "bad kernel vector shape")
        _require(
            all(sum(vec[w] for w in adj[v]) == 0 for v in range(g.n)),
            "kernel vector with A x != 0",
        )
    _require(not basis or oracle.gauss_rank(basis) == len(basis),
             "kernel vectors are dependent")
    if g.n <= ORACLE_NULLITY_MAX_N:
        _require(d["nullity"] == oracle.nullity_of(g.n, list(g.edges)),
                 "nullity differs from the oracle")
    else:
        _require(g.n - rank_mod_p(g.n, g.edges) == len(basis),
                 "nullity not certified by the rank modulo a prime")
    cv = sorted({i for vec in basis for i, x in enumerate(vec) if x})
    _require(d["cv"] == cv, "cv is not the union of kernel supports")
    _require(
        [c == "cv" for c in d["classes"]] == [v in cv for v in range(g.n)],
        "classes disagree with cv",
    )
    cv_set = set(cv)
    ncv = [v for v in range(g.n) if v not in cv_set and adj[v] & cv_set]
    _require(d["ncv"] == ncv, "ncv is not the core neighbourhood")
    rest = cv_set.union(ncv)
    _require(d["cfvr"] == [v for v in range(g.n) if v not in rest],
             "cfvr is not the remainder")
    if g.n <= ORACLE_CLASSES_MAX_N:
        _require(d["classes"] == oracle.vertex_classes(g.n, list(g.edges)),
                 "classes differ from the oracle")


def _analyze_of(context):
    _require(context is not None, "analyze output of this graph is missing")
    return json.loads(context)


def _check_slim(g, out, context):
    a = _analyze_of(context)
    d = json.loads(out)
    keep = sorted(a["cv"] + a["ncv"])
    _require(d["vertex_map"] == keep and d["n"] == len(keep),
             "slim graph does not keep exactly cv and ncv")
    label = {old: new for new, old in enumerate(keep)}
    edges = sorted((label[u], label[w]) for u, w in g.edges
                   if u in label and w in label)
    _require(d["edges"] == [list(e) for e in edges],
             "slim graph is not the induced subgraph")


def _check_pendant(g, out, context):
    a = _analyze_of(context)
    d = json.loads(out)
    edges = set(g.edges)
    used = [v for step in d["steps"] for v in step]
    _require(len(used) == len(set(used)), "steps reuse a vertex")
    _require(all((min(s), max(s)) in edges for s in d["steps"]),
             "a step is not an edge")
    _require(d["t"] == len(d["steps"]), "t is not the step count")
    _require(d["isolated"] == sorted(set(range(g.n)) - set(used)),
             "isolated is not the remainder")
    _require(len(d["isolated"]) == a["nullity"] == g.n - 2 * d["t"],
             "tree nullity identity fails")


def _check_mc(g, out, context):
    a = _analyze_of(context)
    d = json.loads(out)
    _require(d["nullity"] == a["nullity"], "nullity differs from analyze")
    cv = set(a["cv"])
    periphery = [v for v in range(g.n) if v not in cv]
    _require(d["periphery"] == periphery, "periphery is not V minus cv")
    label = {old: new for new, old in enumerate(sorted(cv))}
    core_edges = [(label[u], label[w]) for u, w in g.edges
                  if u in cv and w in cv]
    eta_core = oracle.nullity_of(len(cv), core_edges)
    _require(d["eta_core"] == eta_core, "core nullity differs from oracle")
    per = set(periphery)
    failures = sum((
        a["nullity"] != 1,
        any(u in per and w in per for u, w in g.edges),
        len(periphery) + 1 != eta_core,
        g.n == 2,
    ))
    _require(len(d["failures"]) == failures, "wrong number of failures")
    _require(d["is_mc"] == (g.n == 1 or (g.n >= 3 and failures == 0)),
             "is_mc contradicts the axioms")


_ORDER = {"CV": 0, "NCV": 1, "CFVR": 2}
_PRESERVE_KEY = {"nullity": "nullity", "cv": "cv_set",
                 "nullspace": "nullspace"}


class _State:
    """Kernel, core and three-part split of one graph."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = tuple(sorted(edges))
        self.basis = kernel_basis(n, self.edges)
        self.core = core_of(self.basis)
        adj = [set() for _ in range(n)]
        for u, w in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        self.adj = adj
        self.ncv = {v for v in range(n)
                    if v not in self.core and adj[v] & self.core}

    def part(self, v):
        if v in self.core:
            return "CV"
        return "NCV" if v in self.ncv else "CFVR"

    def type_pair(self, u, w):
        a, b = sorted((self.part(u), self.part(w)), key=_ORDER.get)
        return a + "-" + b

    def preserved(self, other, u, w):
        return {
            "nullity": len(other.basis) == len(self.basis),
            "cv_set": other.core == self.core,
            # an added edge u-w keeps every kernel vector iff x_u = x_w = 0
            "nullspace": (len(other.basis) == len(self.basis)
                          and u not in self.core and w not in self.core),
        }

    def safe(self, mode):
        """(u, w, type) of every offered candidate that keeps ``mode``."""
        out = []
        for u in range(self.n):
            for w in range(u + 1, self.n):
                if w in self.adj[u]:
                    continue
                tp = self.type_pair(u, w)
                if tp in ("CV-CV", "CV-CFVR"):
                    continue
                after = _State(self.n, self.edges + ((u, w),))
                if self.preserved(after, u, w)[_PRESERVE_KEY[mode]]:
                    out.append((u, w, tp))
        return out


def _check_list(g, out, mode):
    d = json.loads(out)
    expected = _State(g.n, g.edges).safe(mode)
    _require(d["preserve"] == mode, "preserve field differs")
    _require(d["safe"] == [[u, w] for u, w, _ in expected],
             "safe additions differ from the reference")
    _require(d["types"] == [tp for _, _, tp in expected],
             "candidate types differ from the reference")


def _check_densify(g, out, mode):
    d = json.loads(out)
    _require(d["preserve"] == mode and d["n"] == g.n, "header differs")
    final = [tuple(e) for e in d["edges"]]
    added = [tuple(sorted(e)) for e in d["added"]]
    _require(len(set(added)) == len(added), "an edge was added twice")
    _require(sorted(final) == sorted(set(g.edges) | set(added))
             and not set(added) & set(g.edges),
             "final graph is not the input plus the added edges")
    before = _State(g.n, g.edges)
    after = _State(g.n, final)
    key = _PRESERVE_KEY[mode]
    if key == "nullspace":
        kept = after.basis == before.basis
    else:
        kept = before.preserved(after, -1, -1)[key]
    _require(kept, "densified graph lost the preserved property")
    _require(not after.safe(mode), "densified graph is not maximal")


def _check_verify(_g, out, _context):
    lines = out.decode().splitlines()
    _require(lines and lines[-1] == "result: pass", "verify did not pass")


def check(command, graph, exit_code, out, context):
    """None if the command's output is right, else the reason."""
    if exit_code != 0:
        return "exit code %d" % exit_code
    argv = command.argv
    if argv[0] == "analyze":
        fn, arg = _check_analyze, None
    elif argv[0] == "reduce":
        fn = _check_slim if "--slim" in argv else _check_pendant
        arg = context
    elif argv[0] == "mc":
        fn, arg = _check_mc, context
    elif argv[0] == "perturb":
        fn = _check_list if "--list" in argv else _check_densify
        arg = argv[argv.index("--preserve") + 1]
    else:
        fn, arg = _check_verify, None
    try:
        fn(graph, out, arg)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unreadable output: %r" % (exc,)
    return None
