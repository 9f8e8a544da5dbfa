"""Traced launcher for the nullcore CLI, and the per-layer aggregation.

    python bench/traced.py SPANS_OUT ARGS...

runs ``nullcore.cli.main(ARGS)`` with every function in ``LAYERS``
wrapped so each call records a span (name, start, end, parent) in
memory; the spans are written to SPANS_OUT as JSON when the command
ends.  Stdout and the exit code are the CLI's own.  Modules bind these
functions by ``from .linalg import rank``, so the wrapper replaces the
function in every ``nullcore`` namespace that holds it.
"""

import importlib
import json
import sys
import time

# layer (module under nullcore) -> public functions traced in it
LAYERS = {
    "cli": ("main",),
    "graphs": ("parse_edge_list", "adjacency_matrix", "delete_vertex",
               "induced_subgraph", "add_edge"),
    "linalg": ("rank", "det", "nullspace_basis", "char_poly"),
    "analysis": ("nullity", "classify_vertices", "core_labelling",
                 "verify_block_theorems", "slim_reduce", "analyze"),
    "perturb": ("candidate_edges", "apply_and_report", "safe_additions",
                "greedy_densify", "verify_cv_ncv_theorem"),
    "trees": ("pendant_reduction", "tree_nullity_identity", "is_mc_tree",
              "inverse_subdivision", "cfvr_perfect_matching",
              "subdivision_charpoly_identity"),
    "minimal": ("is_minimal_configuration", "bipartite_nullity1_structure",
                "bipartite_mc_slim_equivalence"),
    "verify": ("run_suite",),
}
ELIMINATIONS = ("linalg.rank", "linalg.det", "linalg.nullspace_basis")
# functions whose input size (sum of rows x cols) is recorded
CELLS = ("linalg.rank", "linalg.det", "linalg.nullspace_basis",
         "linalg.char_poly")
# functions whose largest output entry is recorded, in bits
OUT_BITS = ("linalg.nullspace_basis", "linalg.det")

# span fields, in order
NAME, START, END, PARENT, RAISED, CELLS_IN, BITS_OUT, LEN_OUT = range(8)


def _out_bits(name, result):
    if name == "linalg.det":
        return abs(result).bit_length()
    return max((abs(x).bit_length() for vec in result.vectors for x in vec),
               default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        cells = name in CELLS
        bits = name in OUT_BITS
        count_out = name == "perturb.safe_additions"
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, False,
                    args[0].rows * args[0].cols if cells else 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[RAISED] = True
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if bits:
                span[BITS_OUT] = _out_bits(name, result)
            if count_out:
                span[LEN_OUT] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every LAYERS function wherever a nullcore module binds it;
        returns the nullcore.cli module."""
        modules = {layer: importlib.import_module("nullcore." + layer)
                   for layer in LAYERS}
        originals = {}
        for layer, names in LAYERS.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                originals[id(fn)] = (fn, self.wrap(layer + "." + fname, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nullcore" and not mod_name.startswith("nullcore."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        return modules["cli"]


def _launch(spans_out, argv):
    tracer = Tracer()
    cli = tracer.install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
    return code


def self_times(spans):
    """Per span: duration minus the part covered by its direct children.
    Calls on one thread nest, so children never overlap."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class LayerStats:
    """Accumulates per-function counts over the span files of one pass."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.cells = {}
        self.max_bits = {}
        self.raised = {layer: 0 for layer in LAYERS}
        self.total_ns = {}
        self.safe_found = 0
        self.screened = 0  # apply_and_report calls made by safe_additions
        self.candidate_elims = 0  # eliminations under apply_and_report
        for layer, names in LAYERS.items():
            for fname in names:
                key = layer + "." + fname
                self.calls[key] = self.self_ns[key] = self.total_ns[key] = 0
                self.cells[key] = self.max_bits[key] = 0

    def add(self, spans, scale=1.0):
        """Add one command's spans, their times multiplied by ``scale``."""
        own = self_times(spans)
        # per span: does an apply_and_report span enclose it?
        in_candidate = [False] * len(spans)
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                in_candidate[i] = (in_candidate[p] or spans[p][NAME]
                                   == "perturb.apply_and_report")
        for i, s in enumerate(spans):
            name = s[NAME]
            self.calls[name] += 1
            self.self_ns[name] += own[i] * scale
            self.total_ns[name] += (s[END] - s[START]) * scale
            self.cells[name] += s[CELLS_IN]
            self.max_bits[name] = max(self.max_bits[name], s[BITS_OUT])
            if s[RAISED]:
                self.raised[name.split(".")[0]] += 1
            if name in ELIMINATIONS and in_candidate[i]:
                self.candidate_elims += 1
            if name == "perturb.safe_additions":
                self.safe_found += s[LEN_OUT]
            if (name == "perturb.apply_and_report" and s[PARENT] >= 0
                    and spans[s[PARENT]][NAME] == "perturb.safe_additions"):
                self.screened += 1

    def metrics(self, input_graphs, verify_trials):
        """Per-layer metrics as {name: (value, unit)}.  ``input_graphs``
        counts graph files read plus verify trials (one drawn graph each)."""
        out = {}
        for name in self.calls:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_ns[name] / 1e9, "s")
            if name in CELLS:
                out[name + ".cells"] = (self.cells[name], "count")
        for name in OUT_BITS:
            out[name + ".max_out_bits"] = (self.max_bits[name], "bits")
        for layer, count in self.raised.items():
            out[layer + ".raised"] = (count, "count")
        elims = sum(self.calls[n] for n in ELIMINATIONS)
        out["analysis.elims_per_graph"] = (
            _ratio(elims, input_graphs), "ratio")
        out["analysis.classify_per_graph"] = (
            _ratio(self.calls["analysis.classify_vertices"], input_graphs),
            "ratio")
        out["perturb.accept_ratio"] = (
            _ratio(self.safe_found, self.screened), "ratio")
        out["perturb.elims_per_candidate"] = (
            _ratio(self.candidate_elims,
                   self.calls["perturb.apply_and_report"]), "ratio")
        out["verify.trials_per_s"] = (
            _ratio(verify_trials, self.total_ns["verify.run_suite"] / 1e9),
            "1/s")
        return out


def _ratio(num, den):
    return num / den if den else 0.0


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1], sys.argv[2:]))
