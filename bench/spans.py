"""Spans and counts recorded from outside the program.

``Tracer.install`` wraps the public functions of each ``foldef`` module in
timing wrappers.  A name imported with ``from .x import f`` is bound in
several modules, so every module binding of a wrapped function is replaced,
and ``uninstall`` puts every original back.  ``poly``, ``forms`` and
``scalars`` are the arithmetic under every layer and are not wrapped: their
time counts as self time of the layer that calls them.

Each call records a span (name, start, end, parent span, job id) in memory.
A layer's self time is the duration of its spans minus the time their child
spans cover.  Counts are taken from the arguments and results the wrappers
see; the time spent taking them is left out of every span (the span clock
stops while a count is taken).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# layer -> (module, names of its public functions); "Class.method" wraps a method
LAYERS = {
    "linalg.eliminate": ("linalg", ("rref", "nullspace", "rank", "solve")),
    "linalg.reduce": ("linalg", ("reduce_against", "in_row_space", "line_complement")),
    "deformation.assemble": ("deformation", ("operator_matrix",)),
    "deformation.perturb": ("deformation", ("param_perturbation_space", "eigen_perturbation_space")),
    "deformation.self": ("deformation", ("kernel_space", "verify_decomposition", "verify_coro1", "dicritical_classify")),
    "spaces.canonicalize": ("spaces", ("span_of_forms", "vectors_to_subspace")),
    "spaces.compare": ("spaces", ("SubspaceBasis.__eq__", "SubspaceBasis.contains")),
    "foliations.realize": ("foliations", ("realize",)),
    "foliations.integrable": ("foliations", ("is_integrable",)),
    "foliations.integrating_factor": ("foliations", ("integrating_factor", "mu_of")),
    "foliations.genericity": ("foliations", ("genericity_check",)),
    "foliations.decompose": ("foliations", ("integration_lemma_decompose",)),
    "projective.self": ("projective", (
        "projective_deformation_space", "projectivize", "projectivized_log_parameters",
        "descends", "dehomogenize", "verify_affine_def_lemma",
    )),
    "expressions.parse": ("expressions", ("parse_poly", "parse_form", "parse_scalar")),
    "expressions.render": ("expressions", ("render_poly", "render_form", "render_scalar")),
    "cli.self": ("cli", ("run", "render_report")),
}


def _bits(value) -> int:
    parts = (value.re, value.im) if hasattr(value, "im") else (value,)
    return max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts)


def _blocks(matrix) -> int:
    """Connected blocks of the bipartite row/column graph of the nonzeros."""
    ncols = len(matrix[0]) if matrix else 0
    parent = list(range(len(matrix) + ncols))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    used = set()
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            if v != 0:
                used.update((r, len(matrix) + c))
                parent[find(r)] = find(len(matrix) + c)
    return len({find(a) for a in used})


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.layer_of: dict[str, str] = {}
        self.job = None
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._excluded = 0.0
        self._seen: set = set()
        self._patched: list = []

    def start_job(self, job_id: str) -> None:
        self.job = job_id
        self._stack.clear()

    def clock(self) -> float:
        """perf_counter with the time spent taking counts left out."""
        return time.perf_counter() - self._excluded

    # -- counts -------------------------------------------------------------

    def _count_rref(self, args, result):
        rows = args[0]
        ncols = len(rows[0]) if rows else 0
        self.counts["rref_calls"] += 1
        self.counts["rref_cells"] += len(rows) * ncols
        key = (ncols, hash(tuple(map(tuple, rows))))
        if key in self._seen:
            self.counts["rref_repeats"] += 1
        self._seen.add(key)
        reduced, _ = result
        bits = max((_bits(v) for row in reduced for v in row if v != 0), default=0)
        self.counts["max_entry_bits"] = max(self.counts["max_entry_bits"], bits)

    def _count_matrix(self, args, result):
        matrix = result[0]
        self.counts["assemble_calls"] += 1
        self.counts["matrix_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
        self.counts["matrix_nnz"] += sum(1 for row in matrix for v in row if v != 0)
        self.counts["matrix_blocks"] += _blocks(matrix)

    def _count_genericity(self, args, result):
        self.counts["genericity_trials"] += result.trials_used

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(index)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index] = (name, start, tracer.clock(), parent, tracer.job)
                tracer._stack.pop()
            if count is not None:
                began = time.perf_counter()
                count(args, result)
                tracer._excluded += time.perf_counter() - began
            return result

        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "foldef" or n.startswith("foldef.")}
        counters = {
            "linalg.rref": self._count_rref,
            "deformation.operator_matrix": self._count_matrix,
            "foliations.genericity_check": self._count_genericity,
        }
        by_id = {}
        for layer, (module, names) in LAYERS.items():
            owner = modules[f"foldef.{module}"]
            for attr in names:
                name = f"{module}.{attr}"
                self.layer_of[name] = layer
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                else:
                    fn = getattr(owner, attr)
                    by_id[id(fn)] = (fn, self._wrap(name, fn, counters.get(name)))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer, summed over every span."""
        own = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span is not None:  # None: a span cut short by the per-job cap
                _, start, end, parent, _ = span
                own[i] += end - start
                if parent is not None:
                    own[parent] -= end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, t in zip(self.spans, own):
            if span is not None:
                totals[self.layer_of[span[0]]] += t
        return totals

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, handle)
