"""Timing spans around homlab's public functions, recorded from outside the library.

``Tracer.install()`` replaces every traced function in every loaded
``homlab`` module that bound it (``from .counting import count_fixcol`` binds
a second name in ``bicliques``, ``classifier`` and the rest) and on the
``LogForm`` class; ``uninstall()`` puts the originals back.  Each call
records a span: name, start, end, parent span and job id, plus one size
taken from the arguments and one from the result.  Generators get one span
per resumption, so their self time excludes the consumer's work between
items.  Spans stay in memory until ``write`` saves them at the end.

It also counts the ``TwoColouredGraph`` objects built while a class
enumeration span is the innermost open span: the labelled graphs the
enumeration examines, however it examines them.

The homlab modules are looked up in ``sys.modules`` at ``install``, so the
tracer patches whichever import of homlab the jobs were built on.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter

from homlab.classifier import (
    STAGE_BASE_P4,
    STAGE_CASE_I,
    STAGE_CASE_II,
    STAGE_CASE_III,
    STAGE_EXTREMAL_ABSENT,
    STAGE_EXTREMAL_ONLY,
    STAGE_INCONCLUSIVE,
)

STAGES = (STAGE_BASE_P4, STAGE_EXTREMAL_ABSENT, STAGE_EXTREMAL_ONLY, STAGE_CASE_I,
          STAGE_CASE_II, STAGE_CASE_III, STAGE_INCONCLUSIVE)


# layer -> {traced name: (size of arguments, size of result)}
TRACED = {
    "counting": {n: (None, None) for n in (
        "count_fixcol", "count_col", "count_inj_fixcol", "count_bis",
        "count_fixcol_naive", "count_col_naive", "count_bis_naive")},
    "exactcmp": {
        "certified_compare": (None, None),
        "LogForm.sign": (None, None),
        "LogForm.eval_interval": (None, None),
        "LogForm.ln": (None, None),
    },
    "bicliques": {
        "all_bicliques": (None, len),
        "maximal_bicliques": (None, len),
        "dominating_set": (None, len),
        "dominating_set_rational": (None, len),
        "gamma_dominating_set": (lambda a, kw: len(a[4] if len(a) > 4 else kw["c_ab"]), len),
        "zeta_profile": (None, None),
        "analyze": (None, None),
    },
    "graphs": {
        "canonical_form": (None, None),
        "colour_iso": (None, None),
        "iter_canonical_two_coloured": (None, None),
        "canonical_two_coloured": (None, len),
        "canonical_side_bounded": (None, len),
        "parse_graph": (None, None),
        "parse_bigraph": (None, None),
    },
    "structure": {n: (None, None) for n in ("derived_subgraph", "h_uv", "fullness")},
    "distinguisher": {
        "find_pair_distinguisher": (None, lambda r: r.j.total),
        "build_selector": (None, lambda r: r.j.total),
        "recount_verify": (None, None),
    },
    "classifier": {
        "classify": (None, lambda r: STAGES.index(r.stage)),
        "reduce_col_to_fixcol": (None, None),
    },
    "gadgets": {n: (None, None) for n in (
        "phase_decompose_kab", "phase_decompose_bis", "phase_decompose_col",
        "approx_bracket_report", "dirichlet")},
    "verify": {"run_all": (None, None)},
}

NAMES = [name for layer in TRACED.values() for name in layer]
LAYER_OF = {name: layer for layer, names in TRACED.items() for name in names}

# class enumeration; a generator span's size is the one class it yielded
ENUMERATION = ("iter_canonical_two_coloured", "canonical_two_coloured", "canonical_side_bounded")
ENUM_IDS = {NAMES.index(name) for name in ENUMERATION}
# the argmax functions, and the functions whose results they take as candidates
ARGMAX = ("dominating_set", "dominating_set_rational", "gamma_dominating_set")
BICLIQUE_ENUMERATION = ("all_bicliques", "maximal_bicliques")


class Tracer:
    def __init__(self):
        self.job = -1
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.size_in = array("q")
        self.size_out = array("q")
        self.enum_examined = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int, size_in: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_of.append(self.job)
        self.size_in.append(size_in)
        self.size_out.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        name_id = NAMES.index(name)
        size_args, size_result = TRACED[LAYER_OF[name]][name]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name_id, 0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.size_out[idx] = 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            idx = tracer._open(name_id, size_args(args, kwargs) if size_args else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if size_result:
                tracer.size_out[idx] = size_result(result)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def _count_graphs(self, init):
        tracer = self

        def counted_init(graph, *args, **kwargs):
            if tracer._stack and tracer.name[tracer._stack[-1]] in ENUM_IDS:
                tracer.enum_examined += 1
            init(graph, *args, **kwargs)
        return counted_init

    def install(self) -> None:
        log_form = sys.modules["homlab"].LogForm
        graph_class = sys.modules["homlab"].TwoColouredGraph
        self._restore.append((graph_class, "__init__", graph_class.__init__))
        graph_class.__init__ = self._count_graphs(graph_class.__init__)
        originals = {}
        for name in NAMES:
            if name.startswith("LogForm."):
                attr = name.split(".", 1)[1]
                raw = log_form.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fn, name)
                self._restore.append((log_form, attr, raw))
                setattr(log_form, attr,
                        staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            elif f"homlab.{LAYER_OF[name]}" in sys.modules:  # verify loads on demand
                fn = getattr(sys.modules[f"homlab.{LAYER_OF[name]}"], name)
                originals[id(fn)] = (fn, name)
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "homlab" and not modname.startswith("homlab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Span arrays after a one-line JSON header naming fields and functions."""
        fields = ("name", "start", "end", "parent", "job_of", "size_in", "size_out")
        header = {"names": NAMES, "spans": len(self.start),
                  "fields": [[f, getattr(self, f).typecode] for f in fields]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field in fields:
                getattr(self, field).tofile(f)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer work counts and self times in seconds from the recorded spans."""
        n = len(self.start)
        names = [NAMES[k] for k in self.name]
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child_time = [0.0] * n
        children: list[Counter] = [Counter() for _ in range(n)]
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child_time[p] += dur[k]
                children[p][names[k]] += 1
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for k in range(n):
            self_s[names[k]] += dur[k] - child_time[k]
            calls[names[k]] += 1

        def total(*fns):
            return sum(self_s[f] for f in fns)

        def layer_self(layer):
            return total(*TRACED[layer])

        def parent_name(k):
            return names[self.parent[k]] if self.parent[k] >= 0 else None

        sign_spans = [k for k in range(n) if names[k] == "LogForm.sign"]
        evals_per_sign = [children[k]["LogForm.eval_interval"] for k in sign_spans]
        # bicliques an argmax lists for itself, plus those handed to it
        candidates = sum(self.size_out[k] for k in range(n)
                         if names[k] in BICLIQUE_ENUMERATION and parent_name(k) in ARGMAX)
        candidates += sum(self.size_in[k] for k in range(n) if names[k] == "gamma_dominating_set")
        winners = sum(self.size_out[k] for k in range(n) if names[k] in ARGMAX)
        # classes from the outermost enumeration spans only, so none is counted twice
        classes = sum(self.size_out[k] for k in range(n)
                      if names[k] in ENUMERATION and parent_name(k) not in ENUMERATION)
        stages = Counter(STAGES[self.size_out[k]] for k in range(n) if names[k] == "classify")
        counting = TRACED["counting"]

        m = {
            "counting.calls": sum(calls[f] for f in counting),
            "counting.self_s": layer_self("counting"),
            "counting.inj.self_s": total("count_inj_fixcol"),
            "counting.naive.self_s": total(*(f for f in counting if f.endswith("_naive"))),
            "exactcmp.compares": len(sign_spans),
            "exactcmp.self_s": layer_self("exactcmp"),
            "exactcmp.interval_evals": calls["LogForm.eval_interval"],
            "exactcmp.escalations": sum(e - 1 for e in evals_per_sign if e),
            "exactcmp.symbolic_zero": sum(1 for e in evals_per_sign if not e),
            "exactcmp.ln.calls": calls["LogForm.ln"],
            "exactcmp.ln.self_s": total("LogForm.ln"),
            "bicliques.candidates": candidates,
            "bicliques.maximal": sum(self.size_out[k] for k in range(n)
                                     if names[k] == "maximal_bicliques"),
            "bicliques.winners": winners,
            "bicliques.win_ratio": winners / candidates if candidates else 0.0,
            "bicliques.self_s": layer_self("bicliques"),
            "bicliques.enum.self_s": total("all_bicliques", "maximal_bicliques"),
            "bicliques.dominance.self_s": total(*ARGMAX),
            "bicliques.zeta.self_s": total("zeta_profile"),
            "graphs.self_s": layer_self("graphs"),
            "graphs.canonical_form.calls": calls["canonical_form"],
            "graphs.canonical_form.self_s": total("canonical_form"),
            "graphs.colour_iso.calls": calls["colour_iso"],
            "graphs.colour_iso.self_s": total("colour_iso"),
            "graphs.enum.classes": classes,
            "graphs.enum.yield_ratio": classes / self.enum_examined if self.enum_examined else 0.0,
            "graphs.enum.self_s": total(*ENUMERATION),
            "structure.self_s": layer_self("structure"),
            "distinguisher.self_s": layer_self("distinguisher"),
            "distinguisher.pair.calls": calls["find_pair_distinguisher"],
            "distinguisher.pair.self_s": total("find_pair_distinguisher"),
            "distinguisher.selector.self_s": total("build_selector"),
            "distinguisher.witness_vertices": sum(
                self.size_out[k] for k in range(n)
                if names[k] in ("find_pair_distinguisher", "build_selector")),
            "classifier.calls": calls["classify"],
            "classifier.self_s": layer_self("classifier"),
        }
        m.update({f"classifier.stage.{s}": stages[s] for s in STAGES})
        m.update({
            "gadgets.self_s": layer_self("gadgets"),
            "gadgets.phase.calls": sum(calls[f] for f in TRACED["gadgets"]
                                       if f.startswith("phase_decompose")),
            "gadgets.phase.self_s": total(*(f for f in TRACED["gadgets"]
                                            if f.startswith("phase_decompose"))),
            "gadgets.bracket.self_s": total("approx_bracket_report"),
            "gadgets.dirichlet.self_s": total("dirichlet"),
            "verify.self_s": layer_self("verify"),
            "trace.spans": n,
        })
        return m
