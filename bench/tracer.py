"""Span recorder that times drpi's layers from outside the program.

Every public function of the layer modules is replaced, at each module
attribute its callers look it up by, with a wrapper that records a span
(name, layer, start, end, parent span, op id).  A few numerical kernels are
wrapped as counted spans too; their time is charged to the layer of the
span that called them.  Spans stay in memory until the run ends.

Independently of timing, ``install_capture`` keeps the imputed matrix an op
computes, so scoring it needs no second imputation.  Capturing costs one
extra Python call per op and is installed for the whole run, traced or not;
when an op does not go through ``imputers.impute`` the worker recomputes the
matrix with the same public call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np
import scipy.stats

LAYERS = (
    "cli",
    "data_model",
    "imputers",
    "propensity",
    "dr_inference",
    "multiple_testing",
    "sim_bench",
)

# methods looked up on instances, so they are wrapped on the class
_METHODS = {
    "data_model": (("Dataset", "select_rows"), ("Dataset", "select_columns"),
                   ("Dataset", "__post_init__")),
    "propensity": (("PropensityFit", "predict"),),
}

KERNEL = "kernel"
OP = "op"


# (owner, attribute, span name) of the counted numerical kernels
_KERNELS = (
    (np.linalg, "svd", "svd"),
    (np.linalg, "lstsq", "lstsq"),
    (np.linalg, "matrix_rank", "matrix_rank"),
    (scipy.stats.norm, "sf", "dist_sf"),
    (scipy.stats.t, "sf", "dist_sf"),
)


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def _replace_everywhere(patches, modules, orig, replacement):
    """Point every module attribute that refers to ``orig`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                patches.set(mod, attr, replacement)


class Tracer:
    def __init__(self, drpi):
        self.drpi = drpi
        self.modules = [drpi] + [importlib.import_module(f"drpi.{name}") for name in LAYERS]
        self.spans = []  # [name, layer, start, end, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> key -> value
        self.imputed = []  # ImputedMatrix outputs of the current op
        self._stack = []
        self._op = None
        self._capture_patches = _Patches()
        self._trace_patches = _Patches()

    # -- capture (always on) ----------------------------------------------

    def install_capture(self):
        """Keep every ImputedMatrix that ``imputers.impute`` returns."""
        orig = self.drpi.imputers.impute

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.imputed.append(out)
            return out

        _replace_everywhere(self._capture_patches, self.modules, orig, wrapped)

    def take_imputed(self):
        """Return and forget what the last op imputed."""
        out, self.imputed = self.imputed, []
        return out

    def close(self):
        self._trace_patches.undo()
        self._capture_patches.undo()

    # -- timing spans (traced ops only) ----------------------------------

    def _span_wrapper(self, orig, name, layer, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self._op]
            spans.append(rec)
            stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self.counts[self._op], args, out)
            return out

        return wrapped

    def _install_spans(self):
        p = self._trace_patches
        for layer in LAYERS:
            mod = getattr(self.drpi, layer)
            for fn_name, fn in list(vars(mod).items()):
                if fn_name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue  # imported from another layer; wrapped there
                name = f"{layer}.{fn_name}"
                wrapped = self._span_wrapper(fn, name, layer, _ON_RETURN.get(name))
                _replace_everywhere(p, self.modules, fn, wrapped)
            for cls_name, meth in _METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                name = f"{layer}.{cls_name}.{meth}"
                p.set(cls, meth, self._span_wrapper(fn, name, layer, _ON_RETURN.get(name)))
        for owner, attr, name in _KERNELS:
            fn = getattr(owner, attr)
            p.set(owner, attr, self._span_wrapper(fn, name, KERNEL))

    def op(self, op_id, traced):
        """Context manager around one op; records spans only when traced."""
        return _OpScope(self, op_id, traced)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self):
        """One dict of self times, inclusive times and counts per traced op."""
        per_op = defaultdict(lambda: defaultdict(float))
        children = defaultdict(float)  # span index -> time covered by children
        for s in self.spans:
            if s[4] >= 0:
                children[s[4]] += s[3] - s[2]
        owner_layer = []  # layer charged with each span's self time
        for i, (name, layer, t0, t1, parent, op) in enumerate(self.spans):
            if layer == KERNEL:
                charged = owner_layer[parent] if parent >= 0 else OP
            else:
                charged = layer
            owner_layer.append(charged)
            m = per_op[op]
            dur = t1 - t0
            m[f"self.{charged}"] += dur - children[i]
            if layer == KERNEL:
                m[f"{charged}.{name}_calls"] += 1
                m[f"{charged}.{name}_s"] += dur
            elif layer == OP:
                m["trace.op_s"] += dur
            else:
                m[f"calls.{name}"] += 1
                outer = parent < 0 or self.spans[parent][0] != name
                if outer:  # recursion-free inclusive time
                    m[f"incl.{name}"] += dur
        ops = sorted(per_op)
        for op in ops:
            for k, v in self.counts[op].items():
                per_op[op][k] += v
        return [per_op[op] for op in ops]

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,layer,start_s,end_s,parent,op\n")
            for name, layer, t0, t1, parent, op in self.spans:
                fh.write(f"{name},{layer},{t0!r},{t1!r},{parent},{op}\n")


class _OpScope:
    def __init__(self, tracer, op_id, traced):
        self.tracer, self.op_id, self.traced = tracer, op_id, traced

    def __enter__(self):
        t = self.tracer
        t._op = self.op_id
        if self.traced:
            t._install_spans()
            t.spans.append([OP, OP, time.perf_counter(), 0.0, -1, self.op_id])
            t._stack.append(len(t.spans) - 1)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if self.traced:
            t.spans[t._stack.pop()][3] = time.perf_counter()
            t._trace_patches.undo()
        t._op = None
        return False


# -- counters taken from return values ------------------------------------


def _on_load(c, args, out):
    c["data_model.cells"] += out.n * out.p


def _on_select(c, args, out):
    c["data_model.select_calls"] += 1
    c["data_model.select_bytes"] += out.y_obs.nbytes + out.mask.nbytes + out.w.nbytes


def _on_fit(c, args, out):
    c["propensity.fits"] += 1
    c["propensity.iterations"] += out.iterations
    c["propensity.unconverged"] += not out.converged
    c["propensity.clipped"] += int((out.delta_hat <= out.clip_floor).sum())
    c["propensity.delta_cells"] += out.delta_hat.size


def _on_impute(c, args, out):
    c["imputers.nonconverged"] += not out.converged


def _on_infer(c, args, out):
    c["dr_inference.skips"] += len(out[1])


def _on_select_q(c, args, out):
    c["multiple_testing.selected"] += len(out)


def _on_bench(c, args, out):
    c["sim_bench.failed_reps"] += len(out.failed_reps)


_ON_RETURN = {
    "data_model.load_dataset": _on_load,
    "data_model.Dataset.select_rows": _on_select,
    "data_model.Dataset.select_columns": _on_select,
    "propensity.fit_logistic": _on_fit,
    "imputers.impute_mean": _on_impute,
    "imputers.impute_lowdim": _on_impute,
    "imputers.impute_soft": _on_impute,
    "imputers.impute_knn": _on_impute,
    "imputers.load_external_nu": _on_impute,
    "dr_inference.infer_all": _on_infer,
    "dr_inference.infer_cross_fit": _on_infer,
    "multiple_testing.select": _on_select_q,
    "sim_bench.run_benchmark": _on_bench,
}
