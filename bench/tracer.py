"""Per-layer tracing of logjones, installed from outside the package.

The tracer rebinds the public functions of qcalc, jones, habiro, loginv,
volume and qgroup to wrappers that record one span (name, start, end,
parent) per call.  A function imported by name into another module is
rebound there too, and LaurentPoly.__rmul__ gets the same wrapper as
__mul__.  Spans stay in memory until ``aggregate`` folds them into calls
and self times (span time minus the time of its child spans) and
``write_spans`` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# Span names are "<module>.<attribute path>" of the wrapped callable.
SPANS = (
    "qcalc.LaurentPoly.__mul__",
    "qcalc.LaurentPoly.divmod",
    "qcalc.brace_falling",
    "qcalc.ddq",
    "qcalc.RootContext.eval_at",
    "qcalc.RootContext.lhopital_ratio",
    "jones.colored_jones",
    "jones.braid_operator",
    "jones._apply_local",
    "jones.braiding",
    "jones.rmatrix_terms",
    "jones.quantum_trace",
    "habiro.reconstruct_Vm",
    "habiro.reconstruct_normalized_Vm",
    "habiro.extract_coeffs",
    "habiro.ddm_Vm",
    "loginv.gamma_s",
    "loginv.b_pm_via_derivative",
    "loginv.gamma_boundary",
    "loginv.center_coeffs",
    "volume.gamma_fig8_fast",
    "volume.cone_volume",
    "qgroup.build_restricted",
    "qgroup.build_modified",
    "qgroup.relations_residual",
    "qgroup.verify_iso_f",
    "qgroup.verify_iso_g",
    "qgroup.verify_iso_h",
    "qgroup.verify_y1_invariance",
    "qgroup.rmatrix_specialization_check",
    "qgroup.center_action_check",
)

# gamma_s spans are split by the route argument.
ROUTES = ("qderiv", "habiro", "mderiv")

PACKAGE = "logjones"
MODULES = ("qcalc", "jones", "habiro", "loginv", "volume", "qgroup", "cli")


class _CountingMpmath:
    """Stands in for ``mpmath`` inside volume.py and counts the trig and
    polylog calls the scan kernel makes; everything else is forwarded."""

    def __init__(self, real, counts):
        self._real = real
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._real, name)

    def sinpi(self, x):
        self._counts["volume.trig_calls"] += 1
        return self._real.sinpi(x)

    def cospi(self, x):
        self._counts["volume.trig_calls"] += 1
        return self._real.cospi(x)

    def polylog(self, s, z):
        self._counts["volume.polylog_calls"] += 1
        return self._real.polylog(s, z)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.calls = {}
        self.counts = {
            "qcalc.LaurentPoly.__mul__.term_products": 0,
            "qcalc.kronecker.calls": 0,
            "qcalc.kronecker.hits": 0,
            "qcalc.RootContext.eval_at.terms": 0,
            "jones.braid_operator.max_dim": 0,
            "jones._apply_local.entries_out": 0,
            "volume.trig_calls": 0,
            "volume.polylog_calls": 0,
        }
        self.distinct = {"jones.colored_jones": set(), "habiro.reconstruct_Vm": set()}

    # -- span recording -------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return self._ids[name]

    def _wrap(self, name, fn, after=None, count=True):
        nid = self._id(name)
        calls = self.calls
        sname, sparent, sstart, send = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count:
                calls[name] += 1
            idx = len(sstart)
            sname.append(nid)
            sparent.append(stack[-1])
            send.append(0.0)
            stack.append(idx)
            sstart.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                send[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_gamma_s(self, fn):
        """gamma_s(knot, s, N, route, ...): one span name per route."""
        wrapped = {r: self._wrap(f"loginv.gamma_s.{r}", fn) for r in ROUTES}

        def wrapper(*args, **kwargs):
            route = args[3] if len(args) > 3 else kwargs.get("route", "qderiv")
            return wrapped[str(getattr(route, "value", route))](*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, name, fn):
        """A generator does its work while it is resumed, so each resumption
        is one span; the call itself is counted once."""
        step = self._wrap(name, next, count=False)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                yield item

        return functools.update_wrapper(wrapper, fn)

    # -- installation ----------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        counts = self.counts

        def mul_after(args, result):
            if len(args) == 2 and hasattr(args[1], "terms"):
                counts["qcalc.LaurentPoly.__mul__.term_products"] += len(args[0].terms) * len(args[1].terms)

        def eval_after(args, result):
            counts["qcalc.RootContext.eval_at.terms"] += len(args[1].terms)

        def braid_after(args, result):
            b, V = args[0], args[1]
            dim = V.dim ** b.strands
            if dim > counts["jones.braid_operator.max_dim"]:
                counts["jones.braid_operator.max_dim"] = dim

        def apply_after(args, result):
            counts["jones._apply_local.entries_out"] += len(result.entries)

        def jones_after(args, result):
            self.distinct["jones.colored_jones"].add((args[0].strands, args[0].word, args[1]))

        def vm_after(args, result):
            self.distinct["habiro.reconstruct_Vm"].add((args[0].knot, args[1]))

        after = {
            "qcalc.LaurentPoly.__mul__": mul_after,
            "qcalc.RootContext.eval_at": eval_after,
            "jones.braid_operator": braid_after,
            "jones._apply_local": apply_after,
            "jones.colored_jones": jones_after,
            "habiro.reconstruct_Vm": vm_after,
        }
        for name in SPANS:
            mod_name, _, path = name.partition(".")
            owner = mods[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            if name == "loginv.gamma_s":
                wrapper = self._wrap_gamma_s(fn)
            elif name == "jones.rmatrix_terms":
                wrapper = self._wrap_generator(name, fn)
            else:
                wrapper = self._wrap(name, fn, after.get(name))
            if cls_path:
                # a class attribute: rebind every alias on the class (__rmul__ = __mul__)
                for key, val in list(vars(owner).items()):
                    if val is fn:
                        setattr(owner, key, wrapper)
            else:
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, wrapper)

        qcalc = mods["qcalc"]
        kron = qcalc._try_kronecker_mul

        def counted_kron(a, b):
            counts["qcalc.kronecker.calls"] += 1
            out = kron(a, b)
            if out is not None:
                counts["qcalc.kronecker.hits"] += 1
            return out

        qcalc._try_kronecker_mul = counted_kron
        mods["volume"].mp = _CountingMpmath(mods["volume"].mp, counts)

    # -- output ----------------------------------------------------------

    def aggregate(self):
        """{"spans": {name: [calls, self_s]}, "counts": {...}} of this process."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            self_s[nid] += dur[i] - child[i]
        spans = {name: [self.calls[name], self_s[nid]] for nid, name in enumerate(self.names)}
        counts = dict(self.counts)
        for name, keys in self.distinct.items():
            counts[f"{name}.distinct"] = len(keys)
        return {"spans": spans, "counts": counts, "span_count": n}

    def write_spans(self, path):
        """One line per span: name, start, end, parent index (-1 at the root)."""
        with open(path, "w") as fh:
            names = self.names
            for nid, start, end, parent in zip(self.span_name, self.span_start,
                                               self.span_end, self.span_parent):
                fh.write(f"{names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
