"""Per-layer tracing of one liepseudo CLI process, installed from outside.

`Tracer.install()` replaces the traced functions before the CLI entry point
runs.  A module-level function is replaced in every `liepseudo` module
namespace that holds it (so `from .modules import sing_solve` callers see
the wrapper too); a method is replaced on its class.

Three kinds of target:

- "span": every call records a span [name, start, end, parent, covered],
  where `covered` is the time of the call spent in traced children;
- "hot": calls and self time are summed in place, and no span is kept (for
  kernel functions called hundreds of thousands of times);
- "count": calls only, no timing.

Self time is a call's duration minus the time covered by its traced
children, so the self times of nested targets add up without overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (metric prefix, module, function or Class.method, kind)
TARGETS = (
    ("dualx.act_left", "liepseudo.dualx", "XElement.act_left", "span"),
    ("dualx.act_right", "liepseudo.dualx", "XElement.act_right", "span"),
    ("annih.ann_bracket", "liepseudo.annih", "ann_bracket", "span"),
    ("annih.gamma", "liepseudo.annih", "gamma", "span"),
    ("annih.euler_element", "liepseudo.annih", "euler_element", "span"),
    ("annih.ann_action", "liepseudo.annih", "ann_action", "span"),
    ("hopf.mul", "liepseudo.hopf", "HElement.__mul__", "hot"),
    ("hopf.mono_mul", "liepseudo.hopf", "Hopf.mono_mul", "count"),
    ("liecore.validate", "liepseudo.liecore", "RepData.validate", "span"),
    ("derham.pseudo_d", "liepseudo.derham", "pseudo_d", "span"),
    ("derham.d_images", "liepseudo.derham", "d_images", "span"),
    ("derham.exactness_report", "liepseudo.derham", "exactness_report", "span"),
    ("derham.dw2_lhs_rhs", "liepseudo.derham", "dw2_lhs_rhs", "span"),
    ("derham.classify_report", "liepseudo.derham", "classify_report", "span"),
    ("derham.sing_fingerprint", "liepseudo.derham", "sing_fingerprint", "span"),
    ("modules.tensor_module", "liepseudo.modules", "tensor_module", "span"),
    ("modules.twist_map", "liepseudo.modules", "twist_map", "span"),
    ("modules.action_pv", "liepseudo.modules", "ModuleSpec.action_pv", "span"),
    ("modules.w_star", "liepseudo.modules", "ModuleSpec.w_star", "span"),
    ("modules.sing_solve", "liepseudo.modules", "sing_solve", "span"),
    ("modules.sing_solve_oracle", "liepseudo.modules", "sing_solve_oracle", "span"),
    ("modules.submodule_closure", "liepseudo.modules", "submodule_closure", "span"),
    ("modules.hmul", "liepseudo.modules", "ModuleVector.hmul", "hot"),
    ("twosided.from_tensor", "liepseudo.twosided", "PseudoValue.from_tensor", "hot"),
    ("twosided.convert", "liepseudo.twosided", "PseudoValue.convert", "hot"),
    ("pseudoalg.bracket", "liepseudo.pseudoalg", "WAlgebra.bracket", "span"),
    ("linalg.reducer_add", "liepseudo._linalg", "RowReducer.add", "hot"),
    ("linalg.nullspace", "liepseudo._linalg", "nullspace", "span"),
    ("cli.emit", "liepseudo.cli", "_emit", "span"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index, covered]
        self.stack: list[list] = []      # open calls: [covered time, span index]
        self.hot: dict[str, list] = {}   # name -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self.hopfs: list = []            # every Hopf built, for memo sizes

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent[1] if parent else -1, 0.0]
            frame = [0.0, len(spans)]
            spans.append(rec)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[1], rec[2], rec[4] = t0, t1, frame[0]
                if parent:
                    parent[0] += t1 - t0

        return wrapper

    def _hot(self, name, fn, count_true=False):
        stack = self.stack
        agg = self.hot.setdefault(name, [0, 0.0])
        true_key = name + ".true"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, parent[1] if parent else -1]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dt - frame[0]
                if parent:
                    parent[0] += dt
            if count_true and out:
                self.counts[true_key] = self.counts.get(true_key, 0) + 1
            return out

        return wrapper

    def _mono_mul(self, name, fn):
        counts = self.counts

        def wrapper(hopf, I, J):
            counts[name] = counts.get(name, 0) + 1
            if (I, J) in getattr(hopf, "_mul_memo", ()):
                counts[name + ".hits"] = counts.get(name + ".hits", 0) + 1
            return fn(hopf, I, J)

        return wrapper

    def _nullspace(self, name, fn):
        inner = self._span(name, fn)
        counts = self.counts

        def wrapper(rows, ncols):
            rows = list(rows)
            counts[name + ".rows"] = counts.get(name + ".rows", 0) + len(rows)
            counts[name + ".cols"] = counts.get(name + ".cols", 0) + ncols
            return inner(rows, ncols)

        return wrapper

    def _wrap(self, name, kind, fn):
        if kind == "count":
            return self._mono_mul(name, fn)
        if name == "linalg.nullspace":
            return self._nullspace(name, fn)
        if kind == "hot":
            return self._hot(name, fn, count_true=(name == "linalg.reducer_add"))
        return self._span(name, fn)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; raise if one is missing."""
        importlib.import_module("liepseudo.cli")
        for name, modname, path, kind in TARGETS:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, kind, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, kind, raw))
            else:
                orig = getattr(mod, path)
                wrapped = self._wrap(name, kind, orig)
                for m in list(sys.modules.values()):
                    mname = getattr(m, "__name__", "")
                    if mname != "liepseudo" and not mname.startswith("liepseudo."):
                        continue
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
        hopf_cls = importlib.import_module("liepseudo.hopf").Hopf
        init = hopf_cls.__init__
        hopfs = self.hopfs

        def hopf_init(hopf, *args, **kwargs):
            init(hopf, *args, **kwargs)
            hopfs.append(hopf)

        hopf_cls.__init__ = hopf_init

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        """Per target: calls and self time, plus the layer counters."""
        out = {name: {"calls": 0, "self_s": 0.0} for name, *_ in TARGETS}
        for name, start, end, _parent, covered in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - covered
        for name, (calls, self_s) in self.hot.items():
            out[name]["calls"] += calls
            out[name]["self_s"] += self_s
        out["hopf.mono_mul"]["calls"] = self.counts.get("hopf.mono_mul", 0)
        out["hopf.mono_mul"]["hits"] = self.counts.get("hopf.mono_mul.hits", 0)
        out["linalg.reducer_add"]["useful"] = self.counts.get("linalg.reducer_add.true", 0)
        out["linalg.nullspace"]["rows"] = self.counts.get("linalg.nullspace.rows", 0)
        out["linalg.nullspace"]["cols"] = self.counts.get("linalg.nullspace.cols", 0)
        out["hopf.memo"] = {"entries": sum(
            len(v) for h in self.hopfs for k, v in vars(h).items()
            if k.endswith("_memo") and isinstance(v, dict)
        )}
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent, _covered in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
