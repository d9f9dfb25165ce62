"""Span tracer that wraps public dheac functions from outside the package.

The package itself carries no instrumentation, so the traced run patches
each function in ``TRACED`` in every ``dheac`` namespace that binds it
(``cli``, ``lottery``, ``analytics``, ``baselines`` and ``qverify`` import
names with ``from ... import``, so patching only the defining module would
miss most calls). Spans are kept in flat arrays while the workload runs and
written out once at the end; ``restore`` puts every original back.

Self time of a span is its duration minus the durations of its direct
children. Functions that are not traced count in the self time of the
nearest traced caller.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array

TRACED = {
    "netgen": ("generate_network",),
    "partition": ("safe_select_k", "quota_round", "count_partitions",
                  "enum_partitions"),
    "analytics": ("evaluate_point", "jain_index", "ecdf"),
    "baselines": ("b1_evaluate", "b2_evaluate"),
    "lottery": ("simulate_batch", "run_trial", "sample_inner", "trial_rng",
                "estimate_fairness", "exact_node_probs"),
    "qverify": ("build_embedded", "verify_state", "measure_many",
                "node_win_probs", "marginal_outer"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _batch_extra(orig, args, kwargs, out, err):
    return {"trials": _arg(args, kwargs, 4, "trials"),
            "m": _arg(args, kwargs, 0, "net").m}


def _fairness_extra(orig, args, kwargs, out, err):
    return {"trials": _arg(args, kwargs, 2, "trials")}


def _exact_extra(orig, args, kwargs, out, err):
    if err is not None:
        return {"fallback": err == "CapacityError"}
    net = _arg(args, kwargs, 0, "net")
    req = _arg(args, kwargs, 1, "req")
    beta = _arg(args, kwargs, 2, "beta",
                sys.modules["dheac.lottery"].DEFAULT_BETA)
    # the unpatched original, so that this lookup records no span
    K = orig["partition.safe_select_k"](req.k_req, net.caps, beta)
    return {"subsets": math.comb(net.m, K)}


def _verify_extra(orig, args, kwargs, out, err):
    if err is not None:
        return {}
    chi2 = [f for f in out.failures if "uniformity rejected" in f]
    return {"struct_failure": len(out.failures) > len(chi2),
            "chi2_reject": bool(chi2)}


EXTRAS = {
    "lottery.simulate_batch": _batch_extra,
    "lottery.estimate_fairness": _fairness_extra,
    "lottery.exact_node_probs": _exact_extra,
    "partition.enum_partitions":
        lambda orig, a, k, out, err: {} if err else {"vectors": len(out)},
    "qverify.build_embedded":
        lambda orig, a, k, out, err:
            {} if err else {"outcomes": len(out.amplitudes)},
    "qverify.measure_many":
        lambda orig, a, k, out, err: {"draws": _arg(a, k, 2, "draws")},
    "qverify.verify_state": _verify_extra,
}


class Tracer:
    """Records (name, parent, start, end) spans for the patched functions."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.extras: dict[int, dict] = {}
        self.originals: dict[str, object] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        extra = EXTRAS.get(name)
        stack = self._stack
        name_of, parent = self.name_of, self.parent
        start, end = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            out = err = None
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end[sid] = clock()
                stack.pop()
                if extra is not None:
                    self.extras[sid] = extra(self.originals, args, kwargs,
                                             out, err)

        return traced

    def install(self) -> None:
        """Patch each traced function wherever a dheac module binds it."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "dheac" or key.startswith("dheac.")]
        for short, fn_names in TRACED.items():
            home = sys.modules[f"dheac.{short}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                self.originals[f"{short}.{fn_name}"] = original
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, prefix: str) -> None:
        """Write spans as raw arrays plus a JSON index; see ``load``."""
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump({"names": list(self.name_ids), "count": len(self.start),
                       "extras": self.extras}, fh)


class Spans:
    """Spans loaded back for analysis; the fields mirror ``Tracer``."""

    def __init__(self, names, name_of, parent, start, end, extras):
        self.names = list(names)
        self.name_of = name_of
        self.parent = parent
        self.start = start
        self.end = end
        self.extras = {int(k): v for k, v in extras.items()}

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration minus the durations of direct children, per span."""
        dur = self.durations()
        own = list(dur)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[sid]
        return own


def load(prefix: str) -> Spans:
    with open(prefix + ".json") as fh:
        index = json.load(fh)
    n = index["count"]
    arrays = [array("H"), array("q"), array("d"), array("d")]
    with open(prefix + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return Spans(index["names"], *arrays, index["extras"])
