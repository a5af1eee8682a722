"""Spans around the program's layer boundaries, recorded from outside it.

``Tracer.install`` replaces each public function named in LAYERS under
every name by which a fedsg module binds it (so ``grad_v`` is wrapped both
as ``fedsg.objective.grad_v`` and as ``fedsg.federation.grad_v``, the
binding ``local_update`` calls through). Each wrapper records a span named
after the defining module and function, e.g. ``objective.grad_v``.
Functions outside LAYERS stay unwrapped, so their time counts as self time
of the layer that calls them (``confusion_counts`` inside ``roc_and_pr``,
for example). ``uninstall`` puts the original objects back. Spans stay in
memory until ``write`` is called at the end of the run.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "objective.grad_v", "objective.grad_u", "objective.loss",
    "linalg.thin_qr", "grassmann.retract", "grassmann.riemannian_step",
    "linalg.truncated_svd", "federation.procrustes_rotation",
    "federation.aggregate", "federation.local_update", "federation.run_fedsg",
    "federation.save_checkpoint", "federation.write_trace_csv",
    "federation.load_checkpoint", "data.generate_synthetic",
    "data.load_dataset", "data.partition_non_iid", "data.zscore_fit_apply",
    "data.equalize_widths", "data.apply_zscore", "detection.roc_and_pr",
    "detection.score_matrix", "detection.fit_threshold", "detection.evaluate",
    "detection.write_curve", "detection.write_metrics", "cli.cmd_train",
    "cli.cmd_eval", "cli.cmd_sweep",
)
MODULES = sorted({name.split(".")[0] for name in LAYERS})

# objective.loss is reported per caller: the per-round global loss is
# computed by run_fedsg, the per-client loss (which nothing reads) by
# local_update.
LOSS_SPLIT = {"federation.run_fedsg": "objective.loss.global",
              "federation.local_update": "objective.loss.local"}


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, run id, raised].
        self.spans = []
        self.run_id = ""
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id,
                    False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            return out
        return traced

    def install(self):
        for short in MODULES:
            module = importlib.import_module(f"fedsg.{short}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                name = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                if name not in LAYERS:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(name, obj))

    def uninstall(self):
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id,
                                     "raised": raised}) + "\n")


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for c0, c1 in sorted((spans[k][1], spans[k][2]) for k in kids):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def layer_names(spans):
    """Span names with objective.loss split by its caller."""
    names = []
    for name, _, _, parent, _, _ in spans:
        if name == "objective.loss":
            name = LOSS_SPLIT.get(spans[parent][0] if parent >= 0 else "",
                                  name)
        names.append(name)
    return names


def summarize(spans):
    """Per layer name: {"calls": n, "self_s": seconds}."""
    out = {}
    for name, self_s in zip(layer_names(spans), self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
    return out


def raised(spans, name):
    """Number of spans named name whose call raised."""
    return sum(1 for s in spans if s[0] == name and s[5])


def under(spans, ancestor):
    """Per layer name, the self time of spans that have a span named
    ancestor above them."""
    names, selfs = layer_names(spans), self_times(spans)
    out = {}
    for i, span in enumerate(spans):
        p = span[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        if p >= 0:
            out[names[i]] = out.get(names[i], 0.0) + selfs[i]
    return out
