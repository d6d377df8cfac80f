"""Layer spans for one campaign, recorded from outside the program.

``Tracer.install`` wraps the public functions at each layer boundary of
meskf and rebinds every module attribute that refers to them, so calls
through ``from .core import correct`` style imports are caught as well
as calls through the module. Each call becomes one span: name, start,
end, parent span, whether it returned, and a size for the batched
surface queries (points) and the sigma-region sampler (samples). Spans
stay in memory and ``save`` writes them once, when the campaign ends.

``layer_metrics`` turns the span files of one run into the per-layer
metrics. A span's self time is its duration minus its children's.
Per-trial layer values count only the spans under ``run_trial``, the
filter: measurement synthesis is reported whole as
``sim.synthesize_ms``, and the ground truth, computed once per
campaign, is left out.
"""

import sys
import time

import numpy as np

# (layer, module that defines the function, function or Class.method)
BOUNDARIES = [
    ("sim", "meskf.sim.runner", "run_trial"),
    ("sim", "meskf.sim.runner", "stack_results"),
    ("sim", "meskf.sim.runner", "metrics_from_arrays"),
    ("sim", "meskf.sim.sensors", "synthesize_measurements"),
    ("cli", "meskf.cli", "_write_outputs"),
    ("core", "meskf.core", "propagate"),
    ("core", "meskf.core", "correct"),
    ("core", "meskf.core", "joseph_update"),
    ("bspline", "meskf.bspline", "find_spans"),
    ("bspline", "meskf.bspline", "basis_values"),
    ("bspline", "meskf.bspline", "basis_and_derivatives"),
    ("bspline", "meskf.bspline", "tensor_eval"),
    ("bspline", "meskf.bspline", "point_basis_ders2"),
    ("surface", "meskf.surface", "BSplineSurface.eval_point"),
    ("surface", "meskf.surface", "BSplineSurface.closest_point"),
    ("surface", "meskf.surface", "BSplineSurface.chart_to_world"),
    ("surface", "meskf.surface", "BSplineSurface.tangent_frame"),
    ("surface", "meskf.surface", "BSplineSurface.elevation_many"),
    ("surface", "meskf.surface", "BSplineSurface.gradient_many"),
    ("surface", "meskf.surface", "BSplineSurface.elevation_gradient_many"),
    ("surface", "meskf.surface", "BSplineSurface.chart_to_world_many"),
    ("surface", "meskf.surface", "BSplineSurface.tangent_frame_many"),
    ("sensors3d", "meskf.sensors3d", "pose_update"),
    ("sensors3d", "meskf.sensors3d", "range_update"),
    ("sensors3d", "meskf.sensors3d", "orientation_update"),
    ("projection", "meskf.projection", "project_position"),
    ("projection", "meskf.projection", "projected_position_update"),
    ("projection", "meskf.projection", "project_range"),
    ("projection", "meskf.projection", "projected_range_update"),
    ("projection", "meskf.projection", "sample_sigma_region"),
    ("projection", "meskf.projection", "project_range_variance"),
    ("projection", "meskf.projection", "associate_to_surface"),
    ("projection", "meskf.projection", "ellipsoid_tangent_intersection"),
    ("baseline", "meskf.baseline", "propagate_3d"),
    ("baseline", "meskf.baseline", "pseudo_update"),
    ("baseline", "meskf.baseline", "pose_update_3d"),
    ("baseline", "meskf.baseline", "range_update_3d"),
    ("baseline", "meskf.baseline", "chart_errors"),
] + [("quat", "meskf.quat", name) for name in (
    "normalize", "canonicalize", "multiply", "conjugate", "from_axis_angle",
    "from_rotvec", "to_rotvec", "z_rotation", "to_matrix", "from_matrix",
    "from_matrix_many", "small_angle", "from_tait_bryan")]

NAMES = [f"{layer}.{fn.rsplit('.', 1)[-1]}" for layer, _, fn in BOUNDARIES]
BATCHED = tuple(n for n in NAMES if n.endswith("_many")
                and n.startswith("surface."))


def _points(args, out):
    return len(args[1])             # (self, t) of a batched surface query


def _samples(args, out):
    return len(out)


SIZES = {"surface": {n.split(".")[1]: _points for n in BATCHED},
         "projection": {"sample_sigma_region": _samples}}


class Tracer:
    """In-memory span recorder; one per traced campaign."""

    def __init__(self):
        self.names, self.parents, self.starts = [], [], []
        self.ends, self.oks, self.sizes = [], [], []
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, nid, size):
        names, parents, starts = self.names, self.parents, self.starts
        ends, oks, sizes, stack = self.ends, self.oks, self.sizes, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            oks.append(False)
            sizes.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            oks[idx] = True
            if size is not None:
                sizes[idx] = size(args, out)
            return out

        return traced

    def install(self):
        """Wrap every boundary function and rebind all references to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "meskf" or name.startswith("meskf.")]
        for nid, (layer, modname, qual) in enumerate(BOUNDARIES):
            owner = sys.modules[modname]
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(owner, cls_name)
            else:
                attr = qual
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, nid, SIZES.get(layer, {}).get(attr))
            sites = [owner] + [m for m in modules if m is not owner]
            bound = 0
            for site in sites:
                for key, val in list(vars(site).items()):
                    if val is fn:
                        setattr(site, key, wrapper)
                        self._undo.append((site, key, fn))
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {modname}.{qual} found")

    def uninstall(self):
        for site, key, fn in reversed(self._undo):
            setattr(site, key, fn)
        self._undo.clear()

    def save(self, path):
        np.savez(path,
                 names=np.array(self.names, dtype=np.int32),
                 parents=np.array(self.parents, dtype=np.int32),
                 starts=np.array(self.starts),
                 ends=np.array(self.ends),
                 oks=np.array(self.oks, dtype=bool),
                 sizes=np.array(self.sizes, dtype=np.int64),
                 labels=np.array(NAMES))


def _load(path):
    with np.load(path, allow_pickle=False) as f:
        if f["labels"].tolist() != NAMES:
            raise ValueError(f"{path}: span labels do not match this tracer")
        return {k: f[k] for k in ("names", "parents", "starts", "ends",
                                  "oks", "sizes")}


class _Campaign:
    """Durations, self times and trial membership of one span file."""

    def __init__(self, spans):
        self.name = spans["names"]
        self.parent = spans["parents"]
        self.dur = spans["ends"] - spans["starts"]
        self.ok = spans["oks"]
        self.size = spans["sizes"]
        n = len(self.name)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child
        # parents precede their children, so one pass finds every root
        root = np.arange(n)
        for i in np.nonzero(has_parent)[0]:
            root[i] = root[self.parent[i]]
        self.in_trial = self.name[root] == NAMES.index("sim.run_trial")
        self.n_trials = int(np.sum(self.name == NAMES.index("sim.run_trial")))


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(span_files):
    """Per-layer metrics over the traced campaigns of one run."""
    camps = [_Campaign(_load(p)) for p in span_files]
    n_trials = sum(c.n_trials for c in camps)
    if n_trials == 0:
        raise ValueError("traced campaigns hold no trial")

    def pick(label):
        """Per-call arrays over all campaigns: durations, oks, sizes and
        the parent's label, for the spans under run_trial."""
        nid = NAMES.index(label)
        out = {"dur": [], "ok": [], "size": [], "parent": []}
        for c in camps:
            m = (c.name == nid) & c.in_trial
            out["dur"].append(c.dur[m])
            out["ok"].append(c.ok[m])
            out["size"].append(c.size[m])
            par = c.parent[m]
            out["parent"].append(
                np.where(par >= 0, c.name[np.maximum(par, 0)], -1))
        return {k: np.concatenate(v) for k, v in out.items()}

    def per_call_us(label, q=50):
        return _pct(pick(label)["dur"] * 1e6, q)

    def calls(label):
        return len(pick(label)["dur"]) / n_trials

    def layer_self_ms(layer):
        ids = [i for i, n in enumerate(NAMES) if n.startswith(layer + ".")]
        total = sum(float(np.sum(c.self_time[np.isin(c.name, ids)
                                             & c.in_trial]))
                    for c in camps)
        return total * 1e3 / n_trials

    def campaign_ms(labels):
        ids = [NAMES.index(label) for label in labels]
        per = [float(np.sum(c.dur[np.isin(c.name, ids)])) * 1e3
               for c in camps]
        return float(np.median(per))

    run_trial = pick("sim.run_trial")["dur"] * 1e3
    synth = np.concatenate([
        c.dur[c.name == NAMES.index("sim.synthesize_measurements")]
        for c in camps]) * 1e3
    cp = pick("surface.closest_point")
    ep = pick("surface.eval_point")
    cp_evals = int(np.sum(ep["parent"]
                          == NAMES.index("surface.closest_point")))
    # a batched call made by another batched query (tangent_frame_many
    # calls gradient_many) is part of its caller, not a call of its own
    batch_ids = [NAMES.index(n) for n in BATCHED]
    top = {"dur": [], "size": []}
    for label in BATCHED:
        b = pick(label)
        m = ~np.isin(b["parent"], batch_ids)
        top["dur"].append(b["dur"][m])
        top["size"].append(b["size"][m])
    batch_dur = np.concatenate(top["dur"])
    batch_size = np.concatenate(top["size"])
    pr = pick("projection.project_range")
    pr_calls = len(pr["dur"])
    samples = pick("projection.sample_sigma_region")["size"]
    bspline_calls = sum(calls(n) for n in NAMES if n.startswith("bspline."))
    quat_calls = sum(calls(n) for n in NAMES if n.startswith("quat."))

    ms, us, count = "ms", "us", "count"
    return {
        "sim.run_trial_ms": (_pct(run_trial, 50), ms),
        "sim.run_trial_p90_ms": (_pct(run_trial, 90), ms),
        "sim.synthesize_ms": (_pct(synth, 50), ms),
        "sim.aggregate_ms": (campaign_ms(["sim.stack_results",
                                          "sim.metrics_from_arrays"]), ms),
        "cli.write_outputs_ms": (campaign_ms(["cli._write_outputs"]), ms),
        "core.propagate_us": (per_call_us("core.propagate"), us),
        "core.propagate_calls": (calls("core.propagate"), count),
        "core.joseph_update_us": (per_call_us("core.joseph_update"), us),
        "core.joseph_update_calls": (calls("core.joseph_update"), count),
        "core.self_ms": (layer_self_ms("core"), ms),
        "bspline.calls": (bspline_calls, count),
        "bspline.self_ms": (layer_self_ms("bspline"), ms),
        "surface.eval_point_us": (per_call_us("surface.eval_point"), us),
        "surface.eval_point_calls": (calls("surface.eval_point"), count),
        "surface.closest_point_us": (per_call_us("surface.closest_point"), us),
        "surface.closest_point_calls": (calls("surface.closest_point"),
                                        count),
        "surface.closest_point_evals": (
            cp_evals / len(cp["dur"]) if len(cp["dur"]) else 0.0, count),
        "surface.batched_us": (_pct(batch_dur * 1e6, 50), us),
        "surface.batched_calls": (len(batch_dur) / n_trials, count),
        "surface.batched_points": (
            float(np.mean(batch_size)) if len(batch_size) else 0.0, count),
        "surface.self_ms": (layer_self_ms("surface"), ms),
        "sensors3d.pose_update_us": (per_call_us("sensors3d.pose_update"),
                                     us),
        "sensors3d.pose_update_p99_us": (
            per_call_us("sensors3d.pose_update", 99), us),
        "sensors3d.range_update_us": (per_call_us("sensors3d.range_update"),
                                      us),
        "sensors3d.range_update_p99_us": (
            per_call_us("sensors3d.range_update", 99), us),
        "sensors3d.range_update_calls": (calls("sensors3d.range_update"),
                                         count),
        "sensors3d.orientation_update_us": (
            per_call_us("sensors3d.orientation_update"), us),
        "sensors3d.self_ms": (layer_self_ms("sensors3d"), ms),
        "projection.project_position_us": (
            per_call_us("projection.project_position"), us),
        "projection.project_range_us": (
            per_call_us("projection.project_range"), us),
        "projection.project_range_p99_us": (
            per_call_us("projection.project_range", 99), us),
        "projection.project_range_calls": (pr_calls / n_trials, count),
        "projection.project_range_accepted": (
            float(np.sum(pr["ok"])) / n_trials, count),
        "projection.project_range_accept_ratio": (
            float(np.mean(pr["ok"])) if pr_calls else 0.0, "ratio"),
        "projection.sample_points": (
            float(np.mean(samples)) if len(samples) else 0.0, count),
        "projection.self_ms": (layer_self_ms("projection"), ms),
        "baseline.pseudo_update_us": (
            per_call_us("baseline.pseudo_update"), us),
        "baseline.chart_errors_us": (per_call_us("baseline.chart_errors"),
                                     us),
        "baseline.propagate_3d_us": (per_call_us("baseline.propagate_3d"),
                                     us),
        "baseline.pose_update_3d_us": (
            per_call_us("baseline.pose_update_3d"), us),
        "baseline.range_update_3d_us": (
            per_call_us("baseline.range_update_3d"), us),
        "baseline.self_ms": (layer_self_ms("baseline"), ms),
        "quat.calls": (quat_calls, count),
        "quat.self_ms": (layer_self_ms("quat"), ms),
    }
