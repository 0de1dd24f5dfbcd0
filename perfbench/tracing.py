"""Outside-in tracing: wrappers installed on the package's public functions.

Nothing in the package changes. Spans wrap the entry point of each layer and
are kept, one record per call, with their parent; point wrappers on the hot
per-evaluation functions keep only a call count and an accumulated time.
Every record also keeps how much of its time went to traced calls nested
directly inside it, so self times need no second pass over the clock.

Three things make outside-in wrapping work here:
- ``wavetraj.integrate`` is the re-exported function, not the module, so
  modules are taken from ``importlib.import_module``;
- a name bound by ``from .x import y`` is a separate reference in every
  consumer module, so each wavetraj module that holds the original object
  gets the wrapper;
- ``dynamics.make_rhs`` looks ``rhs_E`` up as a module global at call time,
  so rebinding the module attribute is enough to see every RHS evaluation.
"""

import importlib
import sys
from time import perf_counter

#: (module, attribute) of each layer entry point recorded as a span
SPANS = (
    ("runner", "run_scenario"), ("integrate", "integrate"), ("integrate", "integrate_ode"),
    ("integrate", "refine_blowup"), ("gpw", "reduce_geodesic"), ("gpw", "full_geodesic_oracle"),
    ("hypotheses", "certify"), ("comparison", "check_divergence"),
    ("comparison", "solve_dominating"), ("comparison", "verify_envelope"),
)

#: (module, attribute) of the hot point functions: call count and time only
POINTS = (
    ("geometry", "metric_at"), ("geometry", "christoffel_at"), ("dynamics", "rhs_E"),
    ("integrate", "sample"), ("gpw", "split_state"), ("dynamics", "operator_eigen_range"),
    ("gpw", "full_christoffel"), ("comparison", "adaptive_quad"), ("dynamics", "energy_v"),
    ("report", "render_human"), ("report", "render_json"),
    ("integrate", "trajectory_to_csv"), ("gpw", "split_geodesic_to_csv"),
)

_DOMINATING_CALL = "DominatingSolution.__call__"


def _work(name, result):
    """The deterministic work a span's result records, kept instead of the result."""
    if name == "integrate.integrate_ode":
        st = result.stats
        return (st.n_rhs, st.n_accepted, st.n_rejected)
    if name == "gpw.reduce_geodesic":
        return int(result.v_times.size)
    return None


class Tracer:
    """Collects spans and point aggregates while installed."""

    def __init__(self):
        self.spans = []       # [name, task, parent, start, end, child_span_s, child_point_s, work]
        self.points = {}      # name -> [calls, seconds]
        self.fd_christoffel = 0
        self.task = None
        self._open = [None]   # stack of open span indices; None is the root
        self._child = [[0.0, 0.0]]   # per open frame: time in nested spans, in nested points
        self._patched = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        spans, open_, child = self.spans, self._open, self._child

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, self.task, open_[-1], perf_counter(), 0.0, 0.0, 0.0, None]
            spans.append(rec)
            open_.append(idx)
            child.append([0.0, 0.0])
            try:
                result = fn(*args, **kwargs)
                rec[7] = _work(name, result)
                return result
            finally:
                rec[4] = end = perf_counter()
                rec[5], rec[6] = child.pop()
                open_.pop()
                child[-1][0] += end - rec[3]

        return wrapper

    def _point(self, name, fn, counts_fd=False):
        agg = self.points.setdefault(name, [0, 0.0])
        child = self._child

        def wrapper(*args, **kwargs):
            if counts_fd and (args[0].christoffel is None or len(args) > 2 or "h" in kwargs):
                self.fd_christoffel += 1
            child.append([0.0, 0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                child.pop()
                child[-1][1] += dt
                agg[0] += 1
                agg[1] += dt

        return wrapper

    # ------------------------------------------------------------ install

    def install(self):
        """Rebind every reference the package's modules hold to a traced function."""
        mods = {name: importlib.import_module(f"wavetraj.{name}")
                for name in {m for m, _ in SPANS + POINTS}}
        consumers = [m for key, m in sorted(sys.modules.items())
                     if m is not None and (key == "wavetraj" or key.startswith("wavetraj."))]
        for table, make in ((SPANS, self._span), (POINTS, self._point)):
            for mod_name, attr in table:
                original = getattr(mods[mod_name], attr)
                wrapped = make(f"{mod_name}.{attr}", original,
                               **({"counts_fd": True} if attr == "christoffel_at" else {}))
                for consumer in consumers:
                    for key, value in list(vars(consumer).items()):
                        if value is original:
                            self._patched.append((consumer, key, original))
                            setattr(consumer, key, wrapped)
        cls = mods["comparison"].DominatingSolution
        original = cls.__call__
        self._patched.append((cls, "__call__", original))
        cls.__call__ = self._point(_DOMINATING_CALL, original)

    def uninstall(self):
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    # ------------------------------------------------------------ aggregation

    def _under(self, idx, name):
        parent = self.spans[idx][2]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][2]
        return False

    def layer_metrics(self):
        """Per-layer totals from the spans and point aggregates."""
        calls, total, own, open_ = {}, {}, {}, {}
        for name, _, _, start, end, child_span, child_point, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child_span - child_point
            open_[name] = open_.get(name, 0.0) + end - start - child_span

        def point_calls(name):
            return self.points.get(name, [0, 0.0])[0]

        def us_per_call(name):
            n, s = self.points.get(name, [0, 0.0])
            return 1e6 * s / n if n else 0.0

        # one integration is an integrate span, or an integrate_ode span that
        # integrate did not open (the full-geodesic oracle calls it directly)
        runs = n_rhs = n_acc = n_rej = refine_rhs = oracle_rhs = vquad_nodes = 0
        integrate_s = 0.0
        for idx, (name, _, parent, start, end, _, _, work) in enumerate(self.spans):
            if work is None and name != "integrate.integrate":
                continue   # not a counted span, or the call raised
            if name == "integrate.integrate_ode":
                n_rhs += work[0]
                n_acc += work[1]
                n_rej += work[2]
                if self._under(idx, "integrate.refine_blowup"):
                    refine_rhs += work[0]
                if self._under(idx, "gpw.full_geodesic_oracle"):
                    oracle_rhs += work[0]
                if parent is not None and self.spans[parent][0] == "integrate.integrate":
                    continue
            elif name == "gpw.reduce_geodesic":
                vquad_nodes += work
                continue
            runs += 1
            integrate_s += end - start

        stepper_self = own.get("integrate.integrate", 0.0) + own.get("integrate.integrate_ode", 0.0)
        refine_s = total.get("integrate.refine_blowup", 0.0)
        run_s = total.get("runner.run_scenario", 0.0)
        writers = ("report.render_human", "report.render_json",
                   "integrate.trajectory_to_csv", "gpw.split_geodesic_to_csv")
        return {
            "integrate.calls": runs,
            "integrate.s": integrate_s,
            "integrate.self_s": stepper_self,
            "integrate.stepper_us_per_rhs": 1e6 * stepper_self / n_rhs if n_rhs else 0.0,
            "integrate.n_rhs": n_rhs,
            "integrate.n_accepted": n_acc,
            "integrate.n_rejected": n_rej,
            "integrate.accept_ratio": n_acc / (n_acc + n_rej) if n_acc + n_rej else 0.0,
            "integrate.refine_blowup.calls": calls.get("integrate.refine_blowup", 0),
            "integrate.refine_blowup.s": refine_s,
            "integrate.refine_blowup.n_rhs": refine_rhs,
            "integrate.refine_blowup.share": refine_s / run_s if run_s else 0.0,
            "integrate.sample.calls": point_calls("integrate.sample"),
            "integrate.sample.us_per_call": us_per_call("integrate.sample"),
            "dynamics.rhs.calls": point_calls("dynamics.rhs_E"),
            "dynamics.rhs.us_per_call": us_per_call("dynamics.rhs_E"),
            "dynamics.operator_eigen_range.calls": point_calls("dynamics.operator_eigen_range"),
            "dynamics.operator_eigen_range.us_per_call": us_per_call("dynamics.operator_eigen_range"),
            "dynamics.energy_v.calls": point_calls("dynamics.energy_v"),
            "geometry.metric_at.calls": point_calls("geometry.metric_at"),
            "geometry.metric_at.us_per_call": us_per_call("geometry.metric_at"),
            "geometry.christoffel_at.calls": point_calls("geometry.christoffel_at"),
            "geometry.christoffel_at.fd_calls": self.fd_christoffel,
            "geometry.christoffel_at.us_per_call": us_per_call("geometry.christoffel_at"),
            "gpw.reduce_geodesic.calls": calls.get("gpw.reduce_geodesic", 0),
            # the v-quadrature loop: reduce_geodesic less its nested integrate
            "gpw.reduce_geodesic.vquad_s": open_.get("gpw.reduce_geodesic", 0.0),
            "gpw.vquad_nodes": vquad_nodes,
            "gpw.full_geodesic_oracle.s": total.get("gpw.full_geodesic_oracle", 0.0),
            "gpw.full_geodesic_oracle.n_rhs": oracle_rhs,
            "gpw.full_christoffel.us_per_call": us_per_call("gpw.full_christoffel"),
            "gpw.split_state.calls": point_calls("gpw.split_state"),
            "hypotheses.certify.calls": calls.get("hypotheses.certify", 0),
            "hypotheses.certify.s": total.get("hypotheses.certify", 0.0),
            "comparison.check_divergence.s": total.get("comparison.check_divergence", 0.0),
            "comparison.dominating.queries": point_calls(_DOMINATING_CALL),
            "comparison.dominating.us_per_query": us_per_call(_DOMINATING_CALL),
            "comparison.adaptive_quad.calls": point_calls("comparison.adaptive_quad"),
            "comparison.verify_envelope.s": total.get("comparison.verify_envelope", 0.0),
            "runner.write_s": sum(self.points.get(w, [0, 0.0])[1] for w in writers),
        }

    def dump(self):
        """Spans and point aggregates as plain data, for the trace file."""
        return {
            "spans": [{"name": name, "task": task, "parent": parent, "start": start,
                       "end": end, "child_span_s": cs, "child_point_s": cp}
                      for name, task, parent, start, end, cs, cp, _ in self.spans],
            "points": {name: {"calls": n, "s": s} for name, (n, s) in sorted(self.points.items())},
            "christoffel_fd_calls": self.fd_christoffel,
        }
