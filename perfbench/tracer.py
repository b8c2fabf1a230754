"""In-memory span tracer that wraps cyclorb's module-level public functions.

The program looks these names up on its modules at call time (for example
``catalog.bootstrap`` calls ``mn.fit_connection`` and ``fb.basis_for``), so
replacing the module attribute puts a span around every call without any
edit to the package.  Wrappers are installed only for a traced pass and
removed afterwards.

A span records name, start, end, parent span and task id.  Hot per-point
functions (``frobenius.evaluate`` and the assembled correlator closure) are
aggregated into time and call counts instead of one span per call.  Self
time is a call's duration minus the time covered by the wrapped calls made
inside it.  The wrappers time their own work (bookkeeping and the counters
computed from results) as the tracing overhead, which no self time
includes.  Only calls on the thread that installed the tracer are timed;
calls on worker threads (the CLI's ``--threads`` pool) run unwrapped and
their wall time falls into the enclosing main-thread span.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("frobenius", "monodromy", "catalog", "rsos", "yanglee_chain", "cli")


class Tracer:
    """Collects spans, self times and counts for one traced pass."""

    def __init__(self):
        self.spans = []               # (id, name, start, end, parent_id, task)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = defaultdict(float)
        self.overhead_s = 0.0         # time spent in the wrappers themselves
        self.task = None
        self._stack = []              # [name, start, child_time, span_id]
        self._next_id = 0
        self._thread = threading.get_ident()
        self._saved = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, hot=False, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            entered = perf_counter()
            stack = tracer._stack
            span_id = None
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                tracer.self_s[name] += dur - frame[2]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if not hot:
                    parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                    tracer.spans.append((span_id, name, frame[1], end, parent, tracer.task))
            if on_result is not None:
                out = on_result(tracer, args, kwargs, out)
            # the wrapper's own time goes to overhead_s, not to the caller's self time
            own = frame[1] - entered + perf_counter() - end
            tracer.overhead_s += own
            if stack:
                stack[-1][2] += own
            return out

        return wrapper

    def install(self, modules):
        """Replace the traced attributes of the cyclorb modules (dict name -> module)."""
        for qual, opts in _targets().items():
            mod_name, attr = qual.split(".")
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(qual, orig, **opts))
        mod = modules["monodromy"]
        self._saved.append((mod, "solve_ivp", mod.solve_ivp))
        mod.solve_ivp = _count_nfev(self, mod.solve_ivp)

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def metrics(self):
        """Per-layer metrics of this pass; names and units as in BENCHMARK.json."""
        s, n, c = self.self_s, self.calls, self.counts
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.layer_self_s(layer), "s")
        m.update({
            "frobenius.series_s": (s["frobenius.frobenius_series"], "s"),
            "frobenius.series_terms": (c["series_terms"], "count"),
            "frobenius.eval_s": (s["frobenius.evaluate"], "s"),
            "frobenius.eval_calls": (n["frobenius.evaluate"], "count"),
            "monodromy.fit_s": (s["monodromy.fit_connection"], "s"),
            "monodromy.invariants_s": (s["monodromy.diagonal_invariants"], "s"),
            "monodromy.invariants_calls": (n["monodromy.diagonal_invariants"], "count"),
            "monodromy.invariants_retries": (c["invariants_retries"], "count"),
            "monodromy.assemble_self_s": (s["monodromy.assemble"] + s["monodromy.G"], "s"),
            "monodromy.continue_s": (s["monodromy.continue_blocks"], "s"),
            "monodromy.continue_nfev": (c["continue_nfev"], "count"),
            "catalog.bootstrap_calls": (n["catalog.bootstrap"], "count"),
            "catalog.bootstrap_self_s": (s["catalog.bootstrap"], "s"),
            "catalog.tables_s": (sum(s[f"catalog.{t}"] for t in _TABLES), "s"),
            "rsos.basis_s": (s["rsos.enumerate_heights"], "s"),
            "rsos.basis_dim": (c["basis_dim"], "count"),
            "rsos.hamiltonian_s": (s["rsos.build_rsos_hamiltonian"], "s"),
            "rsos.hamiltonian_nnz": (c["hamiltonian_nnz"], "count"),
            "rsos.eigensolve_s": (s["rsos.eigensystem"], "s"),
            "rsos.eigensolve_calls": (n["rsos.eigensystem"], "count"),
            "rsos.reduced_density_s": (s["rsos.reduced_density"], "s"),
            "rsos.rho_elements": (c["rho_elements"], "count"),
            "rsos.rho_useful_frac": (c["rho_useful"] / c["rho_elements"]
                                     if c["rho_elements"] else 0.0, "ratio"),
            "rsos.rho_max_bytes": (c["rho_max_bytes"], "bytes"),
            "rsos.trace_s": (s["rsos.renyi_twisted"], "s"),
            "rsos.trace_flops": (c["trace_flops"], "flop"),
            "yanglee_chain.build_s": (s["yanglee_chain.ising_imaginary_chain"], "s"),
            "yanglee_chain.eigensolve_s": (s["yanglee_chain.lowest_levels"]
                                           + s["yanglee_chain.ground_pair"], "s"),
            "yanglee_chain.eigensolve_calls": (n["yanglee_chain.lowest_levels"]
                                               + n["yanglee_chain.ground_pair"], "count"),
            "yanglee_chain.threshold_steps": (n["yanglee_chain.levels_merged"]
                                              / n["yanglee_chain.critical_field"]
                                              if n["yanglee_chain.critical_field"] else 0.0,
                                              "count"),
            "yanglee_chain.profile_s": (s["yanglee_chain.renyi2_profile"], "s"),
            "trace.overhead_s": (self.overhead_s, "s"),
        })
        return m


_TABLES = ("torus_check", "torus_block_expansions", "ope_table", "ope_table_csv",
           "ward_taylor")


# -- counters computed from arguments and results (array shapes, not timings) --


def _series_terms(tr, args, kwargs, series):
    tr.counts["series_terms"] += len(series.coeffs)
    return series


def _invariants_retry(tr, exc):
    if type(exc).__name__ == "DegeneracyError":
        tr.counts["invariants_retries"] += 1


def _wrap_G(tr, args, kwargs, G):
    return tr.wrap("monodromy.G", G, hot=True)


def _count_nfev(tr, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        sol = fn(*args, **kwargs)
        if threading.get_ident() == tr._thread:
            tr.counts["continue_nfev"] += sol.nfev
        return sol
    return counted


def _basis_dim(tr, args, kwargs, basis):
    tr.counts["basis_dim"] += basis.dim
    return basis


def _hamiltonian_nnz(tr, args, kwargs, out):
    tr.counts["hamiltonian_nnz"] += out[0].nnz
    return out


def _rho_counts(tr, args, kwargs, rd):
    n = rd.matrix.shape[0]
    lab = rd.block_labels
    same = ((lab[:, None, 0] == lab[None, :, 0]) & (lab[:, None, 1] == lab[None, :, 1]))
    tr.counts["rho_elements"] += n * n
    tr.counts["rho_useful"] += int(same.sum())
    tr.counts["rho_max_bytes"] = max(tr.counts["rho_max_bytes"], rd.matrix.nbytes)
    return rd


def _trace_flops(tr, args, kwargs, out):
    # matrix_power(rho, N) does N - 1 complex products of 8 n^3 real flops
    rd = args[0]
    N = args[1] if len(args) > 1 else kwargs["N"]
    tr.counts["trace_flops"] += 8 * (N - 1) * rd.matrix.shape[0] ** 3
    return out


def _targets():
    """Traced attribute -> wrap options."""
    return {
        "frobenius.frobenius_series": {"on_result": _series_terms},
        "frobenius.basis_for": {},
        "frobenius.evaluate": {"hot": True},
        "monodromy.fit_connection": {},
        "monodromy.diagonal_invariants": {"on_error": _invariants_retry},
        "monodromy.assemble": {"on_result": _wrap_G},
        "monodromy.continue_blocks": {},
        "monodromy.correlator_on_circle": {},
        "catalog.get_model": {},
        "catalog.bootstrap": {},
        "catalog.correlator": {},
        "catalog.predict_on_circle": {},
        **{f"catalog.{t}": {} for t in _TABLES},
        "rsos.enumerate_heights": {"on_result": _basis_dim},
        "rsos.build_rsos_hamiltonian": {"on_result": _hamiltonian_nnz},
        "rsos.eigensystem": {},
        "rsos.select_state": {},
        "rsos.entropy_curve": {},
        "rsos.reduced_density": {"on_result": _rho_counts},
        "rsos.renyi_twisted": {"on_result": _trace_flops},
        "rsos.fit_twist_dimension": {},
        "rsos.overlay_fit": {},
        "rsos.curve_csv": {},
        "yanglee_chain.ising_imaginary_chain": {},
        "yanglee_chain.lowest_levels": {},
        "yanglee_chain.levels_merged": {},
        "yanglee_chain.critical_field": {},
        "yanglee_chain.ground_pair": {},
        "yanglee_chain.renyi2_profile": {},
        "yanglee_chain.crossover_study": {},
        "cli.main": {},
    }
