"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces the public functions of each torusideals module
with wrappers that open a span around the call.  A span's self time is its
duration minus the time covered by the spans it opened.  Spans are folded
into per-layer totals as they close; individual spans are not kept,
because a verify pass opens about a million of them.

For the layers in ``PEAK_LAYERS`` a span also records how far the process's
peak RSS (``ru_maxrss``) rose while it ran; summed over an operation, that
is the part of the operation's peak memory the layer reached.  It is read
from ``getrusage`` rather than ``tracemalloc``, because tracing every
allocation made ``series_div`` thirty times slower under ``series.expand``.

Wrappers are installed only in a forked child that runs the traced
operations, so the parent's modules stay untouched.
"""
from __future__ import annotations

import resource
import sys
import time

# layer -> (module, attribute) pairs; "Class.method" names a method.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "intpoly.mul": (("intpoly", "IntPoly.__mul__"),
                    ("intpoly", "LaurentPoly.__mul__")),
    "intpoly.divmod": (("intpoly", "IntPoly.__divmod__"),),
    "intpoly.to_x_basis": (("intpoly", "laurent_to_x_basis"),),
    "intpoly.eval": (("intpoly", "IntPoly.eval_int"),
                     ("intpoly", "LaurentPoly.eval_int")),
    "chebfam.poly": (("chebfam", "tcheb"), ("chebfam", "fpoly")),
    "chebfam.value": (("chebfam", "fpoly_value"),),
    "chebfam.oracle": (("chebfam", "tcheb_closed"), ("chebfam", "tcheb_trace"),
                       ("chebfam", "fpoly_closed")),
    "divisors.a_coeff": (("divisors", "a_coeff"),),
    "divisors.enum": (("divisors", "divisors"), ("divisors", "odd_divisors")),
    "divisors.runs": (("divisors", "sequence_for_divisor"),
                      ("divisors", "involute"),
                      ("divisors", "representations")),
    "hilbert.pg_interval": (("hilbert", "pg_via_interval"),),
    "hilbert.pg_odd_divisors": (("hilbert", "pg_via_odd_divisors"),),
    "hilbert.pg_roundtrip": (("hilbert", "pg_roundtrip"),),
    "hilbert.pg_sequences": (("hilbert", "pg_via_sequences"),),
    "hilbert.approx_defect": (("hilbert", "approx_defect"),),
    "hilbert.cn": (("hilbert", "cn_via_odd_divisors"),
                   ("hilbert", "cn_via_coeff_formula"),
                   ("hilbert", "pn_from_cn")),
    "hilbert.pg_eval": (("hilbert", "pg_eval_int"),),
    "series.expand": (("series", "expand_pg_product"), ("series", "expand_f_gf"),
                      ("series", "expand_tcheb_gf")),
    "series.div": (("series", "series_div"), ("series", "series_inverse")),
    "series.mul": (("series", "series_mul"),),
    "zeta": (("zeta", "local_zeta_factors"), ("zeta", "hasse_weil_factors"),
             ("zeta", "check_functional_equation"),
             ("zeta", "zeta_consistency_with_cn"),
             ("zeta", "format_local_zeta")),
    "oeis.emit": (("oeis", "emit_bfile"),),
    "verify.routes": (("verify", "verify_routes"),),
    "verify.cheb": (("verify", "verify_cheb"),),
    "verify.series": (("verify", "verify_series"),),
    "verify.mult": (("verify", "verify_mult"),),
    "verify.zeta": (("verify", "verify_zeta"),),
    "verify.special": (("verify", "verify_special"),),
    "cli": (("cli", "main"),),
}

PEAK_LAYERS = frozenset({"chebfam.poly", "chebfam.value", "series.expand"})


class Tracer:
    """Per-layer totals for one operation at a time, as
    {layer: [calls, self_s, peak_kib]}; ``begin`` clears them."""

    def __init__(self) -> None:
        self._totals: dict[str, list] = {}
        self._stack: list[list] = []  # [layer, start, child seconds]

    def begin(self) -> None:
        self._totals = {layer: [0, 0.0, 0] for layer in LAYERS}

    @property
    def totals(self) -> dict[str, list]:
        return self._totals

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` just spent outside the library out of the
        self time of the innermost open span."""
        if self._stack:
            self._stack[-1][2] += seconds

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "torusideals"
                                         or name.startswith("torusideals."))]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                owner = sys.modules[f"torusideals.{mod_name}"]
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    orig = vars(cls)[meth]
                    wrapper = self._wrap(layer, orig)
                    for k, v in list(vars(cls).items()):
                        if v is orig:  # also catches aliases like __rmul__
                            setattr(cls, k, wrapper)
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(layer, orig)
                for mod in modules:  # every ``from .x import name`` binding
                    for k, v in list(vars(mod).items()):
                        if v is orig:
                            setattr(mod, k, wrapper)
                        elif isinstance(v, dict) and not k.startswith("__"):
                            for dk, dv in list(v.items()):  # e.g. verify.SUITES
                                if dv is orig:
                                    v[dk] = wrapper

    def _wrap(self, layer: str, fn):
        stack, clock = self._stack, time.perf_counter
        tracer = self

        if layer not in PEAK_LAYERS:
            def span(*args, **kwargs):
                stack.append([layer, clock(), 0.0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(stack.pop(), clock())
            return span

        def peak_span(*args, **kwargs):
            high = maxrss()
            stack.append([layer, clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(stack.pop(), clock())
                tracer._totals[layer][2] += maxrss() - high
        return peak_span

    def _close(self, rec: list, now: float) -> None:
        layer, start, child = rec
        dt = now - start
        total = self._totals[layer]
        total[0] += 1
        total[1] += dt - child
        if self._stack:
            self._stack[-1][2] += dt


def maxrss() -> int:
    """Peak RSS of this process so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
