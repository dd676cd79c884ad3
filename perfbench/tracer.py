"""Spans and counters around linkcoh's public functions, installed from
outside the package.

`Tracer.install()` wraps each function listed in `LAYERS` and rebinds the
wrapper in every `linkcoh.*` namespace that holds the original, because a
name imported with `from .groebner import ideal_quotient` is a separate
binding that patching `linkcoh.groebner` alone would miss.  Methods are
wrapped on their class.  Each call records a span (id, parent, name, start,
end, operation); spans stay in memory until `write_spans`.

Self time of a span is its duration minus the durations of its direct
children; calls nest strictly because the benchmark runs one operation at a
time in one thread.  A generator (`random_linked_pairs`) gets one span per
resumption, so it is timed across its iteration rather than at its call.

Counters hang off hooks that need no edit of the package: S-pairs by
wrapping `groebner._Meter.charge` (split by its `what` argument), Groebner
cache hits by looking into `Ideal._gb_cache` before `reduced_gb` runs, and
linkage certificates by whether `check_linked` returned or raised.  A hook
that no longer exists is recorded in `absent` and its counters are reported
as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# layer -> public functions ("Class.method" for methods) that get spans
LAYERS: dict[str, tuple[str, ...]] = {
    "ring": ("parse_poly", "RingCtx.parse"),
    "groebner": (
        "reduced_gb", "normal_form", "ideal_member", "ideal_equal", "ideal_quotient",
        "ideal_intersect", "saturate", "eliminate", "radical_member",
    ),
    "monomial": (
        "irreducible_decomposition", "associated_primes", "min_assh_dim", "polarize",
        "as_monomial", "colon_auto", "intersect_auto",
    ),
    "simplicial": ("depth_monomial", "complex_of", "reduced_cohomology", "cd_squarefree"),
    "modules": (
        "module_gb", "submodule_syzygies", "koszul_grade", "is_regular_sequence",
        "ext1_selfdual", "module_ass", "hom_cyclic", "CyclicModule.depth",
    ),
    "linkage": ("check_linked", "link_of", "random_linked_pairs", "support_identity"),
    "invariants": ("att_top", "ass_formal_zeroth", "assh", "height_in_module", "is_equidimensional"),
    "theorems": ("run_claim",),
    "cli": ("run",),
}

# functions whose own calls and self time are reported next to their layer's
DETAIL = (
    "groebner.reduced_gb", "groebner.normal_form", "groebner.ideal_quotient",
    "groebner.ideal_intersect", "monomial.irreducible_decomposition", "monomial.polarize",
    "simplicial.depth_monomial", "simplicial.cd_squarefree", "modules.module_gb",
    "modules.submodule_syzygies", "modules.koszul_grade", "modules.is_regular_sequence",
    "linkage.random_linked_pairs", "linkage.check_linked",
)

SPAIR_KINDS = {"buchberger": "groebner.spairs", "module buchberger": "modules.spairs"}


class Tracer:
    """Span and counter state of one traced worker process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.op = -1  # index of the operation being run; -1 during set-up
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op)
        self._stack: list[list] = []  # [span id, start, child seconds]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set[str] = set()

    # -- spans -------------------------------------------------------------

    def _enter(self) -> list:
        frame = [len(self.spans) + len(self._stack), time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        self.self_s[name] += dur - frame[2]
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self.spans.append((frame[0], parent, name, frame[1], end, self.op))

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame)

        return wrapper

    def _generator_span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                frame = self._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(name, frame)
                yield item

        return wrapper

    # -- counters ----------------------------------------------------------

    def _charge(self, fn):
        @functools.wraps(fn)
        def charge(meter, what, *args, **kwargs):
            self.counts[SPAIR_KINDS.get(what, what)] += 1
            return fn(meter, what, *args, **kwargs)

        return charge

    def _gb_cache_probe(self, fn, default_order):
        @functools.wraps(fn)
        def reduced_gb(I, *args, **kwargs):
            order = args[0] if args else kwargs.get("order", default_order)
            try:
                hit = order.token() in I._gb_cache
            except AttributeError:
                self.absent.add("groebner.gb_cache_hit_ratio")
            else:
                self.counts["groebner.gb_cache_hits"] += hit
            return fn(I, *args, **kwargs)

        return reduced_gb

    def _check_outcome(self, fn):
        @functools.wraps(fn)
        def check_linked(*args, **kwargs):
            cert = fn(*args, **kwargs)
            self.counts["linkage.check_ok"] += 1
            return cert

        return check_linked

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"linkcoh.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "linkcoh" or n.startswith("linkcoh.")]

        def rebind(original, replacement) -> None:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, replacement)

        groebner = mods["groebner"]
        meter = getattr(groebner, "_Meter", None)
        if meter is None or not hasattr(meter, "charge"):
            self.absent.update(SPAIR_KINDS.values())
        else:
            meter.charge = self._charge(meter.charge)

        for layer, names in LAYERS.items():
            mod = mods[layer]
            for qual in names:
                label = f"{layer}.{qual.rsplit('.', 1)[-1]}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = cls.__dict__.get(meth) if cls is not None else None
                    if raw is None:
                        self.absent.add(label)
                        continue
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._span(label, raw.__func__)))
                    else:
                        setattr(cls, meth, self._span(label, raw))
                    continue
                fn = getattr(mod, qual, None)
                if fn is None:
                    self.absent.add(label)
                    continue
                inner = fn
                if qual == "reduced_gb":
                    order = inspect.signature(fn).parameters.get("order")
                    if order is None:
                        self.absent.add("groebner.gb_cache_hit_ratio")
                    else:
                        inner = self._gb_cache_probe(fn, order.default)
                elif qual == "check_linked":
                    inner = self._check_outcome(fn)
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._generator_span(label, inner)
                else:
                    wrapped = self._span(label, inner)
                rebind(fn, wrapped)

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan\tparent\tname\tstart\tend\top\n")
            for sid, parent, name, start, end, op in self.spans:
                fh.write(f"{self.run_id}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{op}\n")
