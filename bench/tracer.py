"""In-process tracer: wraps public functions of the ``ringoids`` modules
from outside the library and turns what it records into per-layer metrics.

Four kinds of wrapper, chosen per function by how often it runs:

``span``  pushes a timing frame and records a span (name, start, end,
          parent span, job id).  For functions called up to some 10^4
          times per sweep.
``flat``  pushes a timing frame but records no span, so its time still
          leaves the caller's self time and lands in its own layer.  For
          functions called up to some 10^6 times (matrix compose,
          invertibility tests).
``count`` counts calls only; its time stays in the caller's frame.
``items`` counts the items a generator yields.

A layer's self time is the time of its frames minus the frames nested in
them, so the self times of all layers add up to the time of the root
``cli.run`` frames.  Each wrapped name is patched in every ``ringoids``
module namespace that holds it (``from .x import f`` copies the binding)
and on its class for methods.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, kind, metric stem).  The stem's first part is
# the layer, which is always the module the function is defined in.  Spans
# not reported by name still move their time into their own layer's self
# time; each one is reached by at least one workload.
TARGETS = (
    ("cli", "run", "span", "cli.run"),
    ("rgd", "parse_rgd", "span", "rgd.parse_rgd"),
    ("ringoid", "validate", "span", "ringoid.validate"),
    ("ringoid", "FiniteRingoid.compose", "count", "ringoid.compose"),
    ("abgroup", "FinAbGroup.add", "count", "abgroup.add"),
    ("abgroup", "FinAbGroup.elements", "count", "abgroup.elements"),
    ("additive", "iso_class_table", "span", "additive.iso_class_table"),
    ("additive", "AdditiveView.find_isomorphism", "span",
     "additive.find_isomorphism"),
    ("additive", "AdditiveView.is_invertible", "flat", "additive.is_invertible"),
    ("additive", "AdditiveView.compose", "flat", "additive.compose"),
    ("additive", "AdditiveView.add", "flat", "additive.add"),
    ("additive", "AdditiveView.hom_elements", "items", "additive.hom_elements"),
    ("ktheory", "k0_bounded", "span", "ktheory.k0_bounded"),
    ("ktheory", "k1_bounded", "span", "ktheory.k1_bounded"),
    ("ktheory", "gl", "span", "ktheory.gl"),
    ("groups", "abelianization", "span", "groups.abelianization"),
    ("groups", "decompose_abelian", "span", "groups.decompose_abelian"),
    ("groups", "FinGroup.__init__", "span", "groups.FinGroup"),
    ("groups", "FinGroup.commutator_subgroup", "span",
     "groups.commutator_subgroup"),
    ("groups", "FinGroup.quotient", "span", "groups.quotient"),
    ("groups", "FinGroup.subgroup_closure", "span", "groups.subgroup_closure"),
    ("groups", "FinGroup.inv", "count", "groups.inv"),
    ("intlinalg", "smith_normal_form", "span", "intlinalg.smith_normal_form"),
    ("intlinalg", "AbPresentation.__init__", "span", "intlinalg.AbPresentation"),
    ("intlinalg", "solve_row_combination", "span",
     "intlinalg.solve_row_combination"),
    ("intlinalg", "lattice_basis", "span", "intlinalg.lattice_basis"),
    ("intlinalg", "hom_well_defined", "span", "intlinalg.hom_well_defined"),
    ("intlinalg", "hom_is_surjective", "span", "intlinalg.hom_is_surjective"),
    ("intlinalg", "hom_is_injective", "span", "intlinalg.hom_is_injective"),
    ("intlinalg", "hom_is_isomorphism", "span", "intlinalg.hom_is_isomorphism"),
    ("nerve", "oracle_compare", "span", "nerve.oracle_compare"),
    ("nerve", "k0_via_nerve", "span", "nerve.k0_via_nerve"),
    ("nerve", "GroupPresentation.simplify", "span", "nerve.simplify"),
    ("nerve", "GroupPresentation.abelianization", "span", "nerve.abelianization"),
    ("groupoids", "group_ringoid", "span", "groupoids.group_ringoid"),
    ("groupoids", "transport_groupoid", "span", "groupoids.transport_groupoid"),
    ("groupoids", "orbit_skeleton", "span", "groupoids.orbit_skeleton"),
    ("groupoids", "GSet.validate", "span", "groupoids.gset_validate"),
    ("assembly", "equivariant_assembly_zero", "span",
     "assembly.equivariant_assembly_zero"),
)

LAYERS = ("cli", "rgd", "ringoid", "additive", "ktheory", "groups",
          "intlinalg", "nerve", "groupoids", "assembly")

K0 = "k0-frontier"
ORACLE = "oracle"
K1 = "k1-gl"

# Reported per-layer metrics: (name, unit, better, home workload).  The
# home workload is the one the metric should move; there it must not read
# zero, or a wrapper failed to intercept (see selftest.py).
METRICS = (
    ("cli.run.incl_s", "s", "lower", K0),
    ("cli.run.self_s", "s", "lower", K0),
    ("rgd.parse_rgd.calls", "count", "lower", K0),
    ("rgd.parse_rgd.incl_s", "s", "lower", K0),
    ("rgd.self_s", "s", "lower", K0),
    ("ringoid.validate.incl_s", "s", "lower", K0),
    ("ringoid.compose.calls", "count", "lower", K0),
    ("ringoid.self_s", "s", "lower", K0),
    ("abgroup.add.calls", "count", "lower", K0),
    ("abgroup.elements.calls", "count", "lower", K0),
    ("additive.self_s", "s", "lower", K0),
    ("additive.iso_class_table.incl_s", "s", "lower", K0),
    ("additive.find_isomorphism.calls", "count", "lower", K0),
    ("additive.find_isomorphism.self_s", "s", "lower", K0),
    ("additive.iso.found", "count", "lower", K0),
    ("additive.iso.refuted", "count", "lower", K0),
    ("additive.iso.undecided", "count", "lower", K0),
    ("additive.iso.found_ratio", "ratio", "higher", K0),
    ("additive.iso.max_undecided_size", "count", "lower", K0),
    ("additive.iso.max_undecided_ceiling_ratio", "ratio", "lower", K0),
    ("additive.is_invertible.calls", "count", "lower", K0),
    ("additive.is_invertible.incl_s", "s", "lower", K0),
    ("additive.is_invertible.true_ratio", "ratio", "higher", K0),
    ("additive.compose.calls", "count", "lower", K1),
    ("additive.compose.incl_s", "s", "lower", K1),
    ("additive.hom_elements.items", "count", "lower", K0),
    ("ktheory.self_s", "s", "lower", K1),
    ("ktheory.k0_bounded.incl_s", "s", "lower", K0),
    ("ktheory.k1_bounded.incl_s", "s", "lower", K1),
    ("ktheory.gl.incl_s", "s", "lower", K1),
    ("ktheory.gl.end_size", "count", "lower", K1),
    ("ktheory.gl.order", "count", "lower", K1),
    ("ktheory.gl.invertible_ratio", "ratio", "higher", K1),
    ("groups.self_s", "s", "lower", K1),
    ("groups.commutator_subgroup.incl_s", "s", "lower", K1),
    ("groups.inv.calls", "count", "lower", K1),
    ("intlinalg.self_s", "s", "lower", ORACLE),
    ("intlinalg.smith_normal_form.calls", "count", "lower", ORACLE),
    ("intlinalg.smith_normal_form.distinct_ratio", "ratio", "higher", ORACLE),
    ("intlinalg.snf.max_cells", "count", "lower", ORACLE),
    ("intlinalg.hom_is_isomorphism.incl_s", "s", "lower", ORACLE),
    ("nerve.self_s", "s", "lower", ORACLE),
    ("nerve.k0_via_nerve.incl_s", "s", "lower", ORACLE),
    ("nerve.simplify.incl_s", "s", "lower", ORACLE),
    ("groupoids.self_s", "s", "lower", K0),
    ("groupoids.group_ringoid.incl_s", "s", "lower", K0),
    ("assembly.self_s", "s", "lower", K0),
    ("assembly.equivariant_assembly_zero.incl_s", "s", "lower", K0),
    ("trace.traced_sweep_s", "s", "lower", K0),
    ("trace.untraced_sweep_s", "s", "lower", K0),
    ("trace.overhead_ratio", "ratio", "lower", K0),
)


class SweepStats:
    """Everything recorded during one sweep of traced jobs."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.stem_self = defaultdict(float)
        self.items = defaultdict(int)
        self.iso = defaultdict(int)
        self.max_undecided_size = 0
        self.ceiling = 0
        self.invertible_true = 0
        self.gl_end = 0
        self.gl_order = 0
        self.snf_distinct = 0
        self.snf_max_cells = 0


class Tracer:
    """Installs the wrappers and records into ``self.stats`` (one
    ``SweepStats`` per sweep) and ``self.spans`` (kept for the whole run)."""

    def __init__(self):
        self.stats = SweepStats()
        self.spans = []
        self.job = None
        self._snf_seen = set()
        # Timing frames: [time of nested frames, index of enclosing span].
        self._stack = [[0.0, None]]
        self._active = defaultdict(int)
        self._patched = []

    # -- bookkeeping ------------------------------------------------------

    def start_job(self, job_id):
        self.job = job_id
        self._snf_seen = set()

    def take_sweep(self):
        done, self.stats = self.stats, SweepStats()
        return done

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, stem, layer, record_span, after=None):
        tracer = self
        perf = time.perf_counter
        stack = self._stack
        active = self._active

        def wrapper(*args, **kwargs):
            st = tracer.stats
            parent = stack[-1]
            idx = parent[1]
            if record_span:
                idx = len(tracer.spans)
                tracer.spans.append([stem, 0.0, 0.0, parent[1], tracer.job])
            frame = [0.0, idx]
            stack.append(frame)
            active[stem] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                active[stem] -= 1
                parent[0] += dt
                own = dt - frame[0]
                st.self_s[layer] += own
                st.stem_self[stem] += own
                st.calls[stem] += 1
                if not active[stem]:
                    st.incl[stem] += dt
                if record_span:
                    rec = tracer.spans[idx]
                    rec[1] = t0
                    rec[2] = t1
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def _counted(self, fn, stem):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.stats.calls[stem] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _items(self, fn, stem):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.stats.calls[stem] += 1
            for item in fn(*args, **kwargs):
                tracer.stats.items[stem] += 1
                yield item

        return wrapper

    # -- result classifiers -------------------------------------------------

    def _after_find_isomorphism(self, additive):
        def after(st, args, result):
            if isinstance(result, additive.IsoWitness):
                st.iso["found"] += 1
            elif result is None:
                st.iso["refuted"] += 1
            else:
                st.iso["undecided"] += 1
                st.max_undecided_size = max(st.max_undecided_size, result.size)
                st.ceiling = result.ceiling
        return after

    @staticmethod
    def _after_is_invertible(st, args, result):
        if result:
            st.invertible_true += 1

    @staticmethod
    def _after_gl(st, args, result):
        view, s = args[0], args[1]
        st.gl_end += view.hom_order(tuple(s), tuple(s))
        st.gl_order += len(result)

    def _after_snf(self, st, args, result):
        m = args[0]
        st.snf_max_cells = max(st.snf_max_cells, m.rows * m.cols)
        key = (m.rows, m.cols, m.data)
        if key not in self._snf_seen:
            self._snf_seen.add(key)
            st.snf_distinct += 1

    # -- install / uninstall --------------------------------------------------

    def install(self):
        """Patch every target; returns the targets that could not be found."""
        import importlib
        missing = []
        for mod_name, path, kind, stem in TARGETS:
            try:
                module = importlib.import_module("ringoids." + mod_name)
            except ImportError:
                missing.append(mod_name + ":" + path)
                continue
            owner = module
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None)) if owner else None
            if original is None:
                missing.append(mod_name + ":" + path)
                continue
            after = {
                "additive.find_isomorphism":
                    self._after_find_isomorphism(module),
                "additive.is_invertible": self._after_is_invertible,
                "ktheory.gl": self._after_gl,
                "intlinalg.smith_normal_form": self._after_snf,
            }.get(stem)
            layer = stem.split(".")[0]
            if kind in ("span", "flat"):
                wrapper = self._timed(original, stem, layer, kind == "span",
                                      after)
            elif kind == "count":
                wrapper = self._counted(original, stem)
            else:
                wrapper = self._items(original, stem)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "ringoids" and not name.startswith("ringoids."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        return missing

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def layer_self_key(layer):
    return "cli.run.self_s" if layer == "cli" else layer + ".self_s"


def _ratio(num, den):
    return num / den if den else 0.0


def sweep_metrics(st):
    """Per-layer metrics of one sweep (the ``trace.*`` ones are added by
    the caller, which times whole sweeps)."""
    m = {}
    for layer in LAYERS:
        m[layer_self_key(layer)] = st.self_s.get(layer, 0.0)
    for stem in ("cli.run", "rgd.parse_rgd", "ringoid.validate",
                 "additive.iso_class_table", "additive.is_invertible",
                 "additive.compose", "ktheory.k0_bounded",
                 "ktheory.k1_bounded", "ktheory.gl",
                 "groups.commutator_subgroup", "intlinalg.hom_is_isomorphism",
                 "nerve.k0_via_nerve", "nerve.simplify",
                 "groupoids.group_ringoid",
                 "assembly.equivariant_assembly_zero"):
        m[stem + ".incl_s"] = st.incl.get(stem, 0.0)
    for stem in ("rgd.parse_rgd", "ringoid.compose", "abgroup.add",
                 "abgroup.elements", "additive.find_isomorphism",
                 "additive.is_invertible", "additive.compose", "groups.inv",
                 "intlinalg.smith_normal_form"):
        m[stem + ".calls"] = st.calls.get(stem, 0)
    m["additive.find_isomorphism.self_s"] = st.stem_self.get(
        "additive.find_isomorphism", 0.0)
    finds = m["additive.find_isomorphism.calls"]
    m["additive.iso.found"] = st.iso.get("found", 0)
    m["additive.iso.refuted"] = st.iso.get("refuted", 0)
    m["additive.iso.undecided"] = st.iso.get("undecided", 0)
    m["additive.iso.found_ratio"] = _ratio(m["additive.iso.found"], finds)
    m["additive.iso.max_undecided_size"] = st.max_undecided_size
    m["additive.iso.max_undecided_ceiling_ratio"] = _ratio(
        st.max_undecided_size, st.ceiling)
    m["additive.is_invertible.true_ratio"] = _ratio(
        st.invertible_true, m["additive.is_invertible.calls"])
    m["additive.hom_elements.items"] = st.items.get("additive.hom_elements", 0)
    m["ktheory.gl.end_size"] = st.gl_end
    m["ktheory.gl.order"] = st.gl_order
    m["ktheory.gl.invertible_ratio"] = _ratio(st.gl_order, st.gl_end)
    m["intlinalg.smith_normal_form.distinct_ratio"] = _ratio(
        st.snf_distinct, m["intlinalg.smith_normal_form.calls"])
    m["intlinalg.snf.max_cells"] = st.snf_max_cells
    return m
