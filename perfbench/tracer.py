"""Layer spans recorded from outside toricgit, around its public entry points.

`Tracer.install` replaces each entry point listed in ENTRY_POINTS with a
wrapper, in place: the module attribute, every binding another toricgit
module made with `from .x import y` (and dict values such as the CLI's
handler table), and class attributes for methods.  A wrapper keeps a stack
of open spans; when a span closes its duration is added to its parent's
child time, so a span's self time is its duration minus the time its child
spans cover.  Every call is aggregated by name as (calls, total, self).
Spans of entry points not marked hot are also kept individually as
(id, parent id, name, start, end), up to a cap, so memory stays bounded
while hot leaves such as `IntMatrix.__init__` run millions of times.

A few probes look at the library's own memo slots before a call to count
cache misses.  An entry point or memo slot that a later version of the
library no longer has is skipped; its metrics then read 0.
"""

import time
from functools import wraps

# layer -> (module, [entry point, ...]); a trailing "*" marks a hot leaf.
ENTRY_POINTS = {
    "intlat": ("toricgit.intlat", [
        "IntMatrix.__init__*", "IntMatrix.__matmul__*", "IntMatrix.det*",
        "IntMatrix.rank*", "IntMatrix.transpose*", "smith_normal_form*",
        "hermite_rows*", "matrix_rank*", "Sublattice.from_rows*",
        "Sublattice.contains*", "Sublattice.contains_lattice*",
        "kernel_lattice", "saturate", "quotient_lattice_map",
        "right_inverse_of_surjection", "unimodular_inverse", "solve_rational",
        "cokernel_diagnostics",
    ]),
    "cones": ("toricgit.cones", [
        "dd_solve*", "Cone.__init__*", "Cone.contains_cone*",
        "Cone.lineality_lattice*", "Cone.dim*", "Cone.from_generators",
        "Cone.from_inequalities", "Cone.faces", "Cone.is_face_of",
        "Cone.intersect", "Cone.image", "hilbert_basis", "monoid_generators",
    ]),
    "fans": ("toricgit.fans", [
        "Fan.__init__*", "Fan.cone*", "Fan.faces_of*",
        "SubfanSelection.__init__*", "Fan.cone_keys", "validate_fan",
        "is_complete", "is_simplicial", "is_smooth", "enumerate_open_subsets",
        "limit_of_generic_point", "fan_automorphisms",
        "FanAutomorphism.__init__",
    ]),
    "quotients": ("toricgit.quotients", [
        "SubtorusAction.image_cone*", "SubtorusAction.split_image_cone*",
        "good_quotient", "normalize_action", "is_saturated",
        "enumerate_good_subsets", "t_maximal_subsets", "max_saturated_inside",
        "staged_quotient", "remark_suite",
    ]),
    "oracles": ("toricgit.oracles", [
        "chart_family", "oracle_good_quotient", "oracle_orbit_labels",
        "oracle_saturated", "brute_t_maximal", "brute_max_saturated_inside",
        "mutually_generate", "invariant_monoid_generators",
        "oracle_verify_quotient",
    ]),
    "symmetry": ("toricgit.symmetry", [
        "translate*", "generate_symmetry_group", "w_set",
        "verify_theorem_conclusions", "verify_corollary", "eq1_crosscheck",
    ]),
    "cox": ("toricgit.cox", [
        "cox_presentation", "quasitorus_action", "lift_open",
        "canonical_section", "zero_set_identity_holds", "isotropy_at",
        "round_trip", "verify_globally_defined",
    ]),
    "problemfile": ("toricgit.problemfile", [
        "parse_problem", "load_problem", "select",
    ]),
    "cli": ("toricgit.cli", [
        "main", "cmd_check", "cmd_quotient", "cmd_enumerate_maximal",
        "cmd_cox", "cmd_w_set", "cmd_verify_theorem", "cmd_verify_corollary",
        "cmd_eq1_check", "cmd_oracle_sweep",
    ]),
    "corpus": ("toricgit.corpus", [
        "run_sweep", "corpus_fans", "actions_for",
    ]),
}

# span name -> probe run on the call's arguments before the call; a true
# result counts a miss of the library's memo
MISS_PROBES = {
    "cones.Cone.faces": lambda args: getattr(args[0], "_faces", None) is None,
    "fans.Fan.cone_keys": lambda args: getattr(args[0], "_keys", None) is None,
    "quotients.good_quotient": lambda args: (
        ("gq", args[0].keys) not in getattr(args[1], "_cache", {})),
    "quotients.SubtorusAction.image_cone": lambda args: (
        ("img", args[1]) not in getattr(args[0], "_cache", {})),
}


SPAN_CAP = 50_000  # individual spans kept; later ones are only aggregated


class Tracer:
    """Aggregated span statistics plus a bounded log of individual spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.misses = {}  # name -> calls that missed the library's memo
        self.faces_returned = 0
        self.faces_cuts = 0
        self.spans = []  # (id, parent id, name, start, end)
        self.installed = []
        self._stack = []  # open frames: [start, child seconds, id]
        self._next_id = 0

    def _wrap(self, name, fn, hot):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        cap = SPAN_CAP
        clock = time.perf_counter
        probe = MISS_PROBES.get(name)
        if probe is not None:
            self.misses[name] = 0

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                try:
                    missed = probe(args)
                except (IndexError, AttributeError, TypeError):
                    missed = True
                if missed:
                    self.misses[name] += 1
            parent = stack[-1][2] if stack else 0
            if hot:
                ident = parent
            else:
                self._next_id += 1
                ident = self._next_id
            frame = [clock(), 0.0, ident]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not hot and len(spans) < cap:
                    spans.append((ident, parent, name, frame[0], end))

        return wrapper

    def _wrap_faces(self, fn):
        """Cone.faces also reports faces returned and cuts built per miss."""
        cuts = self.stats.setdefault("cones.Cone.from_inequalities", [0, 0.0, 0.0])

        @wraps(fn)
        def faces(cone):
            miss = getattr(cone, "_faces", None) is None
            before = cuts[0]
            result = fn(cone)
            if miss:
                self.faces_cuts += cuts[0] - before
                self.faces_returned += len(result)
            return result

        return faces

    def install(self, modules):
        """Wrap every entry point found in `modules` (name -> module)."""
        package = [m for n, m in modules.items() if n.split(".")[0] == "toricgit"]
        for layer, (module_name, entries) in ENTRY_POINTS.items():
            module = modules.get(module_name)
            if module is None:
                continue
            for entry in entries:
                hot = entry.endswith("*")
                path = entry.rstrip("*")
                name = f"{layer}.{path}"
                if "." in path:
                    self._install_method(module, path, name, hot)
                else:
                    self._install_function(package, module, path, name, hot)

    def _install_method(self, module, path, name, hot):
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, hot)))
        elif callable(raw):
            wrapped = self._wrap(name, raw, hot)
            if name == "cones.Cone.faces":
                wrapped = self._wrap_faces(wrapped)
            setattr(cls, attr, wrapped)
        else:
            return
        self.installed.append(name)

    def _install_function(self, package, module, attr, name, hot):
        original = getattr(module, attr, None)
        if not callable(original):
            return
        wrapped = self._wrap(name, original, hot)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
        self.installed.append(name)

    def layer_self_seconds(self, layer):
        prefix = layer + "."
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix))

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_seconds(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]


# per-layer metric -> (unit, how to read it from a Tracer)
def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = {
    "intlat.snf.calls": ("count", lambda t: t.calls("intlat.smith_normal_form")),
    "intlat.snf.self_s": ("s", lambda t: t.self_seconds("intlat.smith_normal_form")),
    "intlat.hermite.calls": ("count", lambda t: t.calls("intlat.hermite_rows")),
    "intlat.intmatrix.new": ("count", lambda t: t.calls("intlat.IntMatrix.__init__")),
    "intlat.self_s": ("s", lambda t: t.layer_self_seconds("intlat")),
    "cones.dd.calls": ("count", lambda t: t.calls("cones.dd_solve")),
    "cones.dd.self_s": ("s", lambda t: t.self_seconds("cones.dd_solve")),
    "cones.cone.new": ("count", lambda t: t.calls("cones.Cone.__init__")),
    "cones.faces.calls": ("count", lambda t: t.calls("cones.Cone.faces")),
    "cones.faces.misses": ("count", lambda t: t.misses.get("cones.Cone.faces", 0)),
    "cones.faces.useful_ratio": (
        "ratio", lambda t: _ratio(t.faces_returned, t.faces_cuts)),
    "cones.is_face_of.calls": ("count", lambda t: t.calls("cones.Cone.is_face_of")),
    "cones.hilbert.calls": ("count", lambda t: t.calls("cones.hilbert_basis")),
    "cones.hilbert.self_s": ("s", lambda t: t.self_seconds("cones.hilbert_basis")),
    "cones.self_s": ("s", lambda t: t.layer_self_seconds("cones")),
    "fans.fan.new": ("count", lambda t: t.calls("fans.Fan.__init__")),
    "fans.cone_keys.misses": (
        "count", lambda t: t.misses.get("fans.Fan.cone_keys", 0)),
    "fans.cone_keys.self_s": ("s", lambda t: t.self_seconds("fans.Fan.cone_keys")),
    "fans.limit_point.calls": (
        "count", lambda t: t.calls("fans.limit_of_generic_point")),
    "fans.limit_point.self_s": (
        "s", lambda t: t.self_seconds("fans.limit_of_generic_point")),
    "fans.open_subsets.self_s": (
        "s", lambda t: t.self_seconds("fans.enumerate_open_subsets")),
    "fans.automorphisms.self_s": (
        "s", lambda t: t.self_seconds("fans.fan_automorphisms")),
    "fans.self_s": ("s", lambda t: t.layer_self_seconds("fans")),
    "quotients.gq.calls": ("count", lambda t: t.calls("quotients.good_quotient")),
    "quotients.gq.misses": (
        "count", lambda t: t.misses.get("quotients.good_quotient", 0)),
    "quotients.gq.hit_ratio": ("ratio", lambda t: _ratio(
        t.calls("quotients.good_quotient")
        - t.misses.get("quotients.good_quotient", 0),
        t.calls("quotients.good_quotient"))),
    "quotients.image_cone.misses": (
        "count", lambda t: t.misses.get("quotients.SubtorusAction.image_cone", 0)),
    "quotients.tmax.self_s": (
        "s", lambda t: t.self_seconds("quotients.t_maximal_subsets")),
    "quotients.is_saturated.calls": (
        "count", lambda t: t.calls("quotients.is_saturated")),
    "quotients.staged.self_s": (
        "s", lambda t: t.self_seconds("quotients.staged_quotient")),
    "quotients.self_s": ("s", lambda t: t.layer_self_seconds("quotients")),
    "oracles.chart_family.self_s": (
        "s", lambda t: t.self_seconds("oracles.chart_family")),
    "oracles.verify.calls": (
        "count", lambda t: t.calls("oracles.oracle_verify_quotient")),
    "oracles.verify.self_s": (
        "s", lambda t: t.self_seconds("oracles.oracle_verify_quotient")),
    "oracles.brute_sat.self_s": (
        "s", lambda t: t.self_seconds("oracles.brute_max_saturated_inside")),
    "oracles.self_s": ("s", lambda t: t.layer_self_seconds("oracles")),
    "symmetry.theorem.self_s": (
        "s", lambda t: t.self_seconds("symmetry.verify_theorem_conclusions")),
    "symmetry.eq1.self_s": ("s", lambda t: t.self_seconds("symmetry.eq1_crosscheck")),
    "symmetry.corollary.self_s": (
        "s", lambda t: t.self_seconds("symmetry.verify_corollary")),
    "cox.presentation.self_s": ("s", lambda t: t.self_seconds("cox.cox_presentation")),
    "cox.verify_sections.self_s": (
        "s", lambda t: t.self_seconds("cox.verify_globally_defined")),
    "problemfile.load.self_s": (
        "s", lambda t: t.self_seconds("problemfile.load_problem")),
    "cli.main.calls": ("count", lambda t: t.calls("cli.main")),
    "cli.self_s": ("s", lambda t: t.layer_self_seconds("cli")),
    "corpus.sweep.self_s": ("s", lambda t: t.self_seconds("corpus.run_sweep")),
}
