"""Per-layer tracing of one qistate CLI invocation, from outside the package.

Run as a program, this stands in for the ``qistate`` command: it times
``import qistate.cli``, wraps the public functions of each layer module,
runs the CLI's ``main`` with the given arguments (the report goes to
stdout as usual), and writes the recorded spans and call counts to
``--spans`` when the command ends.

Wrappers replace every binding of a wrapped function in every loaded
``qistate`` module, because the modules import each other's functions by
name (``from .cocycle import build_table``); patching only the defining
module would leave those internal calls untraced.  Each span records its
name, start, end, parent span and command id.  The primitives counted
without spans (``AlgebraElement`` construction and four ``matcore``
functions) are the hottest calls in the package, where a span apiece
would cost more than the work.

Usage: python3 perfbench/tracer.py --spans FILE --cmd-id N -- <qistate args>
"""

import argparse
import functools
import json
import sys
import time

# Layer module -> public functions that get a span.  Their time, minus the
# time of spans of other layers nested inside, is the layer's self time.
SPANNED = {
    "actions": ("apply", "compose", "inverse", "predual", "close_group"),
    "cocycle": ("rn_cocycle", "build_table", "verify_cocycle_identity",
                "verify_inverse_formula", "verify_adjoint_relation",
                "is_strongly_qi", "sz_domination", "sandwich_check",
                "random_psd_probe"),
    "invariant": ("gamma_map", "gamma_properties_check", "fixed_density_d",
                  "invariant_state", "cocycle_from_d", "strong_case_check"),
    "standard_form": ("a_g", "u_g", "group_unitaries", "verify_covariance",
                      "verify_representation", "gamma_factorization",
                      "lemma_chain_checks"),
    "expectation": ("fixed_algebra", "cond_expectation", "expectation_checks",
                    "e0_projection", "verify_ks", "commutant_f0",
                    "uniqueness_probe"),
    "trace": ("is_center_ergodic", "invariant_trace", "trace_density",
              "verify_density_relations", "trace_invariance_check"),
}
COUNTED = {"matcore": ("as_square", "op_norm", "herm_eig", "is_unitary")}
LAYERS = tuple(SPANNED)


class Tracer:
    """Installs span and count wrappers into the loaded qistate modules;
    ``uninstall`` puts every original binding back."""

    def __init__(self, cmd_id: int = 0):
        self.cmd_id = cmd_id
        self.names = []
        self.spans = []
        self.counts = {}
        self.missing = []
        self._stack = [-1]
        self._restore = []

    def _span_wrapper(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, cmd, clock = self.spans, self._stack, self.cmd_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[me] = (idx, start, clock(), parent, cmd)
                stack.pop()
        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (used for the command)."""
        return self._span_wrapper(name, fn)(*args, **kwargs)

    def install(self) -> None:
        import qistate.cli  # noqa: F401  (loads every layer module)
        from qistate.algebra import AlgebraElement

        replacements = {}
        for kinds, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for layer, names in kinds.items():
                home = sys.modules[f"qistate.{layer}"]
                for name in names:
                    fn = getattr(home, name, None)
                    if callable(fn):
                        replacements[id(fn)] = (fn, make(f"{layer}.{name}", fn))
                    else:
                        self.missing.append(f"{layer}.{name}")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qistate" or key.startswith("qistate.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        init = AlgebraElement.__init__
        AlgebraElement.__init__ = self._count_wrapper("algebra.element", init)
        self._restore.append((AlgebraElement, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def document(self, import_s: float) -> dict:
        return {"import_s": import_s, "names": self.names, "spans": self.spans,
                "counts": {k: v[0] for k, v in self.counts.items()},
                "missing": self.missing}


# -- analysis -------------------------------------------------------------------

# Time metrics: the summed duration of spans in the set, counting a span
# only when no ancestor span is in the set too.
TIME_METRICS = {
    "actions.close_group_s": ("actions.close_group",),
    "cocycle.build_table_s": ("cocycle.build_table",),
    "cocycle.laws_s": ("cocycle.verify_cocycle_identity", "cocycle.verify_inverse_formula",
                       "cocycle.verify_adjoint_relation", "cocycle.is_strongly_qi",
                       "cocycle.sandwich_check", "cocycle.sz_domination"),
    "invariant.gamma_suite_s": ("invariant.gamma_properties_check",),
    "invariant.invariant_state_s": ("invariant.invariant_state",),
    "standard_form.unitaries_s": ("standard_form.u_g",),
    "standard_form.covariance_s": ("standard_form.verify_covariance",),
    "standard_form.representation_s": ("standard_form.verify_representation",),
    "standard_form.lemma_chain_s": ("standard_form.lemma_chain_checks",),
    "standard_form.gamma_factorization_s": ("standard_form.gamma_factorization",),
    "expectation.fixed_algebra_s": ("expectation.fixed_algebra",),
    "expectation.checks_s": ("expectation.expectation_checks",),
    "expectation.e0_s": ("expectation.e0_projection",),
    "expectation.f0_s": ("expectation.commutant_f0",),
    "expectation.ks_s": ("expectation.verify_ks",),
    "trace.trace_s": ("trace.is_center_ergodic", "trace.invariant_trace",
                      "trace.trace_density", "trace.verify_density_relations",
                      "trace.trace_invariance_check"),
}
# Calls of a spanned function are its span count.
CALL_METRICS = ("actions.close_group", "cocycle.build_table", "cocycle.rn_cocycle",
                "invariant.gamma_map", "invariant.invariant_state",
                "standard_form.u_g", "standard_form.a_g", "expectation.fixed_algebra")
COUNT_METRICS = ("algebra.element", "matcore.as_square", "matcore.op_norm",
                 "matcore.herm_eig", "matcore.is_unitary")
RATIO_METRICS = ("cocycle.build_table.per_cmd", "expectation.fixed_algebra.per_cmd",
                 "standard_form.u_g.per_element")


def metric_units() -> dict:
    """Unit of every metric ``pass_metrics`` returns."""
    units = {key: "s" for key in TIME_METRICS}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{name}.calls": "count" for name in CALL_METRICS + COUNT_METRICS})
    units.update({key: "ratio" for key in RATIO_METRICS})
    return units


def pass_metrics(documents, group_order: int) -> dict:
    """Per-layer metrics of one traced pass: one span document per command."""
    out = {key: 0.0 for key in TIME_METRICS}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    calls = {name: 0 for name in CALL_METRICS + COUNT_METRICS}
    commands_calling = {name: 0 for name in CALL_METRICS}
    for doc in documents:
        names, spans = doc["names"], doc["spans"]
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        per_doc = {name: 0 for name in CALL_METRICS}
        for i, (idx, start, end, _, _) in enumerate(spans):
            name = names[idx]
            layer = name.split(".")[0]
            if layer in SPANNED:
                out[f"{layer}.self_s"] += end - start - children[i]
            if name in per_doc:
                per_doc[name] += 1
        for metric, members in TIME_METRICS.items():
            out[metric] += _union_time(names, spans, set(members))
        for name, n in per_doc.items():
            calls[name] += n
            commands_calling[name] += n > 0
        for name in COUNT_METRICS:
            calls[name] += doc["counts"].get(name, 0)
    for name, n in calls.items():
        out[f"{name}.calls"] = n
    out["cocycle.build_table.per_cmd"] = _ratio(
        calls["cocycle.build_table"], commands_calling["cocycle.build_table"])
    out["expectation.fixed_algebra.per_cmd"] = _ratio(
        calls["expectation.fixed_algebra"], commands_calling["expectation.fixed_algebra"])
    out["standard_form.u_g.per_element"] = _ratio(
        calls["standard_form.u_g"], group_order * commands_calling["standard_form.u_g"])
    return out


def _union_time(names, spans, members) -> float:
    # Parents are recorded before their children, so one forward pass
    # knows whether any ancestor of a span is in the set.
    covered = [False] * len(spans)
    total = 0.0
    for i, (idx, start, end, parent, _) in enumerate(spans):
        inside = parent >= 0 and covered[parent]
        if names[idx] in members and not inside:
            total += end - start
        covered[i] = inside or names[idx] in members
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="write spans and counts here")
    parser.add_argument("--cmd-id", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import qistate.cli
    import_s = time.perf_counter() - start

    tracer = Tracer(args.cmd_id)
    tracer.install()
    try:
        code = tracer.span(f"cli.{cli_args[0]}", qistate.cli.main, cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(args.spans, "w") as fh:
            json.dump(tracer.document(import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
