"""Command-line front end: load instances, run check suites, emit JSON reports.

Instance files are JSON: complex entries as [re, im] pairs, block indices
0-based.  Reports are deterministic for a fixed input and seed (no
timestamps).  Exit codes: 0 pass, 1 check failure, 2 validation error,
3 precondition violation.
"""

import argparse
import hashlib
import json
import os
import random
import sys

import numpy as np

from . import __version__
from .algebra import AlgebraDescriptor, AlgebraElement, State, identity
from .actions import Automorphism, close_group
from .analysis import Analysis
# build_table is not called here; perfbench's tests read it from this module.
from .cocycle import (build_table, is_strongly_qi, random_psd_probe,  # noqa: F401
                      sandwich_check, sz_domination, verify_adjoint_relation,
                      verify_cocycle_identity, verify_inverse_formula)
from .expectation import expectation_checks, projection_checks, verify_ks
from .invariant import gamma_properties_check, strong_case_check
from .matcore import InputError, PreconditionError, TOL_EQ, TOL_POS
from .standard_form import (gamma_factorization, lemma_chain_checks, verify_covariance,
                            verify_representation, verify_unitarity)
from .trace import (invariant_trace, trace_invariance_check, trace_property_check,
                    verify_density_relations)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3


class InstanceFormatError(ValueError):
    """An instance field or a command-line value failed validation; the
    message starts with its path."""


# -- instance (de)serialization ----------------------------------------------

def _is(value, kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)    # true is no number


def _complex_entry(value, path):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is(v, (int, float)) for v in value)):
        raise InstanceFormatError(f"{path}: expected a [re, im] pair")
    z = complex(value[0], value[1])
    # json accepts NaN and Infinity
    if not np.isfinite(z):
        raise InstanceFormatError(f"{path}: entry is not finite")
    return z


def _matrix(value, n, path):
    if not isinstance(value, list) or len(value) != n:
        raise InstanceFormatError(f"{path}: expected {n} rows")
    out = np.empty((n, n), dtype=complex)
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceFormatError(f"{path}[{r}]: expected {n} entries")
        for c, entry in enumerate(row):
            out[r, c] = _complex_entry(entry, f"{path}[{r}][{c}]")
    return out


def _object(value, path):
    if not isinstance(value, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")
    return value


def _tolerance(value, path) -> float:
    # the comparison is False for NaN and bounds big integers before float()
    if not _is(value, (int, float)) or not 0 <= value <= sys.float_info.max:
        raise InstanceFormatError(f"{path}: expected a finite non-negative number")
    return float(value)


def _closure_cap(value, path) -> int:
    if not _is(value, int) or value < 1:
        raise InstanceFormatError(f"{path}: expected an integer of at least 1")
    return value


def _probe_rng(args) -> random.Random:
    """The generator of a command's random draws, seeded from ``--seed``.
    random.Random would take a negative seed as its absolute value."""
    if args.seed < 0:
        raise InstanceFormatError("--seed: expected an integer of at least 0")
    return random.Random(args.seed)


def matrix_to_json(m) -> list:
    return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in np.asarray(m)]


def element_to_json(x: AlgebraElement) -> list:
    return [matrix_to_json(b) for b in x.blocks]


def parse_instance(data: dict, tol_eq=None, tol_pos=None, cap=None):
    """Build (descriptor, state, generators, tolerances, cap) from JSON data; a
    tolerance or cap given here (a flag) replaces the file's, which is still checked."""
    if not isinstance(data, dict):
        raise InstanceFormatError(": instance must be a JSON object")
    try:
        dims = data["algebra"]["block_dims"]
    except (KeyError, TypeError):
        raise InstanceFormatError("algebra.block_dims: missing")
    if (not isinstance(dims, list) or not dims
            or not all(_is(d, int) and d >= 1 for d in dims)):
        raise InstanceFormatError("algebra.block_dims: need a list of positive integers")
    desc = AlgebraDescriptor(tuple(dims))

    tols = _object(data.get("tolerances", {}), "tolerances")
    file_eq = _tolerance(tols.get("tol_eq", TOL_EQ), "tolerances.tol_eq")
    file_pos = _tolerance(tols.get("tol_pos", TOL_POS), "tolerances.tol_pos")
    file_cap = _closure_cap(data.get("closure_cap", 10000), "closure_cap")
    tol_eq = file_eq if tol_eq is None else tol_eq
    tol_pos = file_pos if tol_pos is None else tol_pos
    cap = file_cap if cap is None else cap

    density_json = _object(data.get("state", {}), "state").get("density")
    if not isinstance(density_json, list) or len(density_json) != desc.num_blocks:
        raise InstanceFormatError(
            f"state.density: expected {desc.num_blocks} blocks")
    blocks = [_matrix(b, n, f"state.density[{i}]")
              for i, (b, n) in enumerate(zip(density_json, desc.block_dims))]
    try:
        element = AlgebraElement(desc, blocks)
        phi = State(desc, element, tol_eq=tol_eq, tol_pos=tol_pos)
    except InputError as exc:
        raise InstanceFormatError(f"state.density: {exc}")

    gens_json = _object(data.get("group", {}), "group").get("generators")
    if not isinstance(gens_json, list) or not gens_json:
        raise InstanceFormatError("group.generators: need at least one generator")
    gens = []
    for gi, gen in enumerate(gens_json):
        path = f"group.generators[{gi}]"
        perm = _object(gen, path).get("perm")
        if not isinstance(perm, list) or len(perm) != desc.num_blocks:
            raise InstanceFormatError(f"{path}.perm: expected {desc.num_blocks} indices")
        us_json = gen.get("unitaries")
        if not isinstance(us_json, list) or len(us_json) != desc.num_blocks:
            raise InstanceFormatError(f"{path}.unitaries: expected {desc.num_blocks} blocks")
        us = [_matrix(u, n, f"{path}.unitaries[{i}]")
              for i, (u, n) in enumerate(zip(us_json, desc.block_dims))]
        try:
            gens.append(Automorphism(desc, perm, us))
        except InputError as exc:
            raise InstanceFormatError(f"{path}: {exc}")
    return desc, phi, gens, {"tol_eq": tol_eq, "tol_pos": tol_pos}, cap


def load_instance(path: str, *flags):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw)
    except OSError as exc:
        raise InstanceFormatError(f"--input: cannot read {path} ({exc.strerror})")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"--input: cannot decode {path} ({exc.reason})")
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f": not valid JSON ({exc})")
    return parse_instance(data, *flags), hashlib.sha256(raw).hexdigest()


# -- report assembly ----------------------------------------------------------

def emit_report(command: str, checks, summary: dict, digest, out_path) -> bool:
    """Print the report, then write it to ``out_path`` if given (a validation
    error if that fails); returns its pass flag, that every asserted check passes."""
    entries = [c.to_dict() for c in checks]
    report = {
        "tool": "qistate",
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "pass": all(e["pass"] for e in entries if e["asserted"]),
        "checks": entries,
        "summary": summary,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InstanceFormatError(f"--out: cannot write {out_path} ({exc.strerror})")
    return report["pass"]


# -- subcommands ---------------------------------------------------------------
# An instance command takes the instance's Analysis and the generator of its
# probe draws (None for implement and invariant) and returns its checks and
# own summary keys; run_instance is its frame.  It and cmd_counterexample
# return (checks, summary, input digest), and main emits the report.

def run_instance(command, args):
    """Validate ``--seed`` where the command has one, load the instance with
    the flags, close its group and build its Analysis; then run
    ``command(an, rng)`` and add the summary keys of every instance report."""
    rng = _probe_rng(args) if "seed" in args else None
    flags = [None if value is None else check(value, name) for value, check, name in (
        (args.tol_eq, _tolerance, "--tol-eq"), (args.tol_pos, _tolerance, "--tol-pos"),
        (args.closure_cap, _closure_cap, "--closure-cap"))]
    (desc, phi, gens, tols, cap), digest = load_instance(args.input, *flags)
    group = close_group(gens, cap=cap, tol=tols["tol_eq"])
    logging = sys.modules.get("logging")    # loaded by main under QISTATE_LOG, or by a host
    if logging is not None:
        logging.getLogger("qistate").info("closed group of order %d on blocks %s",
                                          group.order, desc.block_dims)
    an = Analysis(phi, group, **tols)
    checks, own = command(an, rng)
    summary = {
        "lambda": an.table.lambda_bound,
        "group_order": group.order,
        **own,
    }
    return checks, summary, digest


def cmd_check(an, rng):
    desc, table, tol_eq = an.phi.descriptor, an.table, an.tol_eq
    probes = [random_psd_probe(rng, desc) for _ in range(8)] + [identity(desc)]
    checks = [verify_cocycle_identity(table, tol_eq), verify_inverse_formula(table, tol_eq),
              verify_adjoint_relation(table, tol_eq), sandwich_check(table, probes, tol_eq),
              *is_strongly_qi(an),
              # positive-form domination, probed with each cocycle element
              sz_domination(table, probes, tol_eq)]
    summary = {
        "strong_qi": an.strong,
        "fixed_algebra_dim": None,
        "trace_weights": None,
    }
    return checks, summary


def cmd_invariant(an, rng):
    checks = [*gamma_properties_check(an), *an.certificate.checks]
    if an.strong:
        checks.extend(strong_case_check(an))
    cert = an.certificate
    summary = {
        "strong_qi": an.strong,
        "d": element_to_json(cert.d),
        "psi_density": element_to_json(cert.psi.density),
        "min_singular_value_d": cert.d.min_sv(),
    }
    return checks, summary


def cmd_implement(an, rng):
    checks = [*verify_unitarity(an), verify_covariance(an),
              representation := verify_representation(an),
              *lemma_chain_checks(an), *gamma_factorization(an)]
    summary = {
        "strong_qi": an.strong,
        "l2_dimension": an.phi.descriptor.dim,
        "representation_deviation": representation.residual,
    }
    return checks, summary


def cmd_expectation(an, rng):
    checks = [*expectation_checks(an, rng), *projection_checks(an)]
    if an.strong:
        checks.extend(verify_ks(an))
    summary = {
        "strong_qi": an.strong,
        "fixed_algebra_dim": an.fixed.dimension,
        "e0_rank": an.e0.shape[1],
        "commutant_dim": an.f0.commutant_dim,
    }
    return checks, summary


def cmd_trace(an, rng):
    # refuses an action that is not ergodic on the center
    weights = invariant_trace(an.group)
    probes = [random_psd_probe(rng, an.phi.descriptor) for _ in range(6)]
    checks = [trace_invariance_check(an, probes), *verify_density_relations(an),
              trace_property_check(an, probes)]
    summary = {
        "trace_weights": [float(w) for w in weights],
        "density": element_to_json(an.phi.density),    # the trace density c = rho
    }
    return checks, summary


def cmd_counterexample(args):
    # Imported here: no instance command needs the module, and the benchmark's
    # children compile every module they import (PYTHONDONTWRITEBYTECODE=1).
    from .commutative import counterexample_checks

    # a radius of 0 collapses each chain-rule grid to the single point s = 0,
    # so the chain rules would pass on one sample
    radius = _tolerance(args.grid_r, "--grid-R")
    if radius == 0:
        raise InstanceFormatError("--grid-R: expected a number above 0")
    points = _closure_cap(args.grid_n, "--grid-N")
    checks = counterexample_checks(_probe_rng(args), radius, points)
    summary = {"grid_radius": radius, "grid_points": points, "seed": args.seed}
    return checks, summary, None


# -- entry point ----------------------------------------------------------------

COMMANDS = {
    "check": cmd_check,
    "invariant": cmd_invariant,
    "implement": cmd_implement,
    "expectation": cmd_expectation,
    "trace": cmd_trace,
    "counterexample": cmd_counterexample,
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv`` (default: the process arguments).  Only the
    subparser of the command that ``argv`` names is built; with no command
    or an unknown one, all of them, so that help and errors list each."""
    argv = sys.argv[1:] if argv is None else argv
    names = [name for name in argv[:1] if name in COMMANDS] or list(COMMANDS)
    parser = argparse.ArgumentParser(
        prog="qistate",
        description="Check quasi-invariant state identities on block algebras.")
    # with one subparser built, usage lines still show every command
    every = "{" + ",".join(COMMANDS) + "}" if len(names) < len(COMMANDS) else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        p = sub.add_parser(name)
        if name == "counterexample":
            p.add_argument("--grid-R", dest="grid_r", type=float, default=100.0)
            p.add_argument("--grid-N", dest="grid_n", type=int, default=1001)
        else:
            p.add_argument("--input", required=True, help="instance JSON file")
            p.add_argument("--tol-eq", type=float, default=None)
            p.add_argument("--tol-pos", type=float, default=None)
            p.add_argument("--closure-cap", type=int, default=None)
        if name not in ("implement", "invariant"):
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here as well")
        p.set_defaults(func=COMMANDS[name])
    return parser


def main(argv=None) -> int:
    level = os.environ.get("QISTATE_LOG")
    if level:
        import logging    # only on request: it costs every other run 4 ms
        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING),
                            stream=sys.stderr, format="%(name)s %(levelname)s %(message)s")
    args = build_parser(argv).parse_args(argv)
    try:
        result = (args.func(args) if args.command == "counterexample"
                  else run_instance(args.func, args))
        passed = emit_report(args.command, *result, args.out)
    except InstanceFormatError as exc:
        print(f"validation error at {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PreconditionError, InputError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
