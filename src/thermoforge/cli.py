"""Command-line entry point.

One executable dispatching to the library modules, emitting JSON or CSV
with an embedded run manifest (subcommand, parsed flags, SHA-256 digests
of the input files, seed, tool version) so every artifact records how it
was produced.  Reruns with identical manifests produce identical bytes:
no timestamps or machine identifiers are recorded, and floats serialize
through ``repr`` (shortest round-trip form).

Exit codes: 0 success, 2 domain/feasibility violations, 3 numeric
non-convergence, 64 usage errors.  The environment variable
``THERMOFORGE_SEED`` overrides ``--seed`` where one applies.
``main()`` builds its parser once per process, on its first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .approx import DecayingPotentialSpec, convergence_study
from .cltsim import SimConfig, simulate_gm
from .combinatorics import fdb_coefficient, partitions
from .errors import DomainError, NumericError
from .germfit import Germ, fit_level1, fit_level2, invert_zexp, solve_extreme_pair_full
from .pressure import finite_difference_jet, pressure, pressure_jet, pressure_spectral, q_values
from .rigidity import CandidateFunction, rigidity_inequalities
from .symbolic import CylinderPotential, SubshiftSpec, potential_from_json, potential_to_dict

_USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 64."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only "-1" and "-1.5" as negative numbers, so a value
        # such as "-1e-3" would be taken for an option; accept exponents too.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _read_input(path: str) -> tuple[str, str, str]:
    """Read a UTF-8 file (or stdin for ``-``); returns (label, text, sha256)."""
    # Imported here so that importing the CLI does not load it (about 3.6 MB).
    import hashlib

    label = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        data = text.encode("utf-8")  # stdin may decode with surrogate escapes
    except OSError as err:
        raise DomainError(f"cannot read input file {path!r}: {err}") from None
    except UnicodeError as err:
        raise DomainError(f"input {label} is not UTF-8 text: {err}") from None
    return label, text, hashlib.sha256(data).hexdigest()


def _manifest(args: argparse.Namespace, digests: dict, seed=None) -> dict:
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func",) and not key.startswith("_")
    }
    return {
        "subcommand": args._subcommand,
        "flags": flags,
        "input_digests": digests,
        "seed": seed,
        "version": __version__,
    }


def _resolve_seed(args: argparse.Namespace):
    """The effective seed: THERMOFORGE_SEED wins over ``--seed``."""
    raw = os.environ.get("THERMOFORGE_SEED")
    if raw is not None:
        try:
            return int(raw, 0)
        except ValueError:
            raise DomainError(f"THERMOFORGE_SEED must be an integer, got {raw!r}") from None
    return getattr(args, "seed", None)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render(args, manifest, payload, schema=None, columns=None, comments=None) -> int:
    """Write one command's result as ``--out`` (JSON or CSV) to ``--output``.

    JSON is ``{"manifest": manifest, **payload}``.  CSV is the schema, the
    manifest and ``comments`` as ``# key: <json>`` lines, then a header
    from ``columns`` (ordered header -> column values) and one row per index.
    """
    if args.out == "json":
        text = json.dumps({"manifest": manifest, **payload}, indent=2, sort_keys=True) + "\n"
    else:
        comments = {"manifest": manifest, **(comments or {})}
        lines = [f"# schema: {schema}"] + [
            f"# {key}: {json.dumps(value, sort_keys=True)}" for key, value in comments.items()
        ]
        lines.append(",".join(columns))
        lines += [",".join(_fmt(cell) for cell in row) for row in zip(*columns.values())]
        text = "\n".join(lines) + "\n"
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise DomainError(f"cannot write output file {args.output!r}: {err}") from None
    else:
        sys.stdout.write(text)
    return 0


def _columns(rows: list[dict]) -> dict:
    """Column mapping of a non-empty list of equally keyed row dicts."""
    return {key: [row[key] for row in rows] for key in rows[0]}


def _parse_float(token: str, flag: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DomainError(f"{flag} expects numbers, got {token!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"{flag} expects finite numbers, got {token!r}")
    return value


def _parse_integer(token: str, flag: str) -> int:
    """Exact value of an integral token such as ``12``, ``1e3`` or ``12.0``."""
    # Imported here so that importing the CLI does not load it (about 0.3 MB).
    from decimal import Decimal, InvalidOperation

    try:
        value = Decimal(token)
    except InvalidOperation:
        raise DomainError(f"{flag} expects integers, got {token!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise DomainError(f"{flag} expects integers, got {token!r}")
    # Bounded before the conversion, which would build 10**k for a token 1ek.
    if value.copy_abs() >= 2**63:
        raise DomainError(f"{flag} expects integers below 2**63 in magnitude, got {token!r}")
    return int(value)


def _parse_list(text: str, flag: str, number) -> list:
    """Comma-separated tokens, each read by ``number(token, flag)``."""
    values = [number(tok, flag) for tok in text.split(",") if tok.strip()]
    if not values:
        raise DomainError(f"{flag} must name at least one point")
    return values


_MAX_GRID_POINTS = 10**6


def _parse_range(text: str, flag: str, number) -> tuple:
    """Checked ``(start, end, step)`` of ``start:end[:step]``, read by ``number``."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise DomainError(f"{flag} expects start:end[:step], got {text!r}")
    start, end = number(parts[0], flag), number(parts[1], flag)
    step = number(parts[2], flag) if len(parts) == 3 else 1
    if step <= 0:
        raise DomainError(f"{flag} step must be positive, got {step!r}")
    if end < start:
        raise DomainError(f"{flag} end must not precede start, got {text!r}")
    # Checked before any list is built; a quotient that overflows to inf fails too.
    if not (end - start) / step < _MAX_GRID_POINTS:
        raise DomainError(f"{flag} spans more than {_MAX_GRID_POINTS} points, got {text!r}")
    return start, end, step


def _parse_grid(text: str, flag: str) -> list[float]:
    """Parse ``start:end[:step]`` (inclusive) or a comma-separated list."""
    if ":" not in text:
        return _parse_list(text, flag, _parse_float)
    start, end, step = _parse_range(text, flag, _parse_float)
    count = int(math.floor((end - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Like ``_parse_grid``, in exact integer arithmetic."""
    if ":" not in text:
        return _parse_list(text, flag, _parse_integer)
    start, end, step = _parse_range(text, flag, _parse_integer)
    return list(range(start, end + 1, step))


def _load_potential(path: str) -> tuple[CylinderPotential, dict]:
    label, text, digest = _read_input(path)
    return potential_from_json(text), {label: digest}


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_pressure(args: argparse.Namespace) -> int:
    potential, digests = _load_potential(args.potential)
    value = (pressure if potential.space.is_full_shift else pressure_spectral)(potential, args.t)
    payload = {"t": args.t, "pressure": value}
    if args.order > 0:
        jet = pressure_jet(potential, args.t, args.order)
        payload["jet"] = {"t_star": jet.t_star, "derivs": list(jet.derivs)}
    return _render(args, _manifest(args, digests), payload)


def _fit_payload(germ: Germ, result) -> dict:
    return {
        "t_star": germ.t_star,
        "germ": list(germ.coeffs),
        "n": len(result.z),
        "z": list(result.z),
        "achieved_jet": {"t_star": result.achieved.t_star, "derivs": list(result.achieved.derivs)},
        "residuals": dict(result.residuals),
        "feasible_a2": list(result.feasible_a2) if result.feasible_a2 else None,
        "potential": potential_to_dict(result.potential()),
    }


def _cmd_fit1(args: argparse.Namespace) -> int:
    germ = Germ(args.tstar, (args.a0, args.a1))
    return _render(args, _manifest(args, {}), _fit_payload(germ, fit_level1(germ, args.n)))


def _cmd_fit2(args: argparse.Namespace) -> int:
    germ = Germ(args.tstar, (args.a0, args.a1, args.a2))
    return _render(args, _manifest(args, {}), _fit_payload(germ, fit_level2(germ, args.n)))


def _cmd_table3(args: argparse.Namespace) -> int:
    labels = [tok.strip() for tok in args.n_list.split(",") if tok.strip()]
    if not labels:
        raise DomainError("--n-list must name at least one size")
    rows = []
    for label in labels:
        try:
            multiplicity = float(label)
        except ValueError:
            raise DomainError(f"--n-list entries must be numeric, got {label!r}")
        solved = solve_extreme_pair_full(multiplicity)
        rows.append(
            {
                "label": label,
                "multiplicity": solved["multiplicity"],
                "z_low": solved["z_low"],
                "z_high": solved["z_high"],
                "residual_value": solved["residuals"][0],
                "residual_slope": solved["residuals"][1],
                "iterations": solved["iterations"],
            }
        )
    manifest = _manifest(args, {})
    return _render(args, manifest, {"rows": rows}, "thermoforge.table3.v1", _columns(rows))


def _cmd_rigidity(args: argparse.Namespace) -> int:
    digests: dict = {}
    if args.potential is not None:
        potential, digests = _load_potential(args.potential)
        candidate = CandidateFunction.from_potential(potential)
    else:
        missing = [
            flag
            for flag, value in (("--a", args.a), ("--b", args.b), ("--c", args.c))
            if value is None
        ]
        if missing:
            raise DomainError(f"family 'fabc' needs {', '.join(missing)} (or use --potential)")
        candidate = CandidateFunction.from_fabc(args.a, args.b, args.c)
    grid = _parse_grid(args.grid, "--grid")
    report = rigidity_inequalities(candidate, grid, args.mphi).to_dict()
    comments = {"m_phi": report["m_phi"], "tension": report["tension"]}
    renamed = {"grid": "t", "d_values": "d_value"}
    # Every other report entry is one value per grid point, in column order.
    columns = {renamed.get(key, key): report[key] for key in report if key not in comments}
    manifest, schema = _manifest(args, digests), "thermoforge.rigidity.v1"
    return _render(args, manifest, {"report": report}, schema, columns, comments)


def _cmd_cltsim(args: argparse.Namespace) -> int:
    potential, digests = _load_potential(args.potential)
    seed = _resolve_seed(args)
    config = SimConfig(
        potential=potential,
        t_star=args.tstar,
        orbit_lengths=tuple(_parse_int_list(args.m, "--m")),
        samples_per_m=args.samples,
        seed=seed,
        workers=args.threads,
    )
    report = simulate_gm(config).to_dict()
    columns = {
        "m": report["orbit_lengths"],
        "ks_distance": report["ks_distances"],
        "bound": report["bounds"],
        "sample_mean": report["sample_means"],
        "sample_variance": report["sample_variances"],
    }
    keys = ("deltas", "first_m_below_bound", "samples_per_m")
    comments = {key: report[key] for key in keys}
    manifest = _manifest(args, digests, seed=seed)
    return _render(args, manifest, {"report": report}, "thermoforge.cltsim.v1", columns, comments)


def _cmd_approx(args: argparse.Namespace) -> int:
    label, text, digest = _read_input(args.spec)
    spec = DecayingPotentialSpec.from_json(text)
    windows = _parse_int_list(args.windows, "--windows")
    rows = [asdict(row) for row in convergence_study(spec, args.t, windows)]
    manifest = _manifest(args, {label: digest})
    payload = {"spec": spec.to_dict(), "t": args.t, "rows": rows}
    return _render(args, manifest, payload, "thermoforge.approx.v1", _columns(rows))


def _selftest_checks():
    """Curated fast invariant checks; yields (name, callable)."""

    def check_partitions():
        parts = partitions(5)
        assert len(parts) == 7, f"expected 7 partitions of 5, got {len(parts)}"
        total = sum(fdb_coefficient(5, tau) for tau in parts)
        assert total == 52, f"partition coefficient total 52 expected, got {total}"

    def check_extreme_pair():
        solved = solve_extreme_pair_full(10.0)
        target = -1.8599539391797654
        assert abs(solved["z_low"] - target) < 1e-12, solved["z_low"]
        limit = 1e-13 * math.exp(2.0)
        assert max(solved["residuals"]) <= limit, solved["residuals"]

    def check_invert_zexp():
        for z, branch in ((-3.0, "lower"), (0.7, "upper"), (2.5, "upper")):
            y = z * math.exp(1.3 * z)
            back = invert_zexp(y, branch, 1.3)
            assert abs(back - z) < 1e-9, (z, back)

    def check_fit_round_trip():
        germ = Germ(1.25, (0.8, 0.3))
        result = fit_level1(germ, 7)
        limit = 1e-10 * max(1.0, math.exp(germ.a0))
        assert max(result.residuals.values()) < limit, result.residuals

    def check_q_identity():
        rng = np.random.Generator(np.random.Philox(20240817))
        for _ in range(50):
            z = rng.uniform(-3.0, 3.0, size=5)
            q_values(z, rng.uniform(0.1, 2.0))

    def check_jet_vs_differences():
        potential = CylinderPotential(SubshiftSpec(2), 1, (0.0, 1.0))
        jet = pressure_jet(potential, 1.0, 4)
        approx_jet = finite_difference_jet(potential, 1.0, 4)
        for k in range(1, 5):
            err = abs(jet.derivs[k] - approx_jet.derivs[k]) / max(1.0, abs(jet.derivs[k]))
            assert err < 1e-6, (k, err)

    def check_envelopes():
        spec, t = DecayingPotentialSpec(2, (0.0, 1.0), 0.5), 1.0
        rows = convergence_study(spec, t, [1, 2, 3, 4])
        gaps = [row.gap for row in rows]
        assert all(b <= a for a, b in zip(gaps, gaps[1:])), gaps
        p_infs = [row.p_inf for row in rows]
        assert all(b >= a - 1e-12 for a, b in zip(p_infs, p_infs[1:])), p_infs
        # Each head term r**k f[x_k] is cohomologous to r**k f[x_0], so the
        # spectrally solved lower envelope has a closed form.
        for row in rows:
            decay = spec.r**row.window
            head = sum(math.exp(t * x * (1.0 - decay) / (1.0 - spec.r)) for x in spec.f)
            exact = math.log(head) + t * decay / (1.0 - spec.r) * min(spec.f)
            assert abs(row.p_inf - exact) <= 1e-12 * abs(exact), (row.window, row.p_inf, exact)

    def check_word_graph_closed_forms():
        c, t = (0.3, -0.4), 1.2
        # Golden mean: B = [[a, b], [a, 0]] has Perron root (a + sqrt(a^2 + 4ab)) / 2.
        a, b = math.exp(t * c[0]), math.exp(t * c[1])
        golden = CylinderPotential(SubshiftSpec(2, ((1, 1), (1, 0))), 1, c)
        exact = math.log((a + math.sqrt(a * a + 4.0 * a * b)) / 2.0)
        value = pressure_spectral(golden, t)
        assert abs(value - exact) <= 1e-12 * abs(exact), (value, exact)
        # The swap graph has period 2: the iteration stalls until it shifts itself.
        swap = CylinderPotential(SubshiftSpec(2, ((0, 1), (1, 0))), 1, c)
        exact = t * (c[0] + c[1]) / 2.0
        value = pressure_spectral(swap, t)
        assert abs(value - exact) <= 1e-12, (value, exact)

    yield "faa-di-bruno-golden", check_partitions
    yield "extreme-pair-row-10", check_extreme_pair
    yield "scalar-branch-inversion", check_invert_zexp
    yield "level1-fit-round-trip", check_fit_round_trip
    yield "q-identity-audit", check_q_identity
    yield "jet-vs-finite-differences", check_jet_vs_differences
    yield "envelope-monotonicity", check_envelopes
    yield "word-graph-closed-forms", check_word_graph_closed_forms


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as err:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL - {name}: {err}")
        else:
            print(f"ok - {name}")
    if failures:
        raise NumericError(f"{failures} selftest check(s) failed")
    print("selftest: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermoforge",
        description="Pressure-function toolkit: jets, germ fitting, diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="_subcommand", required=True, metavar="COMMAND")

    p = sub.add_parser("pressure", help="pressure (and jet) of a potential file")
    p.add_argument("--potential", required=True, help="potential JSON file, or - for stdin")
    p.add_argument("--t", type=float, required=True, help="parameter value")
    p.add_argument("--order", type=int, default=0, help="jet order (0: value only)")
    p.add_argument("--out", choices=["json"], default="json")
    p.add_argument("--output", default="-", help="output file (default stdout)")
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("fit1", help="fit a (value, slope) target at t*")
    p.add_argument("--tstar", type=float, required=True)
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="alphabet size")
    p.add_argument("--out", choices=["json"], default="json")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_fit1)

    p = sub.add_parser("fit2", help="fit a (value, slope, curvature) target at t*")
    p.add_argument("--tstar", type=float, required=True)
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--a2", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="alphabet size")
    p.add_argument("--out", choices=["json"], default="json")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_fit2)

    p = sub.add_parser("table3", help="extreme-pair solutions for a list of sizes")
    p.add_argument(
        "--n-list",
        required=True,
        help="comma-separated sizes (scientific notation welcome, e.g. 1e1,1e40)",
    )
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("rigidity", help="curvature diagnostics along a grid")
    p.add_argument("--family", choices=["fabc"], default="fabc")
    p.add_argument("--a", type=float, help="asymptote slope (family fabc)")
    p.add_argument("--b", type=float, help="asymptote intercept (family fabc)")
    p.add_argument("--c", type=float, help="decay rate (family fabc)")
    p.add_argument("--potential", help="potential JSON file (overrides --family)")
    p.add_argument("--grid", required=True, help="start:end:step or comma list")
    p.add_argument("--mphi", type=float, required=True, help="bound constant m_phi")
    p.add_argument("--out", choices=["json", "csv"], default="csv")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("cltsim", help="Monte Carlo check of the orbit-sum limit law")
    p.add_argument("--potential", required=True, help="potential JSON file, or -")
    p.add_argument("--tstar", type=float, required=True)
    p.add_argument("--m", required=True, help="orbit lengths, e.g. 100,1000,10000")
    p.add_argument("--samples", type=int, required=True, help="samples per orbit length")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (THERMOFORGE_SEED overrides)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (results do not depend on it)")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_cltsim)

    p = sub.add_parser("approx", help="envelope-pressure convergence study")
    p.add_argument("--spec", required=True, help="decay spec JSON file, or -")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--windows", required=True, help="window range, e.g. 1:12")
    p.add_argument("--out", choices=["json", "csv"], default="csv")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("selftest", help="run the curated invariant checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, reused by every later one.

    A parse leaves no state in the parser; each call gets a fresh namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as err:
        print(f"thermoforge: domain error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"thermoforge: numeric error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
