"""Command line: enumeration tables, operator evaluation, verification.

Exit codes: 0 success, 1 verification failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import platform
import sys
import warnings

import numpy as np

from . import __version__
from .classfn import ClassFunction
from .coefficients import (DEFAULT_TAU_SAMPLES, LatFunction, _complex_from_json,
                           eisenstein_series)
from .groups import (
    GROUP_SHORTHANDS,
    GroupError,
    WreathGroup,
    build_group,
    tuple_conjugacy_classes,
    wreath,
)
from .lattices import LatticeError
from .orbits import reduce_tuple
from .powerops import adams, hecke_like, power_operation, pseudo_power_etheory
from .verify import run_all_suites


def parse_group(text, wreath_n=0):
    """Group descriptor: shorthand name, inline JSON, or @path-to-json."""
    if text is None:
        raise GroupError("--group is required")
    if text.startswith("@"):
        with open(text[1:]) as fh:
            spec = json.load(fh)
    elif text in GROUP_SHORTHANDS:
        spec = GROUP_SHORTHANDS[text]
    else:
        spec = json.loads(text)
    G = build_group(spec)
    if wreath_n:
        G = wreath(G, wreath_n)
    return G


def parse_tau_samples(text):
    """Comma-separated Python complex literals, such as the tau column that
    `hecke` prints: '3j', '(0.5+1j)', '1e+2j'.  A bare real is tau on the
    real axis, which the evaluation refuses as not oriented."""
    if not text:
        return DEFAULT_TAU_SAMPLES
    return tuple(complex(part) for part in text.split(","))


def write_json(obj, cfg):
    """One JSON document per line to cfg.out (default stdout).  json.dumps
    without indentation runs the C encoder; json.dump never does."""
    (cfg.out or sys.stdout).write(json.dumps(obj, default=str) + "\n")


def emit(rows, header, cfg, note):
    """Write rows as table/csv/json to cfg.out (default stdout); a table
    ends in the line "# note"."""
    stream = cfg.out or sys.stdout
    if cfg.fmt == "json":
        write_json({"seed": cfg.seed, "rows": [dict(zip(header, r)) for r in rows]},
                   cfg)
    elif cfg.fmt == "csv":
        w = csv.writer(stream)
        w.writerow(header)
        w.writerows(rows)
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
                  else len(str(h)) for i, h in enumerate(header)]
        stream.write("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for r in rows:
            stream.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
        stream.write(f"# {note}\n")


def cmd_classes(cfg):
    G = parse_group(cfg.group, cfg.wreath)
    classes = tuple_conjugacy_classes(G, cfg.d)
    rows = []
    for i, cls in enumerate(classes):
        rep = cls.representative
        row = [i, list(rep.elements),
               "|".join(G.label(e) for e in rep.elements) or "()", cls.size]
        if isinstance(G, WreathGroup) and cfg.d >= 1:
            red = reduce_tuple(rep).to_json()
            row.append(json.dumps(red["orbits"]))
            row.append(json.dumps(red["reduced"]))
        rows.append(row)
    header = ["class", "representative", "labels", "size"]
    if isinstance(G, WreathGroup) and cfg.d >= 1:
        header += ["orbits", "reduced"]
    total = sum(cls.size for cls in classes)
    emit(rows, header, cfg,
         f"{len(classes)} classes, sizes sum to {total} (group order {G.size})")
    # cross-check (Burnside): the commuting d-tuples number |G| times the
    # classes of commuting (d-1)-tuples, and the classes partition them
    if cfg.d >= 1:
        expected = G.size * len(tuple_conjugacy_classes(G, cfg.d - 1))
        if total != expected:
            sys.stderr.write(f"check failed: class sizes sum to {total}, expected "
                             f"{expected} = |G| x classes at d={cfg.d - 1}\n")
            return 1
    return 0


def load_class_function(cfg):
    G = parse_group(cfg.group, cfg.wreath)
    if cfg.fn == "-":
        data = json.load(sys.stdin)
    else:
        with open(cfg.fn) as fh:
            data = json.load(fh)
    return ClassFunction.from_json(G, data)


def emit_class_function(f, cfg, extra):
    write_json({**f.to_json(), "seed": cfg.seed, **extra}, cfg)


def cmd_operation(cfg):
    """Emits cfg.operation(f, n) (`power_operation` or `adams`) with its
    invariance report; exit 1 when the output is not invariant."""
    f = load_class_function(cfg)
    out = cfg.operation(f, cfg.n).materialize()
    rep = out.is_invariant(tau_samples=cfg.tau_samples, tol=cfg.tol)
    emit_class_function(out, cfg, extra={"invariance": {
        "ok": rep.ok, "max_deviation": rep.max_deviation}})
    return 0 if rep.ok else 1


def cmd_pseudo(cfg):
    """Emits the pseudo-power class function restricted to the classes where
    it is defined (all tuple entries of p-power order)."""
    f = load_class_function(cfg)
    out = pseudo_power_etheory(f, cfg.n, p=cfg.prime)
    W = out.group
    values = {}
    skipped = 0
    for cls in tuple_conjugacy_classes(W, f.d):
        t = cls.representative
        try:
            values[(t.elements, 0)] = out.evaluate(t, 0)
        except GroupError:
            skipped += 1
    defined = ClassFunction(W, f.d, kind=f.kind, values=values)
    emit_class_function(defined, cfg, extra={"prime": cfg.prime,
                                             "undefined_classes": skipped})
    return 0


def cmd_hecke(cfg):
    """Tabulates the form and its Hecke image hecke_like(F, n) at the tau
    samples; exit 1 when their ratio is not one constant eigenvalue."""
    if cfg.form in ("E4", "E6"):
        F = eisenstein_series(int(cfg.form[1]), 400)
    else:
        data = json.loads(cfg.form)
        if not (isinstance(data, dict) and type(data.get("weight")) is int
                and isinstance(data.get("q"), list)):
            raise ValueError("a form is an object with an integer \"weight\" and a "
                             "\"q\" list of numbers or [re, im] pairs")
        F = LatFunction.from_q_expansion(data["weight"], [
            _complex_from_json(c if isinstance(c, list) else [c, 0]) for c in data["q"]])
    out = hecke_like(F, cfg.n)
    rows = []
    ratios = []
    for tau, v_in, v_out in zip(cfg.tau_samples, F.values(cfg.tau_samples),
                                out.values(cfg.tau_samples)):
        ratio = v_out / v_in if abs(v_in) > 1e-12 else float("nan")
        ratios.append(ratio)
        rows.append([str(tau), f"{v_in:.9g}", f"{v_out:.9g}", f"{ratio:.9g}"])
    defined = [r for r in ratios if r == r]
    if not defined:
        raise ValueError("the input form vanishes at every tau sample, so no "
                         "eigen-ratio is defined")
    spread = max(abs(r - defined[0]) for r in defined)
    emit(rows, ["tau", "input", "output", "ratio"], cfg, f"eigen-ratio spread {spread:.3e}")
    return 0 if spread < cfg.tol * 1e3 else 1


def cmd_verify(cfg):
    results = run_all_suites(seed=cfg.seed, mutate=cfg.mutate)
    stream = cfg.out or sys.stdout
    if cfg.fmt == "json":
        write_json({"seed": cfg.seed,
                    "versions": {"python": platform.python_version(),
                                 "numpy": np.__version__, "charops": __version__},
                    "suites": [{"name": r.name, "passed": r.passed,
                                "max_deviation": r.max_deviation,
                                "checks": r.checks, "detail": r.detail,
                                "seconds": round(r.seconds, 3)}
                               for r in results]}, cfg)
    else:
        stream.write(f"# verification run, seed {cfg.seed}\n")
        for r in results:
            stream.write(r.line() + "\n")
        stream.write("# note: the Adams degree scaling follows the square-root "
                     "convention n^(deg/2); the full-degree variant is "
                     "demonstrably inconsistent (try --mutate adams-exponent)\n")
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser():
    """The argument parser, built on first use: parsing does not change it."""
    p = argparse.ArgumentParser(
        prog="charops",
        description="power operations on generalized class functions")
    p.add_argument("--group", help="group descriptor: shorthand (S3, C4, Q8), "
                                   "inline JSON, or @file.json")
    p.add_argument("--wreath", type=int, default=0, metavar="N",
                   help="replace the group by its wreath product with Sigma_N")
    p.add_argument("--d", type=int, default=1, help="tuple arity")
    p.add_argument("--n", type=int, default=2, help="operation arity/index")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--tau-samples", default="",
                   help="comma-separated tau values, e.g. '1j,2j,0.5+1j'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", default="table",
                   choices=("table", "csv", "json"))
    p.add_argument("--out", help="output path (default stdout)")
    sub = p.add_subparsers(dest="subcommand", required=True)
    sp = sub.add_parser("classes", help="conjugacy classes of commuting d-tuples")
    sp.set_defaults(run=cmd_classes)
    for name, operation in (("power", power_operation), ("adams", adams)):
        sp = sub.add_parser(name, help=f"apply the {name} operation")
        sp.add_argument("fn", help="class function JSON path or - for stdin")
        sp.set_defaults(run=cmd_operation, operation=operation)
    sp = sub.add_parser("pseudo", help="E-theory pseudo-power operation")
    sp.add_argument("fn")
    sp.add_argument("--prime", type=int, default=2)
    sp.set_defaults(run=cmd_pseudo)
    sp = sub.add_parser("hecke", help="Hecke-type operator on a lattice function")
    sp.add_argument("form", help="E4, E6, or inline JSON {weight, q}")
    sp.set_defaults(run=cmd_hecke)
    sp = sub.add_parser("verify", help="run every verification suite")
    sp.add_argument("--mutate", choices=("adams-exponent",), default=None)
    sp.set_defaults(run=cmd_verify)
    return p


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Warnings as one "warning: ..." line on stderr, like the "error: ..."
    lines: Python's own format names the source file, line and code."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _run(args)


def _run(cfg):
    """Runs the subcommand's handler cfg.run, replacing the texts of
    --tau-samples and --out in place by what they name."""
    out = None
    try:
        if not 0 <= cfg.tol < float("inf"):
            raise ValueError(f"--tol must be a finite number >= 0, got {cfg.tol}")
        cfg.tau_samples = parse_tau_samples(cfg.tau_samples)
        cfg.out = out = open(cfg.out, "w") if cfg.out else None
        code = cfg.run(cfg)
    except KeyError as exc:         # a JSON object read without a field it needs
        print(f"error: missing field {exc}", file=sys.stderr)
        return 2
    except (GroupError, LatticeError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not None:
            out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
