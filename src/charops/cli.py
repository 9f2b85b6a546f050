"""Command line: enumeration tables, operator evaluation, verification.

Exit codes: 0 success, 1 verification failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

from .classfn import ClassFunction
from .coefficients import DEFAULT_TAU_SAMPLES, LatFunction, eisenstein_series
from .groups import (
    GroupError,
    WreathGroup,
    build_group,
    tuple_conjugacy_classes,
    wreath,
)
from .lattices import LatticeError
from .orbits import reduce_tuple
from .powerops import adams, hecke_like, hnf_section, power_operation, pseudo_power_etheory
from .verify import run_all_suites


@dataclass
class RunConfig:
    subcommand: str
    group: object = None
    d: int = 1
    n: int = 2
    tol: float = 1e-9
    tau_samples: tuple = DEFAULT_TAU_SAMPLES
    seed: int = 0
    fmt: str = "table"
    out: object = None


GROUP_SHORTHANDS = {
    "C1": {"type": "cyclic", "n": 1}, "C2": {"type": "cyclic", "n": 2},
    "C3": {"type": "cyclic", "n": 3}, "C4": {"type": "cyclic", "n": 4},
    "C6": {"type": "cyclic", "n": 6}, "S2": {"type": "symmetric", "n": 2},
    "S3": {"type": "symmetric", "n": 3}, "S4": {"type": "symmetric", "n": 4},
    "D4": {"type": "dihedral", "n": 4}, "Q8": {"type": "quaternion"},
}


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
    if not text:
        return DEFAULT_TAU_SAMPLES
    out = []
    for part in text.split(","):
        re_s, im_s = part.split("+") if "+" in part else ("0", part)
        out.append(complex(float(re_s), float(im_s.rstrip("ij"))))
    return tuple(out)


def write_json(obj, cfg):
    """One JSON document per line to cfg.out (default stdout).  json.dumps
    without indentation runs the C encoder; json.dump never does."""
    (cfg.out or sys.stdout).write(json.dumps(obj, default=str) + "\n")


def emit(rows, header, cfg):
    """Write rows as table/csv/json to cfg.out (default stdout)."""
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


def cmd_classes(cfg):
    G = cfg.group
    classes = tuple_conjugacy_classes(G, cfg.d)
    rows = []
    for i, cls in enumerate(classes):
        rep = cls.representative
        row = [i, list(rep.elements),
               "|".join(G.label(e) for e in rep.elements) or "()", cls.size]
        if isinstance(G, WreathGroup) and cfg.d >= 1:
            red = reduce_tuple(rep)
            row.append(json.dumps(red.to_json()["orbits"]))
            row.append(json.dumps(red.to_json()["reduced"]))
        rows.append(row)
    header = ["class", "representative", "labels", "size"]
    if isinstance(G, WreathGroup) and cfg.d >= 1:
        header += ["orbits", "reduced"]
    total = sum(cls.size for cls in classes)
    emit(rows, header, cfg)
    stream = cfg.out or sys.stdout
    if cfg.fmt == "table":
        stream.write(f"# {len(classes)} classes, sizes sum to {total} "
                     f"(group order {G.size})\n")
    # cross-check (Burnside): the commuting d-tuples number |G| times the
    # classes of commuting (d-1)-tuples, and the classes partition them
    if cfg.d >= 1:
        expected = G.size * len(tuple_conjugacy_classes(G, cfg.d - 1))
        if total != expected:
            sys.stderr.write(f"check failed: class sizes sum to {total}, expected "
                             f"{expected} = |G| x classes at d={cfg.d - 1}\n")
            return 1
    return 0


def load_class_function(cfg, path):
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    return ClassFunction.from_json(cfg.group, data)


def emit_class_function(f, cfg, extra=None):
    payload = f.to_json()
    payload["seed"] = cfg.seed
    if extra:
        payload.update(extra)
    write_json(payload, cfg)


def cmd_power(cfg, fn_path):
    f = load_class_function(cfg, fn_path)
    out = power_operation(f, cfg.n)
    rep = out.materialize().is_invariant(tau_samples=cfg.tau_samples, tol=cfg.tol)
    emit_class_function(out, cfg, extra={"invariance": {
        "ok": rep.ok, "max_deviation": rep.max_deviation}})
    return 0 if rep.ok else 1


def cmd_adams(cfg, fn_path):
    f = load_class_function(cfg, fn_path)
    out = adams(f, cfg.n).materialize()
    rep = out.is_invariant(tau_samples=cfg.tau_samples, tol=cfg.tol)
    emit_class_function(out, cfg, extra={"invariance": {
        "ok": rep.ok, "max_deviation": rep.max_deviation}})
    return 0 if rep.ok else 1


def cmd_pseudo(cfg, fn_path, prime):
    """Emits the pseudo-power class function restricted to the classes where
    it is defined (all tuple entries of p-power order)."""
    f = load_class_function(cfg, fn_path)
    out = pseudo_power_etheory(f, cfg.n, p=prime, section=hnf_section())
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
    emit_class_function(defined, cfg, extra={"prime": prime,
                                             "undefined_classes": skipped})
    return 0


def cmd_hecke(cfg, form_name):
    if form_name in ("E4", "E6"):
        F = eisenstein_series(int(form_name[1]), 400)
    else:
        data = json.loads(form_name)
        number = lambda c: type(c) in (int, float)      # bool is a subclass of int
        if not (isinstance(data, dict) and type(data.get("weight")) is int
                and isinstance(data.get("q"), list) and all(
                    number(c) or isinstance(c, list) and len(c) == 2 and all(map(number, c))
                    for c in data["q"])):
            raise ValueError("a form is an object with an integer \"weight\" and a "
                             "\"q\" list of numbers or [re, im] pairs")
        F = LatFunction.from_q_expansion(data["weight"],
                                         [complex(c[0], c[1]) if isinstance(c, list)
                                          else c for c in data["q"]])
    out = hecke_like(F, cfg.n)
    rows = []
    ratios = []
    for tau in cfg.tau_samples:
        v_in, v_out = F.at_tau(tau), out.at_tau(tau)
        ratio = v_out / v_in if abs(v_in) > 1e-12 else float("nan")
        ratios.append(ratio)
        rows.append([str(tau), f"{v_in:.9g}", f"{v_out:.9g}", f"{ratio:.9g}"])
    defined = [r for r in ratios if r == r]
    if not defined:
        raise ValueError("the input form vanishes at every tau sample, so no "
                         "eigen-ratio is defined")
    emit(rows, ["tau", "input", "output", "ratio"], cfg)
    spread = max(abs(r - defined[0]) for r in defined)
    stream = cfg.out or sys.stdout
    if cfg.fmt == "table":
        stream.write(f"# eigen-ratio spread {spread:.3e}\n")
    return 0 if spread < cfg.tol * 1e3 else 1


def cmd_verify(cfg, mutate=None):
    results = run_all_suites(seed=cfg.seed, mutate=mutate)
    stream = cfg.out or sys.stdout
    if cfg.fmt == "json":
        write_json({"seed": cfg.seed,
                    "suites": [{"name": r.name, "passed": r.passed,
                                "max_deviation": r.max_deviation,
                                "checks": r.checks, "detail": r.detail}
                               for r in results]}, cfg)
    else:
        stream.write(f"# verification run, seed {cfg.seed}\n")
        for r in results:
            stream.write(r.line() + "\n")
        stream.write("# note: the Adams degree scaling follows the square-root "
                     "convention n^(deg/2); the full-degree variant is "
                     "demonstrably inconsistent (try --mutate adams-exponent)\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser():
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
    sub.add_parser("classes", help="conjugacy classes of commuting d-tuples")
    for name in ("power", "adams"):
        sp = sub.add_parser(name, help=f"apply the {name} operation")
        sp.add_argument("fn", help="class function JSON path or - for stdin")
    sp = sub.add_parser("pseudo", help="E-theory pseudo-power operation")
    sp.add_argument("fn")
    sp.add_argument("--prime", type=int, default=2)
    sp = sub.add_parser("hecke", help="Hecke-type operator on a lattice function")
    sp.add_argument("form", help="E4, E6, or inline JSON {weight, q}")
    sp = sub.add_parser("verify", help="run every verification suite")
    sp.add_argument("--mutate", choices=("adams-exponent",), default=None)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = None
    try:
        cfg = RunConfig(
            subcommand=args.subcommand,
            d=args.d, n=args.n, tol=args.tol,
            tau_samples=parse_tau_samples(args.tau_samples),
            seed=args.seed, fmt=args.fmt,
            out=open(args.out, "w") if args.out else None)
        if args.subcommand in ("classes", "power", "adams", "pseudo"):
            cfg.group = parse_group(args.group, args.wreath)
        if args.subcommand == "classes":
            code = cmd_classes(cfg)
        elif args.subcommand == "power":
            code = cmd_power(cfg, args.fn)
        elif args.subcommand == "adams":
            code = cmd_adams(cfg, args.fn)
        elif args.subcommand == "pseudo":
            code = cmd_pseudo(cfg, args.fn, args.prime)
        elif args.subcommand == "hecke":
            code = cmd_hecke(cfg, args.form)
        elif args.subcommand == "verify":
            code = cmd_verify(cfg, getattr(args, "mutate", None))
        else:
            code = 2
    except (GroupError, LatticeError, json.JSONDecodeError, OSError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cfg is not None and cfg.out is not None:
            cfg.out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
