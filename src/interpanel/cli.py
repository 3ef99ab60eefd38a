"""Command-line interface: estimate, simulate, validate, mc, mean-effect."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .data import (add_intercept_h, drop_failing_units, load_csv, validate,
                   write_csv, DEFAULT_H_MIN)
from .dgp import load_dgp_config, simulate
from .estimators import (WEIGHT_MODES, fit_cite, ite, mean_effect,
                         theta_tilde_labels)
from .harness import (FailureRateExceeded, convergence_table,
                      evaluate_contracts, load_experiment_config,
                      run_experiment)
from .inference import (DegenerateResample, bootstrap_cite, cite_kappa_se,
                        cite_theta_se, ite_se)


def _write_json(payload, path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_schema(entries):
    if not entries:
        return None
    schema = {}
    for entry in entries:
        if "=" not in entry:
            raise ValueError(f"schema entries look like role=column, got {entry!r}")
        role, _, names = entry.partition("=")
        role = role.strip()
        if role in ("unit", "time", "y"):
            schema[role] = names.strip()
        elif role in ("x", "g", "z", "h"):
            schema[role] = [c.strip() for c in names.split("|") if c.strip()]
        else:
            raise ValueError(f"unknown schema role {role!r}")
    return schema


def _floats(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


# Option values that start with "-" but are numbers: argparse's own pattern
# takes only -1 and -0.5 and reads "--h-min -1e-3" as two options. This one
# also takes exponents, -inf, -Infinity and the comma lists of mean-effect;
# -nan is no match, so "--h-min -nan" stays a usage error.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\.?\d[\d.,e+-]*|inf(?:inity)?)$",
                              re.IGNORECASE)


def _float(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _h_min(text):
    """--h-min as a float that is not NaN: NaN would fail every unit, and
    JSON has no NaN to report it."""
    value = _float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return value


def _finite(text):
    """A mean-effect input as a finite float: JSON has no NaN or Infinity."""
    value = _float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _finite_list(text):
    """A mean-effect comma list, kept as text, once no entry that reads as
    a float is NaN or infinite; an entry that is no number fails in the
    command (exit 1), as it always has."""
    for entry in text.split(","):
        try:
            value = float(entry)
        except ValueError:
            continue
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{entry!r} is not a finite number")
    return text


def _distinct_files(args, **paths):
    """A usage error (exit 2) when two of the files, by option name, are
    one path: no command writes over its input or over its other output."""
    seen = {}
    for option, path in paths.items():
        if not path:
            continue
        real = os.path.realpath(path)
        if real in seen:
            args.usage_error(f"argument --{option}: names the same file as "
                             f"--{seen[real]}: {path}")
        seen[real] = option


def _load_panel(args):
    _distinct_files(args, input=args.input, output=args.output)
    ds = load_csv(args.input, schema=_parse_schema(args.schema))
    if args.add_intercept_h:
        ds = add_intercept_h(ds)
    return ds


def _cmd_estimate(args):
    if args.se == "bootstrap" and args.estimator == "ite":
        args.usage_error("argument --se: the bootstrap covers the cite "
                         "estimator only; use --estimator cite or both")
    ds = _load_panel(args)
    report = validate(ds, h_min=args.h_min)
    ds, dropped = drop_failing_units(ds, report)
    if dropped:
        print(f"warning: dropped {len(dropped)} units failing the per-unit "
              f"variation check: {list(dropped)}", file=sys.stderr)
    dr = report.regressors

    which = ("cite", "ite") if args.estimator == "both" else (args.estimator,)
    labels = theta_tilde_labels(ds.columns)
    out = {
        "command": "estimate",
        "n_units": ds.dims.n,
        "n_periods": ds.dims.T,
        "dropped_units": list(dropped),
        "validation": report.to_dict(),
        "estimators": {},
    }
    values = {}
    for est in which:
        if est == "cite":
            res = fit_cite(dr.cite, weight_mode=args.weight_mode)
            values[est] = res.coefficients()
            entry = {
                "labels": labels,
                "estimates": values[est].tolist(),
                "weight_mode": res.weight_mode,
                "delta_hat": res.delta_hat.tolist(),
                "delta_units": list(ds.unit_labels),
            }
            if args.se == "cluster":
                entry["se"] = cite_kappa_se(dr.cite, res).se.tolist() + \
                    cite_theta_se(dr.cite).se.tolist()
                entry["se_method"] = "hc_robust (kappa), cluster_robust (theta)"
            elif args.se == "bootstrap":
                b = bootstrap_cite(dr.cite, res, args.bootstrap_reps,
                                   args.seed)
                entry["se"] = b.se.tolist() + [None] * len(res.theta_hat)
                entry["se_method"] = "bootstrap (kappa only)"
        else:
            values[est] = ite(dr.ite)
            entry = {"labels": labels, "estimates": values[est].tolist()}
            if args.se == "cluster":
                entry["se"] = ite_se(dr.ite).se.tolist()
                entry["se_method"] = "cluster_robust"
            elif args.se == "bootstrap":
                print("warning: the ite entry has no SE: the bootstrap "
                      "covers cite only", file=sys.stderr)
        out["estimators"][est] = entry

    if len(which) == 2 and ds.dims.K_h >= 1:
        _print_side_by_side(labels, values["cite"], values["ite"])
        first = int(args.add_intercept_h)  # kappa[h_const] is the constant's
        if ds.dims.K_h > first:
            k_cite = float(values["cite"][first])
            k_ite = float(values["ite"][first])
            disagree = bool(np.sign(k_cite) != np.sign(k_ite))
            out["sign_disagreement"] = disagree
            if disagree:
                print(f"warning: the two estimators disagree about the sign of "
                      f"the first interaction coefficient, {labels[first]} "
                      f"(cite {k_cite:.6g} vs ite {k_ite:.6g})", file=sys.stderr)
    _write_json(out, args.output)
    return 0


def _print_side_by_side(labels, cite_values, ite_values):
    # human-readable comparison goes to stderr; stdout stays machine clean
    width = max(len(lab) for lab in labels)
    print(f"{'':{width}}  {'cite':>12}  {'ite':>12}", file=sys.stderr)
    for lab, c, i in zip(labels, cite_values, ite_values):
        print(f"{lab:{width}}  {c:12.6g}  {i:12.6g}", file=sys.stderr)


def _json_template(shape, level):
    """The `%r` template of a nested list of `shape`, laid out as
    json.dumps(indent=2) lays it out `level` deep."""
    if not shape:
        return "%r"
    pad = "\n" + "  " * (level + 1)
    inner = _json_template(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + pad[:-2] + "]"


def _float_array_json(a, level):
    """json.dumps(a.tolist(), indent=2) of a float array, as it reads
    `level` deep in an indented document.

    The template is applied once to the flat values: `%r` of a finite
    float is JSON's float text. An empty array, or one holding NaN or
    +-inf (which JSON writes as NaN/Infinity), takes json.dumps."""
    if a.size == 0 or not np.isfinite(a).all():
        return json.dumps(a.tolist(), indent=2).replace(
            "\n", "\n" + "  " * level)
    return _json_template(a.shape, level) % tuple(a.ravel().tolist())


def _truth_json(cfg, truth):
    """The truth sidecar: the bytes of json.dumps(sort_keys=True,
    indent=2) plus a newline, with the keys written in their sorted order."""
    items = [("config", json.dumps(cfg.to_dict(), sort_keys=True,
                                   indent=2).replace("\n", "\n  "))]
    items += [(key, _float_array_json(getattr(truth, key), 1))
              for key in ("delta", "eps", "h_full", "kappa_full")]
    return "{\n" + ",\n".join(f'  "{key}": {text}'
                               for key, text in items) + "\n}\n"


def _cmd_simulate(args):
    sidecar = args.truth or (args.output + ".truth.json")
    _distinct_files(args, config=args.config, output=args.output,
                    truth=sidecar)
    cfg = load_dgp_config(args.config)
    n = cfg.dims.n if args.n is None else args.n
    cfg = replace(cfg, dims=replace(cfg.dims, n=n),
                  seed=cfg.seed if args.seed is None else args.seed)
    truth = simulate(cfg)
    text = _truth_json(cfg, truth)
    # the sidecar is opened first, so a bad --truth path leaves no CSV;
    # a CSV that cannot be written leaves no empty sidecar
    with open(sidecar, "w", encoding="utf-8") as fh:
        try:
            write_csv(truth.dataset, args.output)
        except BaseException:
            fh.close()
            os.remove(sidecar)
            raise
        fh.write(text)
    print(f"wrote {args.output} and {sidecar}")
    return 0


def _cmd_validate(args):
    ds = _load_panel(args)
    report = validate(ds, h_min=args.h_min)
    _write_json(report.to_dict(), args.output)
    return 0 if report.passed else 1


def _cmd_mc(args):
    _distinct_files(args, config=args.config, table=args.table,
                    output=args.output)
    cfg = load_experiment_config(args.config)
    report = run_experiment(cfg)
    text = convergence_table(report)
    checks = evaluate_contracts(report)
    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.output:
        _write_json(dict(report.to_dict(), contracts=checks), args.output)
    bad = [c for c in checks if not c["passed"]]
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"contract {status}: {c['name']} ({c['detail']})",
              file=sys.stderr)
    return 1 if bad else 0


def _cmd_mean_effect(args):
    coeffs = _floats(args.coeffs)
    means = _floats(args.means)
    value = mean_effect(coeffs, means, args.constant)
    if not math.isfinite(value):
        raise ValueError("the mean effect overflows the float range")
    print(f"{value:.6g}")
    if args.output:
        _write_json({"coefficients": coeffs, "means": means,
                     "constant": args.constant, "mean_effect": value},
                    args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="interpanel",
        description="Interaction-effect estimators for fixed-T panels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def panel_args(p):
        p.add_argument("--input", required=True, help="panel CSV path")
        p.add_argument("--schema", action="append", metavar="ROLE=COLS",
                       help="column mapping, e.g. y=rate or x=tax|inc "
                            "(repeatable)")
        p.add_argument("--h-min", type=_h_min, default=DEFAULT_H_MIN,
                       help="a unit fails unless the solver can factor X and "
                            "det(X'X) / (T * mean(X^2))^K_x exceeds this, and "
                            "the same for X without its first column "
                            "(default %(default)s)")
        p.add_argument("--add-intercept-h", action="store_true",
                       help="put a constant column h_const first in H")
        p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("estimate", help="fit the estimators on a CSV panel")
    panel_args(p)
    p.add_argument("--estimator", choices=("cite", "ite", "both"),
                   default="both")
    p.add_argument("--weight-mode", choices=WEIGHT_MODES,
                   default="none", help="second-stage weighting for cite")
    p.add_argument("--se", choices=("none", "cluster", "bootstrap"),
                   default="cluster")
    p.add_argument("--bootstrap-reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_estimate, usage_error=p.error)

    p = sub.add_parser("simulate", help="draw a panel from a DGP config")
    p.add_argument("--config", required=True, help="DgpConfig JSON path")
    p.add_argument("--n", type=int, help="override the number of units")
    p.add_argument("--seed", type=int, help="override the seed")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--truth", help="sidecar truth JSON path "
                                   "(default OUTPUT.truth.json)")
    p.set_defaults(func=_cmd_simulate, usage_error=p.error)

    p = sub.add_parser("validate", help="run the assumption checks on a CSV")
    panel_args(p)
    p.add_argument("--output", help="write the report JSON here")
    p.set_defaults(func=_cmd_validate, usage_error=p.error)

    p = sub.add_parser("mc", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True, help="experiment JSON path")
    p.add_argument("--output", help="machine-readable report path")
    p.add_argument("--table", help="write the text table here")
    p.set_defaults(func=_cmd_mc, usage_error=p.error)

    p = sub.add_parser("mean-effect",
                       help="average effect from coefficients and means")
    p.add_argument("--coeffs", type=_finite_list, required=True,
                   help="comma-separated")
    p.add_argument("--means", type=_finite_list, required=True,
                   help="comma-separated")
    p.add_argument("--constant", type=_finite, required=True)
    p.add_argument("--output", help="write JSON here")
    p.set_defaults(func=_cmd_mean_effect)
    p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, DegenerateResample, FailureRateExceeded,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # sizes within every bound, beyond the machine
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
