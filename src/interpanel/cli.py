"""Command-line interface: estimate, simulate, validate, mc, mean-effect."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .data import (PanelDataError, add_intercept_h, build_regressors,
                   drop_failing_units, load_csv, validate, write_csv,
                   DEFAULT_H_MIN)
from .dgp import ConfigInvalid, load_dgp_config, simulate
from .estimators import ite, mean_effect
from .harness import (convergence_table, evaluate_contracts,
                      load_experiment_config, run_experiment)
from .inference import (bootstrap_cite, cite_kappa_se, cite_theta_se,
                        fit_cite_weighted, ite_se)
from .linalg import RankDeficient


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


def _load_panel(args):
    ds = load_csv(args.input, schema=_parse_schema(args.schema))
    if getattr(args, "add_intercept_h", False):
        ds = add_intercept_h(ds)
    return ds


def _cmd_estimate(args):
    ds = _load_panel(args)
    report = validate(ds, h_min=args.h_min)
    ds, dropped = drop_failing_units(ds, report)
    if dropped:
        print(f"warning: dropped {len(dropped)} units failing the per-unit "
              f"variation check: {list(dropped)}", file=sys.stderr)
    # validate's blocks; building anew only raises its rank error, by unit
    dr = report.regressors or build_regressors(ds)

    which = ("cite", "ite") if args.estimator == "both" else (args.estimator,)
    out = {
        "command": "estimate",
        "n_units": ds.dims.n,
        "n_periods": ds.dims.T,
        "dropped_units": list(dropped),
        "validation": report.to_dict(),
        "estimators": {},
    }
    results = {}
    for est in which:
        if est == "cite":
            res = fit_cite_weighted(ds, dr, weight_mode=args.weight_mode)
            labels, values = res.coefficients()
            entry = {
                "labels": labels,
                "estimates": values.tolist(),
                "weight_mode": res.weight_mode,
                "delta_hat": res.delta_hat.tolist(),
                "delta_units": list(ds.unit_labels),
            }
            if args.se == "cluster":
                k_se = cite_kappa_se(dr, res) if ds.dims.K_h else None
                t_se = cite_theta_se(dr, res) if res.theta_hat.size else None
                entry["se"] = (k_se.se.tolist() if k_se else []) + \
                    (t_se.se.tolist() if t_se else [])
                entry["se_method"] = "hc_robust (kappa), cluster_robust (theta)"
            elif args.se == "bootstrap":
                b = bootstrap_cite(ds, dr, res, args.bootstrap_reps, args.seed)
                entry["se"] = b.se.tolist() + [None] * len(res.theta_hat)
                entry["se_method"] = "bootstrap (kappa only)"
        else:
            res = ite(ds, dr)
            labels, values = res.coefficients()
            entry = {"labels": labels, "estimates": values.tolist()}
            if args.se == "cluster":
                entry["se"] = ite_se(dr, res).se.tolist()
                entry["se_method"] = "cluster_robust"
        results[est] = res
        out["estimators"][est] = entry

    if len(which) == 2 and ds.dims.K_h >= 1:
        _print_side_by_side(results["cite"], results["ite"])
        k_cite = float(results["cite"].kappa_hat[0])
        k_ite = float(results["ite"].kappa_hat[0])
        disagree = bool(np.sign(k_cite) != np.sign(k_ite))
        out["sign_disagreement"] = disagree
        if disagree:
            print(f"warning: the two estimators disagree about the sign of "
                  f"the first interaction coefficient "
                  f"(cite {k_cite:.6g} vs ite {k_ite:.6g})", file=sys.stderr)
    _write_json(out, args.output)
    return 0


def _print_side_by_side(cite_res, ite_res):
    # human-readable comparison goes to stderr; stdout stays machine clean
    labels, cite_vals = cite_res.coefficients()
    _, ite_vals = ite_res.coefficients()
    width = max(len(lab) for lab in labels)
    print(f"{'':{width}}  {'cite':>12}  {'ite':>12}", file=sys.stderr)
    for lab, c, i in zip(labels, cite_vals, ite_vals):
        print(f"{lab:{width}}  {c:12.6g}  {i:12.6g}", file=sys.stderr)


def _cmd_simulate(args):
    cfg = load_dgp_config(args.config)
    if args.n is not None or args.seed is not None:
        dims = cfg.dims if args.n is None else replace(cfg.dims, n=args.n)
        cfg = replace(cfg, dims=dims,
                      seed=cfg.seed if args.seed is None else args.seed)
    truth = simulate(cfg)
    write_csv(truth.dataset, args.output)
    sidecar = args.truth or (args.output + ".truth.json")
    _write_json({
        "config": cfg.to_dict(),
        "delta": truth.delta.tolist(),
        "eps": truth.eps.tolist(),
        "h_full": truth.h_full.tolist(),
        "kappa_full": truth.kappa_full.tolist(),
    }, sidecar)
    print(f"wrote {args.output} and {sidecar}")
    return 0


def _cmd_validate(args):
    ds = _load_panel(args)
    report = validate(ds, h_min=args.h_min)
    _write_json(report.to_dict(), args.output)
    return 0 if report.passed else 1


def _cmd_mc(args):
    cfg = load_experiment_config(args.config)
    report = run_experiment(cfg)
    text, doc = convergence_table(report)
    checks = evaluate_contracts(report)
    doc["contracts"] = checks
    if args.table:
        with open(args.table, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.output:
        _write_json(doc, args.output)
    bad = [c for c in checks if not c["passed"]]
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"contract {status}: {c['name']} ({c['detail']})",
              file=sys.stderr)
    return 1 if bad else 0


def _cmd_mean_effect(args):
    coeffs = _floats(args.coeffs)
    means = _floats(args.means)
    summary = mean_effect(coeffs, means, args.constant)
    print(f"{summary.mean_effect:.6g}")
    if args.output:
        _write_json({
            "coefficients": summary.interaction_coefficients.tolist(),
            "means": summary.interaction_means.tolist(),
            "constant": summary.constant,
            "mean_effect": summary.mean_effect,
        }, args.output)
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
        p.add_argument("--h-min", type=float, default=DEFAULT_H_MIN,
                       help="threshold on each unit's det(X'X) / (T * mean"
                            "(X^2))^K_x (default %(default)s)")

    p = sub.add_parser("estimate", help="fit the estimators on a CSV panel")
    panel_args(p)
    p.add_argument("--estimator", choices=("cite", "ite", "both"),
                   default="both")
    p.add_argument("--weight-mode", choices=("none", "inv_se", "inv_var"),
                   default="none", help="second-stage weighting for cite")
    p.add_argument("--se", choices=("none", "cluster", "bootstrap"),
                   default="cluster")
    p.add_argument("--bootstrap-reps", type=int, default=200)
    p.add_argument("--add-intercept-h", action="store_true",
                   help="append a constant column to H")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="draw a panel from a DGP config")
    p.add_argument("--config", required=True, help="DgpConfig JSON path")
    p.add_argument("--n", type=int, help="override the number of units")
    p.add_argument("--seed", type=int, help="override the seed")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--truth", help="sidecar truth JSON path "
                                   "(default OUTPUT.truth.json)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="run the assumption checks on a CSV")
    panel_args(p)
    p.add_argument("--add-intercept-h", action="store_true")
    p.add_argument("--output", help="write the report JSON here")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("mc", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True, help="experiment JSON path")
    p.add_argument("--output", help="machine-readable report path")
    p.add_argument("--table", help="write the text table here")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("mean-effect",
                       help="average effect from coefficients and means")
    p.add_argument("--coeffs", required=True, help="comma-separated")
    p.add_argument("--means", required=True, help="comma-separated")
    p.add_argument("--constant", type=float, required=True)
    p.add_argument("--output", help="write JSON here")
    p.set_defaults(func=_cmd_mean_effect)
    try:
        # let values like "-1.146,0.805,-0.0274" pass as arguments rather
        # than being mistaken for option names
        import re
        p._negative_number_matcher = re.compile(r"^-[\d.,eE+-]+$")
    except AttributeError:  # pragma: no cover
        pass
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PanelDataError, RankDeficient, ConfigInvalid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
