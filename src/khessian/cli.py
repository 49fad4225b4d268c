"""Command-line front end.

    khessian solve        --config cfg.yaml [--set key=value]... [--seed S]
    khessian mms          --config cfg.yaml ...
    khessian audit NAME   --config cfg.yaml ...
    khessian sample-cone  --config cfg.yaml ...

Configuration is YAML merged over built-in defaults; a --set override
names a dotted path (--set problem.N=16) and goes through the same merge.
Unknown keys are rejected with their full path, and every value is
type-checked against its default; the solver section is SolverOptions,
checked by SolverOptions.validated().  Ranges are the library's to check:
a DomainError raised while a value is in use leaves as a ConfigError that
names the value's key (``_at``), so the load-time range checks are only
those whose key the library could not name.  Every run writes report.json
(with the effective configuration embedded) and rows.csv into the output
directory, which resolves from the config, then the KHESSIAN_OUTDIR
environment variable, then ./khessian-out.  Both files come from the
report dataclasses' fields: for solve and mms, report.json holds every
SolveReport field but the grid arrays (the stages and the residual history
included) and rows.csv one column per StageRecord field; an audit writes
its AuditReport and one row per measurement.

Exit status: 0 on success, 1 when the run completed but failed (solver
divergence, audit violation), 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import difflib
import json
import numbers
import os
import re
import sys
from pathlib import Path

import yaml


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads 1e-7 style floats (plain YAML 1.1 only
    accepts a mantissa with a dot)."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(
        r"""^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
        |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
        |\.[0-9_]+(?:[eE][-+]?[0-9]+)?
        |[-+]?\.(?:inf|Inf|INF)
        |\.(?:nan|NaN|NAN))$""",
        re.X,
    ),
    list("-+0123456789."),
)

from . import audits
from .errors import ConfigError, DomainError, SamplingBudgetError
from .fieldio import plain, save_field
from .geometry import TorusGrid, check_preset, metric_preset
from .solver import SolverOptions, manufactured_source, recovery_error, solve
from .symfunc import check_k, elementary_all, sample_gamma_k

AUDIT_NAMES = (
    "lemma21",
    "basic-inequality",
    "lemma22",
    "commutation",
    "c0",
    "b-bound",
    "c2",
    "cherrier",
)

DEFAULTS = {
    "problem": {
        "n": 2,
        "k": 2,
        "N": 16,
        "metric": {"preset": "euclidean", "epsilon": 0.1},
        "source": {"terms": [[0.5, [1, 0, 0, 0], 0.0]]},
    },
    "solver": dataclasses.asdict(SolverOptions()),
    "mms": {
        "terms": [
            [0.025, [1, 1, 0, 0], 0.0],
            [0.025, [1, -1, 0, 0], 0.0],
            [0.05, [0, 0, 1, 0], 0.0],
        ],
        "tol": 1e-6,
    },
    "audit": {
        "samples": 100000,
        "pairs": [[3, 2], [4, 2], [4, 3], [5, 3]],
        "lemma21": {"n": 4, "k": 3},
        "lemma22_cases": [[2, 8, 16], [3, 8, 12]],
        "family_amplitudes": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "p_list": [4, 8, 16, 32, 64],
        "commutation": {"N_lo": 12, "N_hi": 24},
    },
    "output_dir": None,
    "save_fields": False,
    "seed": 0,
}


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


@contextlib.contextmanager
def _at(path: str):
    """Re-raise a library DomainError as a ConfigError naming ``path``."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """Deep merge with unknown-key rejection and did-you-mean hints."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}{key}"
        if key not in base:
            hint = difflib.get_close_matches(str(key), list(base), n=1)
            extra = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(f"unknown configuration key {dotted!r}{extra}")
        if isinstance(base[key], dict):
            _expect(
                isinstance(value, dict),
                dotted,
                f"expected a mapping, got {value!r}",
            )
            out[key] = _merge(base[key], value, dotted + ".")
        else:
            out[key] = value
    return out


def _apply_set(cfg: dict, assignment: str) -> dict:
    """Merge --set a.b.c=v into cfg as the override {"a": {"b": {"c": v}}}."""
    if "=" not in assignment:
        raise ConfigError(f"--set needs key=value, got {assignment!r}")
    key, _, raw = assignment.partition("=")
    try:
        value = yaml.load(raw, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"--set {key}: unparseable value {raw!r}: {exc}") from exc
    for part in reversed(key.split(".")):
        value = {part: value}
    return _merge(cfg, value)


def _check_types(value, default, path: str) -> None:
    """Type-check a value against its default: a scalar default fixes the
    type (an int passes for a float, a bool never for a number, a None
    default admits a string), every list is non-empty, a list of records
    holds records of the default record's length checked position by
    position, and a list of scalars is homogeneous."""
    if isinstance(default, dict):
        for key, sub in default.items():
            _check_types(value[key], sub, f"{path}.{key}")
    elif isinstance(default, list):
        _expect(
            isinstance(value, list) and value, path, f"expected a non-empty list, got {value!r}"
        )
        item = default[0]
        for idx, entry in enumerate(value):
            at = f"{path}[{idx}]"
            if isinstance(item, list):
                _expect(
                    isinstance(entry, list) and len(entry) == len(item),
                    at,
                    f"expected a list of {len(item)} entries like {item!r}, got {entry!r}",
                )
                for pos, (sub, sub_default) in enumerate(zip(entry, item)):
                    _check_types(sub, sub_default, f"{at}[{pos}]")
            else:
                _check_types(entry, item, at)
    else:
        if isinstance(default, bool):
            ok, label = isinstance(value, bool), "a boolean"
        elif isinstance(default, int):
            ok, label = isinstance(value, numbers.Integral), "an integer"
        elif isinstance(default, float):
            ok, label = isinstance(value, numbers.Real), "a number"
        elif default is None:
            ok, label = value is None or isinstance(value, str), "a path string or null"
        else:
            ok, label = isinstance(value, str), "a string"
        ok = ok and isinstance(value, bool) == isinstance(default, bool)
        _expect(ok, path, f"expected {label}, got {value!r}")


def _validate(cfg: dict) -> dict:
    try:
        SolverOptions(**cfg["solver"]).validated()
    except DomainError as exc:
        raise ConfigError(f"solver.{exc}") from exc
    for key, default in DEFAULTS.items():
        if key != "solver":
            _check_types(cfg[key], default, key)
    # Load-time range rules, for keys the library cannot name: problem.n
    # (sample-cone builds no grid), N, the term parity, and values that reach
    # the library under another name or not at all.  k and the preset are
    # checked here too, as lemma22 and the family audits use them inside.
    p, m = cfg["problem"], cfg["problem"]["metric"]
    _expect(p["n"] >= 2, "problem.n", f"must be >= 2, got {p['n']}")
    _expect(p["N"] >= 8 and p["N"] % 2 == 0, "problem.N", f"must be even and >= 8, got {p['N']}")
    with _at("problem.k"):
        check_k(p["k"], p["n"])
    # only the torsion preset reads epsilon, so its name is known to be valid
    with _at("problem.metric.epsilon" if m["preset"] == "torsion" else "problem.metric.preset"):
        check_preset(m["preset"], m["epsilon"])
    for idx, (_, freqs, _) in enumerate(p["source"]["terms"]):
        _expect(
            len(freqs) % 2 == 0,
            f"problem.source.terms[{idx}][1]",
            f"expected an even number of integer frequencies, got {freqs!r}",
        )
    for path, value in (
        ("mms.tol", cfg["mms"]["tol"]),
        ("audit.samples", cfg["audit"]["samples"]),
    ):
        _expect(value > 0, path, f"must be positive, got {value}")
    _expect(cfg["seed"] >= 0, "seed", f"must be >= 0, got {cfg['seed']}")
    return cfg


def load_config(path: str | None, sets, seed: int | None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            user = yaml.load(text, Loader=_ConfigLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        cfg = _merge(cfg, user)
    for assignment in sets or ():
        cfg = _apply_set(cfg, assignment)
    if seed is not None:
        cfg["seed"] = seed
    return _validate(cfg)


def _resolve_outdir(cfg: dict) -> Path:
    return Path(cfg["output_dir"] or os.environ.get("KHESSIAN_OUTDIR") or "khessian-out")


def _write_outputs(outdir: Path, report: dict, rows: list) -> None:
    """report.json, and rows.csv with one column per key or field seen in
    any row (a dict or a dataclass); a list cell is written space-joined."""
    outdir.mkdir(parents=True, exist_ok=True)  # only here: a failed run leaves none
    with open(outdir / "report.json", "w") as fh:
        json.dump(plain(report), fh, indent=2)
        fh.write("\n")
    rows = [plain(row) for row in rows]
    header = list(dict.fromkeys(key for row in rows for key in row))
    with open(outdir / "rows.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: " ".join(map(str, v)) if isinstance(v, list) else v for k, v in row.items()}
            )


def _cmd_solve(cfg: dict, outdir: Path, mms: bool) -> int:
    """Solve for the problem's source; with mms, for the source that makes
    the mms.terms potential exact, gated by its recovery error."""
    p = cfg["problem"]
    grid = TorusGrid(p["n"], p["N"])
    g = metric_preset(grid, p["metric"]["preset"], epsilon=p["metric"]["epsilon"])
    if mms:
        with _at("mms.terms"):
            u_star = grid.trig_field(cfg["mms"]["terms"])
            f = manufactured_source(grid, g, u_star, p["k"])
    else:
        with _at("problem.source.terms"):
            f = grid.trig_field(p["source"]["terms"])
    rep = solve(grid, g, f, p["k"], options=SolverOptions(**cfg["solver"]))
    report = {"command": "mms" if mms else "solve", "passed": rep.success}
    if mms:
        err = recovery_error(rep, u_star) if rep.success else float("inf")
        report.update(passed=rep.success and err <= cfg["mms"]["tol"],
                      recovery_error=err, tol=cfg["mms"]["tol"])
    _write_outputs(outdir, {**report, **rep.summary_dict(), "config": cfg}, rep.stages)
    if cfg["save_fields"]:
        save_field(outdir / "u.khf", rep.u, grid.n, grid.N, kind="potential")
        if mms:
            save_field(outdir / "u_star.khf", u_star, grid.n, grid.N, kind="reference")
        else:
            save_field(outdir / "f.khf", f, grid.n, grid.N, kind="source")
    return 0 if report["passed"] else 1


def _cmd_audit(cfg: dict, outdir: Path, name: str) -> int:
    rep = _run_audit(cfg, name)
    _write_outputs(
        outdir,
        {"command": f"audit {name}", "passed": rep.passed, **rep.as_dict(), "config": cfg},
        rep.rows,
    )
    return 0 if rep.passed else 1


def _run_audit(cfg: dict, name: str) -> audits.AuditReport:
    """Run one audit; a parameter it rejects is reported under its key."""
    p, a, seed = cfg["problem"], cfg["audit"], cfg["seed"]
    if name == "lemma21":
        with _at("audit.lemma21"):
            return audits.audit_lemma21(**a["lemma21"], samples=a["samples"], seed=seed)
    if name == "basic-inequality":
        with _at("audit.pairs"):
            return audits.audit_basic_inequality(a["pairs"], samples=a["samples"], seed=seed)
    if name == "lemma22":
        m = p["metric"]
        with _at("audit.lemma22_cases"):
            return audits.audit_lemma22(a["lemma22_cases"], m["preset"], m["epsilon"])
    if name == "commutation":
        with _at("audit.commutation"):
            return audits.audit_commutation(**a["commutation"])
    with _at("problem.source.terms"):
        family = audits.run_family(
            p["n"], p["k"], p["N"], p["metric"]["preset"], p["source"]["terms"],
            a["family_amplitudes"], epsilon=p["metric"]["epsilon"],
            options=SolverOptions(**cfg["solver"]),
        )
    if name == "c0":
        return audits.audit_c0(family)
    if name == "b-bound":
        return audits.audit_b_bound(family)
    if name == "c2":
        return audits.audit_c2(family)
    with _at("audit.p_list"):
        return audits.audit_cherrier(
            family.grid, family.g, family.reports[-1].u, p_list=a["p_list"]
        )


def _cmd_sample_cone(cfg: dict, outdir: Path) -> int:
    n, k = cfg["problem"]["n"], cfg["problem"]["k"]
    lam = sample_gamma_k(n, k, cfg["audit"]["samples"], seed=cfg["seed"])
    sig = elementary_all(lam)
    rows = []
    for row, srow in zip(lam, sig):
        entry = {f"lambda_{i + 1}": row[i] for i in range(n)}
        entry.update({f"sigma_{j}": srow[j] for j in range(1, k + 1)})
        rows.append(entry)
    report = {
        "command": "sample-cone",
        "passed": True,
        "n": n,
        "k": k,
        "samples": int(lam.shape[0]),
        "min_sigma_k": float(sig[:, k].min()),
        "config": cfg,
    }
    _write_outputs(outdir, report, rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khessian",
        description="solve and audit the complex k-Hessian equation on flat tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra in (
        ("solve", None),
        ("mms", None),
        ("audit", "name"),
        ("sample-cone", None),
    ):
        p = sub.add_parser(name)
        if extra:
            p.add_argument("name", choices=AUDIT_NAMES)
        p.add_argument("--config", default=None, help="YAML configuration path")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a configuration entry by dotted path",
        )
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.sets, args.seed)
        outdir = _resolve_outdir(cfg)
        if args.command in ("solve", "mms"):
            return _cmd_solve(cfg, outdir, mms=args.command == "mms")
        if args.command == "audit":
            return _cmd_audit(cfg, outdir, args.name)
        return _cmd_sample_cone(cfg, outdir)
    except (ConfigError, DomainError, SamplingBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
