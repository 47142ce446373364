"""Experiment orchestration: config validation, seeded sweeps, persistence.

A sweep runs (n, trial) tasks, each fully determined by the config and the
master seed: sample a cloud, build the proximity graph, solve for the
Cheeger cut, and compare the ratio and the cut against the continuum
references. Each task writes one JSON record; re-running a partially
completed sweep skips existing records of the same config (a record of
another config raises ``ConfigError``), and the run digest (a hash of the
records minus timings) is independent of the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .consistency import (circle_transport_delta, cut_l1_error, fit_rate,
                          loglog_fit, schedule_exponents)
from .cut_solvers import (solve_arc_sweep, solve_exact, solve_pipeline,
                          solve_spectral_sweep)
from .errors import ConfigError, MissingColumns
from .manifold import Circle, continuum_cheeger, get_manifold
from .nonlocal_tv import surface_tension
from .proximity_graph import build_graph
from .quadrature import build_grid

SUMMARY_COLUMNS = ["n", "epsilon", "trial_seed", "cheeger_ratio",
                   "continuum_ref", "abs_error", "l1_cut_error",
                   "sup_displacement", "method", "winner", "certificate",
                   "elapsed_sec"]

_SOLVERS = {"pipeline": solve_pipeline, "exact": solve_exact,
            "spectral": solve_spectral_sweep, "arc": solve_arc_sweep}

# the timed stages of a trial, in order; their seconds go to the record's stage_s
STAGES = ("sample", "graph", "solve", "reference", "l1")
# left out of the run digest: timings, tracebacks (paths and line numbers) and
# the eigen residual, whose last bits depend on the BLAS threading
UNDIGESTED = ("elapsed_sec", "stage_s", "traceback", "eigen_residual")

# version of the record layout written by `run_trial`, part of the config
# hash; raise it whenever a record field is added, removed or renamed
RECORD_SCHEMA = 2

# quadrature grid size of a trial's L1 cut error, per manifold
TRIAL_GRID = {"circle": 800, "flat_torus_2": 96, "sphere_2": 4000}

SVG_SIZE = (480, 360)  # width and height of the log-log plot, in pixels


@dataclass
class ExperimentConfig:
    manifold: str
    n_list: list
    trials: int
    seed: int
    out: str
    solver: str = "pipeline"
    # schedule: explicit epsilons (aligned with n_list) or eps = c * n^{-k}
    epsilons: list = None
    epsilon_c: float = 2.0
    # default 3/(2+4m), i.e. k_eps of schedule_exponents. For m = 1 that
    # schedule (eps = 2 n^{-1/2}) cannot meet k_delta = 2/3, since the circle's
    # transport distance is of order n^{-1/2}: delta_n / eps stays near 0.3.
    epsilon_k: float = None
    schedule_meta: dict = field(default_factory=dict)

    def epsilon(self, n):
        if self.epsilons is not None:
            return float(self.epsilons[list(self.n_list).index(n)])
        return float(self.epsilon_c * float(n) ** (-self.epsilon_k))

    def bandwidth(self, n):
        """Smoothing bandwidth from the scale trade-off: a = eps^(1/3)."""
        return self.epsilon(n) ** (1.0 / 3.0)

    def resolved(self):
        d = asdict(self)
        d["epsilon_by_n"] = {str(n): self.epsilon(n) for n in self.n_list}
        return d


def validate_config(source) -> ExperimentConfig:
    """Build a config from a dict or a JSON file path; collect all errors."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            raw = json.load(fh)
    else:
        raw = dict(source)
    # schedule_meta and epsilon_by_n are derived; they are accepted so that
    # resolved() output validates, and must then equal the derived values
    known = {f.name for f in fields(ExperimentConfig)} | {"epsilon_by_n"}
    errors = [f"unknown config key {k!r}" for k in sorted(set(raw) - known)]
    name = raw.get("manifold")
    mf = None
    if not name:
        errors.append("manifold required")
    else:
        try:
            mf = get_manifold(name)
        except ValueError as exc:
            errors.append(str(exc))

    def parse(key, kind, default=None):
        """``kind(raw[key])``; None, and an error, when it does not parse."""
        value = raw.get(key, default)
        try:
            return None if value is None else kind(value)
        except (TypeError, ValueError, OverflowError):
            errors.append(f"{key} must be numeric, got {value!r}")

    n_list = parse("n_list", lambda v: [int(n) for n in v])
    if not raw.get("n_list"):
        errors.append("n_list required")
    elif n_list:
        bad = [n for n in n_list if n < 8]
        if bad:
            errors.append(f"all n must be >= 8; offending n: {bad}")
        # a repeated n would run its trials twice and take the first epsilon
        repeated = sorted({n for n in n_list if n_list.count(n) > 1})
        if repeated:
            errors.append(f"n_list repeats n: {repeated}")
    trials = parse("trials", int, 0)
    if trials is not None and trials < 1:
        errors.append("trials must be >= 1")
    if "seed" not in raw:
        errors.append("seed required")
    seed = parse("seed", int)
    if not raw.get("out"):
        errors.append("out (output directory) required")
    solver = raw.get("solver", "pipeline")
    if solver not in _SOLVERS:
        errors.append(f"unknown solver {solver!r}; expected one of {sorted(_SOLVERS)}")
    epsilons = parse("epsilons", lambda v: [float(e) for e in v])
    epsilon_c = parse("epsilon_c", float, 2.0)
    epsilon_k = parse("epsilon_k", float)
    if errors:
        raise ConfigError(errors)
    cfg = ExperimentConfig(
        manifold=name, n_list=n_list, trials=trials, seed=seed, out=str(raw["out"]),
        solver=solver, epsilons=epsilons, epsilon_c=epsilon_c, epsilon_k=epsilon_k)
    cfg.schedule_meta = schedule_exponents(mf.m)
    if cfg.epsilon_k is None:
        cfg.epsilon_k = cfg.schedule_meta["k_eps"]
    if cfg.epsilons is not None and len(cfg.epsilons) != len(cfg.n_list):
        raise ConfigError(["epsilons must align with n_list"])
    derived = {"schedule_meta": cfg.schedule_meta,
               "epsilon_by_n": {str(n): cfg.epsilon(n) for n in cfg.n_list}}
    for key, value in derived.items():
        if key in raw and raw[key] != value:
            errors.append(f"{key} {raw[key]!r} differs from the derived {value!r}")
    for n in cfg.n_list:
        eps = cfg.epsilon(n)
        if not (math.isfinite(eps) and eps > 0.0):
            errors.append(f"epsilon(n={n}) = {eps!r} is not a positive finite number")
        elif eps > mf.epsilon0:
            errors.append(f"epsilon(n={n}) = {eps:.4g} exceeds the manifold "
                          f"limit {mf.epsilon0}")
    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def trial_seed(master, n, trial):
    """Stable 62-bit seed derived from (master seed, n, trial index)."""
    digest = hashlib.sha256(f"{master}:{n}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


def _record_path(out_dir, n, trial):
    return Path(out_dir) / f"record_n{n}_t{trial}.json"


def run_trial(cfg: ExperimentConfig, n, trial) -> dict:
    mf = get_manifold(cfg.manifold)
    seed = trial_seed(cfg.seed, n, trial)
    eps = cfg.epsilon(n)
    marks = [time.perf_counter()]
    cloud = mf.sample(n, seed=seed)
    marks.append(time.perf_counter())
    graph = build_graph(cloud, eps)
    marks.append(time.perf_counter())
    result = _SOLVERS[cfg.solver](graph)
    marks.append(time.perf_counter())
    ref = continuum_cheeger(mf)
    target = surface_tension(mf.m) * ref.constant
    # exact transport distance on the circle; unmeasured elsewhere, where the
    # covering radius sup_displacement is only a lower bound on it
    transport_delta = (circle_transport_delta(cloud)
                       if isinstance(mf, Circle) else None)
    marks.append(time.perf_counter())
    grid = build_grid(mf, TRIAL_GRID[mf.name])
    err = cut_l1_error(result, cloud, ref, grid=grid)
    marks.append(time.perf_counter())
    # the density-fluctuation term of kappa is unmeasured
    kappa = (None if transport_delta is None
             else eps ** (1.0 / 6.0) + transport_delta / eps)
    stage_s = {name: b - a for name, a, b in zip(STAGES, marks, marks[1:])}
    rec = {
        "config_hash": config_hash(cfg), "n": int(n), "trial": int(trial),
        "epsilon": eps, "a": cfg.bandwidth(n), "trial_seed": int(seed),
        "n_edges": len(graph.edges),
        "cheeger_ratio": float(result.objective_value),
        "continuum_ref": float(target),
        "abs_error": abs(float(result.objective_value) - float(target)),
        "l1_cut_error": float(err.l1_error),
        "discrete_cut_error": float(err.discrete_error),
        "sup_displacement": float(err.sup_displacement),
        "transport_delta": transport_delta, "kappa": kappa,
        "method": cfg.solver, "certificate": result.certificate,
        # how the solver got there: the candidate that won, whether the eigen
        # solve failed, and its residual (null where no eigen solve ran)
        "winner": result.extras.get("winner", result.solver),
        "degraded": bool(result.extras.get("degraded", False)),
        "eigen_residual": result.extras.get("eigen_residual"),
        # the solver's time is the harness's solve stage
        "elapsed_sec": stage_s["solve"],
        "stage_s": stage_s,
    }
    return rec


def config_hash(cfg: ExperimentConfig):
    d = cfg.resolved()
    d.pop("out", None)  # the output location does not affect the results
    # a resume must not mix records of two layouts
    d["record_schema"] = RECORD_SCHEMA
    blob = json.dumps(d, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _worker(args):
    cfg_dict, n, trial, out_dir = args
    cfg = ExperimentConfig(**cfg_dict)
    path = _record_path(out_dir, n, trial)
    if path.exists():
        return str(path)
    try:
        rec = run_trial(cfg, n, trial)
    except Exception as exc:  # noqa: BLE001 - per-trial isolation
        rec = {"config_hash": config_hash(cfg), "n": int(n), "trial": int(trial),
               "failed": True, "error": f"{type(exc).__name__}: {exc}",
               "traceback": traceback.format_exc()}
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(rec, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)
    return str(path)


def default_workers():
    env = os.environ.get("CHEEGER_LAB_WORKERS")
    if env:
        return max(1, int(env))
    return 1


def run_experiment(cfg: ExperimentConfig, workers=None) -> dict:
    """Execute the sweep; returns {records, rates, digest, summary_path}."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = workers or default_workers()
    want = config_hash(cfg)
    pending = []
    for n in cfg.n_list:
        for t in range(cfg.trials):
            path = _record_path(out_dir, n, t)
            if not path.exists():
                pending.append((asdict(cfg), n, t, str(out_dir)))
            elif json.loads(path.read_text()).get("config_hash") != want:
                raise ConfigError(f"{path} was written by another config; resume "
                                  "only into an output directory of the same config")
    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_worker, pending))
    else:
        for t in pending:
            _worker(t)
    # deterministic aggregation pass
    records = []
    for n in cfg.n_list:
        for t in range(cfg.trials):
            with open(_record_path(out_dir, n, t)) as fh:
                records.append(json.load(fh))
    good = [r for r in records if not r.get("failed")]
    _write_summary(out_dir / "summary.csv", good)
    rates = _write_rates(out_dir / "rates.json", cfg, records)
    digest = run_digest(records)
    with open(out_dir / "digest.txt", "w") as fh:
        fh.write(digest + "\n")
    return {"records": records, "rates": rates, "digest": digest,
            "summary_path": str(out_dir / "summary.csv")}


def run_digest(records):
    """Hash of the records without their timing and traceback fields."""
    canon = []
    for r in sorted(records, key=lambda r: (r["n"], r["trial"])):
        r = {k: v for k, v in r.items() if k not in UNDIGESTED}
        canon.append(json.dumps(r, sort_keys=True))
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def _write_summary(path, records):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        for r in sorted(records, key=lambda r: (r["n"], r["trial"])):
            w.writerow([r["n"], repr(r["epsilon"]), r["trial_seed"],
                        repr(r["cheeger_ratio"]), repr(r["continuum_ref"]),
                        repr(r["abs_error"]), repr(r["l1_cut_error"]),
                        repr(r["sup_displacement"]), r["method"],
                        r["winner"], r["certificate"],
                        f"{r['elapsed_sec']:.3f}"])


def _write_rates(path, cfg, records):
    mf = get_manifold(cfg.manifold)
    out = {"schedule": cfg.schedule_meta,
           "epsilon_rule": {"c": cfg.epsilon_c, "k": cfg.epsilon_k},
           "n_failed": {str(n): sum(1 for r in records if r["n"] == n and r.get("failed"))
                        for n in cfg.n_list}}
    for key in ("abs_error", "l1_cut_error"):
        by_n = {}
        for r in records:
            if not r.get("failed"):
                by_n.setdefault(r["n"], []).append(r[key])
        try:
            rr = fit_rate(by_n, m=mf.m, seed=cfg.seed)
            out[key] = rr.as_dict()
        except Exception as exc:  # noqa: BLE001 - report, don't abort
            out[key] = {"error": f"{type(exc).__name__}: {exc}"}
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    return out


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------

def emit_plot_data(summary_path, kind, out_dir) -> dict:
    """Write TSV plot data and a self-contained SVG for a summary file."""
    column = {"rate_loglog": "abs_error", "cut_error": "l1_cut_error",
              "concentration": "cheeger_ratio"}.get(kind)
    if column is None:
        raise ValueError(f"unknown plot kind {kind!r}")
    rows = _read_summary(summary_path, column)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_n = {}
    for r in rows:
        by_n.setdefault(int(r["n"]), []).append(float(r[column]))
    ns = sorted(by_n)
    centre = np.mean if kind == "concentration" else np.median
    ys = [float(centre(by_n[n])) for n in ns]
    sig = [float(np.std(by_n[n], ddof=1)) if len(by_n[n]) > 1 else 0.0
           for n in ns]
    tsv = out_dir / f"{kind}.tsv"
    with open(tsv, "w") as fh:
        fh.write("x\ty\tsigma\n")
        for n, y, s in zip(ns, ys, sig):
            fh.write(f"{n}\t{y!r}\t{s!r}\n")
    meta = {"kind": kind, "tsv": str(tsv), "n": ns, "y": ys}
    if kind in ("rate_loglog", "cut_error") and len(ns) >= 2:
        coef = loglog_fit(ns, ys)
        meta["slope"] = float(coef[0])
        meta["monotone_decreasing"] = bool(all(b <= a for a, b in zip(ys, ys[1:])))
        svg = out_dir / f"{kind}.svg"
        _write_loglog_svg(svg, ns, ys, coef)
        meta["svg"] = str(svg)
    with open(out_dir / f"{kind}.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return meta


def _read_summary(summary_path, column):
    with open(summary_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise MissingColumns("summary file has no data rows")
    missing = [c for c in ("n", column) if c not in rows[0]]
    if missing:
        raise MissingColumns(f"summary missing columns: {missing}")
    return rows


def _write_loglog_svg(path, ns, ys, coef):
    width, height = SVG_SIZE
    x = np.log10(np.asarray(ns, float))
    y = np.log10(np.maximum(ys, 1e-300))
    pad = 50

    def sx(v):
        lo, hi = x.min(), x.max()
        return pad + (v - lo) / max(hi - lo, 1e-9) * (width - 2 * pad)

    def sy(v):
        lo, hi = y.min(), y.max()
        return height - pad - (v - lo) / max(hi - lo, 1e-9) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" '
             f'y2="{height-pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" '
             f'stroke="black"/>']
    for xi, yi in zip(x, y):
        parts.append(f'<circle cx="{sx(xi):.1f}" cy="{sy(yi):.1f}" r="4" '
                     f'fill="steelblue"/>')
    # fitted line in natural log space: ln y = a ln n + b
    a, b = coef
    yfit = (a * np.log(np.asarray(ns, float)) + b) / np.log(10.0)
    pts = " ".join(f"{sx(xi):.1f},{sy(yi):.1f}" for xi, yi in zip(x, yfit))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="crimson" '
                 f'stroke-dasharray="5,3"/>')
    parts.append(f'<text x="{pad}" y="{pad-15}" font-family="monospace" '
                 f'font-size="13">slope = {a:.3f}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
