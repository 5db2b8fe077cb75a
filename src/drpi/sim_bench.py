"""Synthetic data generators and the FDR/TPR benchmark harness.

Four generative scenarios are supported: Gaussian MCAR without/with an
extra uniform covariate (models 1-2) and Gaussian/skewed MAR (models 3-4).
Noise across columns is correlated through an AR(1) covariance by default,
drawn by its recursion in O(np) time and memory, or through any SPD matrix
loaded from CSV, which costs a (p, p) Cholesky factor and an (n, p) @ (p, p)
product per repetition.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dr_inference, multiple_testing
from .data_model import Dataset, MethodKind, _first_repeat, _read_table, _write_csv
from .dr_inference import InferenceConfig
from .errors import DataError, NumericalError

MAR_MISS_CAP = 0.5  # P(C=0) = e^x / (2(1+e^x)) stays below 1/2


def _refuse_repeats(what, values):
    """DataError naming the first value given twice: its results would be
    scored twice, each repetition counted once per copy."""
    dup = _first_repeat(values)
    if dup is not None:
        raise DataError(f"{what} {dup!r} given more than once")


@dataclass
class SimConfig:
    model: int = 3
    n: int = 200
    p: int = 300
    signal_frac: float = 0.1
    signal_c: float = float("nan")  # NaN -> built-in default for (model, n)
    noise_rho: float = 0.5  # AR(1) parameter, ignored when cov_csv set
    cov_csv: str = ""
    mcar_prob: float = 0.3
    seed: int = 0
    reps: int = 100
    cutoffs: tuple = (0.05,)

    def __post_init__(self):
        if self.model not in (1, 2, 3, 4):
            raise DataError(f"model must be 1-4, got {self.model}")
        if not 0.0 <= self.signal_frac <= 1.0:
            raise DataError("signal_frac must be in [0, 1]")
        if not 0.0 <= self.mcar_prob < 1.0:
            raise DataError("mcar_prob must be in [0, 1)")
        if not -1.0 < self.noise_rho < 1.0:
            raise DataError("noise_rho must be in (-1, 1)")
        if self.p < 1:
            raise DataError(f"p must be >= 1, got {self.p}")
        q = 2 if self.model == 1 else 3  # intercept, a, and x outside model 1
        if self.n <= q:
            raise DataError(f"need n > q, got n={self.n}, q={q}")
        if self.reps < 1:
            raise DataError(f"reps must be >= 1, got {self.reps}")
        for cut in self.cutoffs:
            multiple_testing.check_alpha(cut)
        _refuse_repeats("cutoff", self.cutoffs)

    def effective_signal(self) -> float:
        if np.isfinite(self.signal_c):
            return self.signal_c
        if self.model == 4:
            return 0.12 if self.n <= 200 else 0.08
        return 0.4 if self.n <= 200 else 0.3


@dataclass(frozen=True)
class SimTruth:
    y_full: np.ndarray
    signal_set: np.ndarray
    a: np.ndarray
    x: np.ndarray
    beta_a: float


def load_cov_csv(path) -> np.ndarray:
    """Square matrix from a headerless CSV; blank lines are skipped."""
    m = _read_table(path, "covariance CSV", header=False)[1]
    if m.size == 0 or m.shape[0] != m.shape[1]:
        raise DataError("covariance CSV must be square")
    return m


def _cholesky_spd(cov: np.ndarray) -> np.ndarray:
    jittered = cov + 1e-8 * np.eye(cov.shape[0])
    try:
        return np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError:
        raise DataError("covariance not SPD after jitter") from None


def _ar1_rows(z: np.ndarray, rho: float) -> np.ndarray:
    """``z @ L.T`` for L the Cholesky factor of the AR(1) correlation, by the
    recursion eps[:, 0] = z[:, 0], eps[:, j] = rho eps[:, j-1] + sqrt(1-rho^2) z[:, j].

    The loop runs over the contiguous rows of a (p, n) copy, and the result
    is returned C-contiguous like ``z``.
    """
    eps = np.array(z.T, order="C")
    eps[1:] *= np.sqrt(1.0 - rho * rho)
    carry = np.empty(eps.shape[1])
    for j in range(1, eps.shape[0]):
        eps[j] += np.multiply(eps[j - 1], rho, out=carry)
    return np.ascontiguousarray(eps.T)


def _draw_noise(n, p, chol, rho, skewed, rng):
    """Correlated Gaussian rows: AR(1) with parameter ``rho`` when ``chol`` is
    None, else through the covariance's Cholesky factor ``chol``; optionally
    skewed by shift-log-recenter."""
    z = rng.standard_normal((n, p))
    eps = _ar1_rows(z, rho) if chol is None else z @ chol.T
    if skewed:
        eps = eps - eps.min(axis=0) + 0.1  # per-column minimum is +0.1
        eps = np.log(eps)
        eps = eps - eps.mean(axis=0)
    return eps


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


def mar_missing_prob(x: np.ndarray) -> np.ndarray:
    """P(C=0 | x) = e^x / (2 (1 + e^x))."""
    e = np.exp(x)
    return e / (2.0 * (1.0 + e))


def _noise_factor(cfg: SimConfig):
    """Cholesky factor of the ``cov_csv`` covariance, or None for AR(1) noise,
    which needs none."""
    if not cfg.cov_csv:
        return None
    cov = load_cov_csv(cfg.cov_csv)
    if cov.shape[0] != cfg.p:
        raise DataError(f"covariance is {cov.shape[0]}x{cov.shape[0]}, need p={cfg.p}")
    return _cholesky_spd(cov)


def gen_dataset(cfg: SimConfig, rep: int = 0, chol: np.ndarray = None):
    """One repetition's (Dataset, SimTruth) under the configured scenario.

    AR(1) noise is drawn by its recursion in O(np).  For a ``cov_csv``
    covariance, ``chol`` is its Cholesky factor, so that every repetition of
    a run draws from one factorization; factored here if None.  A ``chol``
    given for an AR(1) config is used in place of the recursion.
    """
    if chol is None:
        chol = _noise_factor(cfg)
    rng = _rep_rng(cfg.seed, rep)
    n, p = cfg.n, cfg.p
    a = np.zeros(n)
    a[rng.permutation(n)[: int(round(n / 2))]] = 1.0
    x = rng.uniform(0.0, 1.0, size=n)
    n_sig = int(round(cfg.signal_frac * p))
    signal = np.sort(rng.permutation(p)[:n_sig])
    s = np.zeros(p)
    s[signal] = 1.0
    c_sig = cfg.effective_signal()

    eps = _draw_noise(n, p, chol, cfg.noise_rho, cfg.model == 4, rng)

    y = c_sig * np.outer(a, s) + eps
    if cfg.model != 1:
        y += x[:, None]

    if cfg.model in (1, 2):
        miss = rng.random((n, p)) < cfg.mcar_prob
    else:
        miss = rng.random((n, p)) < mar_missing_prob(x)[:, None]
    mask = (~miss).astype(np.int8)

    w_cols = [np.ones(n), a] if cfg.model == 1 else [np.ones(n), a, x]
    names = ("intercept", "a") if cfg.model == 1 else ("intercept", "a", "x")
    d = Dataset(
        y_obs=np.where(mask == 1, y, np.nan),
        mask=mask,
        w=np.column_stack(w_cols),
        peptide_ids=tuple(f"pep{j}" for j in range(p)),
        sample_ids=tuple(str(i) for i in range(n)),
        covariate_names=names,
    )
    return d, SimTruth(y_full=y, signal_set=signal, a=a, x=x, beta_a=c_sig)


def fdr_tpr(selected: np.ndarray, signal_set: np.ndarray):
    """FDR (0 when nothing is discovered) and TPR against the signal set."""
    sel = set(np.asarray(selected, dtype=int).tolist())
    sig = set(np.asarray(signal_set, dtype=int).tolist())
    if not sel:
        fdr = 0.0
    else:
        fdr = len(sel - sig) / len(sel)
    tpr = len(sel & sig) / len(sig) if sig else float("nan")
    return fdr, tpr


@dataclass
class BenchResult:
    """FDR/TPR per (method, cutoff) over repetitions, plus raw betas."""

    cfg: SimConfig
    methods: tuple
    cutoffs: tuple
    fdr: dict  # (method, cutoff) -> ndarray of per-rep values
    tpr: dict
    betas: dict  # method -> (reps, p) array, NaN where skipped
    failed_reps: list

    def summary(self):
        rows = []
        for m in self.methods:
            for cut in self.cutoffs:
                for metric, store in (("fdr", self.fdr), ("tpr", self.tpr)):
                    vals = store[(m, cut)]
                    mc_se = (
                        float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
                        if len(vals) > 1
                        else float("nan")
                    )
                    rows.append(
                        {
                            "method": m.value,
                            "cutoff": cut,
                            "metric": metric,
                            "value": float(np.mean(vals)) if len(vals) else float("nan"),
                            "mc_se": mc_se,
                        }
                    )
        return rows

    def to_csv(self, path):
        cols = ["method", "cutoff", "metric", "value", "mc_se"]
        _write_csv(path, cols, ([row[c] for c in cols] for row in self.summary()))


def _run_rep(cfg: SimConfig, rep: int, methods, inf_cfg: InferenceConfig, chol=None):
    d, truth = gen_dataset(cfg, rep, chol)
    ests = dr_inference.infer_methods(d, methods, inf_cfg, oracle=truth.y_full)

    out = {}
    for m, est in ests.items():
        cols = np.flatnonzero(est.kept)
        q = multiple_testing.bh_qvalues(est.p_value[cols])
        per_cut = {}
        for cut in cfg.cutoffs:
            sel = cols[multiple_testing.select(q, cut)]
            per_cut[cut] = fdr_tpr(sel, truth.signal_set)
        out[m] = (per_cut, est.beta)
    return out


def run_benchmark(
    cfg: SimConfig,
    methods: Sequence[MethodKind],
    inf_cfg: InferenceConfig = None,
    threads: int = 0,
) -> BenchResult:
    """Generate, analyze, and score every repetition.

    Each repetition owns a seed substream derived from (seed, rep), so the
    result is identical for any thread count.  A ``cov_csv`` covariance is
    factored once and shared read-only; AR(1) noise needs no factor.  A
    covariance that cannot be used is refused before any repetition runs; an
    imputer size setting above n or p is a cap, not a refusal.  A repetition
    that raises DataError or NumericalError is recorded in ``failed_reps``,
    with threads as without.
    """
    if threads < 0:
        raise DataError(f"threads must be >= 0, got {threads}")
    methods = tuple(methods)
    _refuse_repeats("method", [m.value for m in methods])
    inf_cfg = inf_cfg or InferenceConfig(target="a")
    chol = _noise_factor(cfg)

    def work(rep):
        try:
            return _run_rep(cfg, rep, methods, inf_cfg, chol), None
        except (DataError, NumericalError) as exc:
            return None, (rep, str(exc))

    reps = range(cfg.reps)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            outcomes = list(ex.map(work, reps))
    else:
        outcomes = [work(rep) for rep in reps]
    results = [res for res, _ in outcomes]
    failed = [why for _, why in outcomes if why is not None]

    fdr = {(m, c): [] for m in methods for c in cfg.cutoffs}
    tpr = {(m, c): [] for m in methods for c in cfg.cutoffs}
    betas = {m: [] for m in methods}
    for res in results:
        if res is None:
            continue
        for m in methods:
            per_cut, b = res[m]
            betas[m].append(b)
            for cut in cfg.cutoffs:
                f, t = per_cut[cut]
                fdr[(m, cut)].append(f)
                tpr[(m, cut)].append(t)
    return BenchResult(
        cfg=cfg,
        methods=methods,
        cutoffs=tuple(cfg.cutoffs),
        fdr={k: np.array(v) for k, v in fdr.items()},
        tpr={k: np.array(v) for k, v in tpr.items()},
        betas={m: np.array(v) for m, v in betas.items()},
        failed_reps=failed,
    )


def toy_power_experiment(
    rho_grid: Sequence[float],
    n: int = 200,
    beta: float = 0.2,
    delta: float = 0.7,
    reps: int = 5000,
    alpha: float = 0.05,
    seed: int = 0,
):
    """Rejection frequency of beta=0 for the W and UW pseudo-outcomes.

    Outcome Y = beta*W + e and auxiliary U = beta*W + e_u with
    Cor(e, e_u) = rho; observation is Bernoulli(delta) with delta known, and
    the oracle conditional means are used for both pseudo-outcomes.
    Vectorized over repetitions.  The test is the sandwich z-test of
    ``infer_columns``.  A repetition with no observed sample (its
    pseudo-outcome is the conditional mean alone, for W exactly beta*W with
    an se of rounding noise or 0) or whose se is 0 is left out of that
    method's power and MC-SE, which are NaN if no repetition is left.
    """
    multiple_testing.check_alpha(alpha)
    if reps < 1:
        raise DataError(f"reps must be >= 1, got {reps}")
    if n < 2:
        raise DataError(f"n must be >= 2, got {n}")
    if not 0.0 < delta <= 1.0:
        raise DataError(f"delta must be in (0, 1], got {delta:g}")
    if not np.isfinite(beta):
        raise DataError(f"beta must be finite, got {beta:g}")
    rows = []
    for rho in rho_grid:
        if not 0.0 <= rho <= 1.0:
            raise DataError("rho must be in [0, 1]")
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, int(round(rho * 1e6))])
        )
        w = rng.standard_normal((reps, n))
        e = rng.standard_normal((reps, n))
        e_u = rho * e + np.sqrt(max(1.0 - rho**2, 0.0)) * rng.standard_normal(
            (reps, n)
        )
        y = beta * w + e
        u = beta * w + e_u
        c = (rng.random((reps, n)) < delta).astype(float)

        mu = beta * w  # E[Y | W]
        nu = beta * w + rho * (u - beta * w)  # E[Y | W, U]
        power, seen = {}, c.any(axis=1)
        for tag, cond in (("w", mu), ("uw", nu)):
            y_tilde = dr_inference.pseudo_outcomes(y, c, delta, cond).y_tilde
            sww = (w**2).sum(axis=1)
            bhat = (w * y_tilde).sum(axis=1) / sww
            r = y_tilde - bhat[:, None] * w
            var = ((r**2) * (w**2)).sum(axis=1) / sww**2
            _, pval, degenerate = dr_inference._p_values(bhat, np.sqrt(var), "sandwich", None)
            power[tag] = pval[seen & ~degenerate] < alpha
        for tag in ("w", "uw"):
            rej, pw, se = power[tag], float("nan"), float("nan")
            if rej.size:
                pw = float(rej.mean())
                se = float(np.sqrt(pw * (1.0 - pw) / rej.size))
            rows.append({"method": tag, "rho": float(rho), "power": pw, "mc_se": se})
    return rows


def toy_power_to_csv(rows, path):
    cols = ["method", "rho", "power", "mc_se"]
    _write_csv(path, cols, ([row[c] for c in cols] for row in rows))
