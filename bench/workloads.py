"""Workload definitions and input generation.

Every input comes from drpi's own model-3 MAR generator under the run's
seed.  The analyze workloads get CSV files written here, before the timed
loop; simulate-desk generates inside the op, as ``drpi simulate`` does.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

ALPHA = 0.05  # the CLI's default BH level
TARGET_COL = 1  # "a" in W = [intercept, a, x]
CROSS_FIT_FOLDS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "analyze": CLI on CSVs; "simulate": run_benchmark in memory
    n: int
    p: int
    pool: int  # distinct datasets written in set-up (analyze only); each runs at least once
    imputer: str  # the backend the op uses
    flags: tuple = ()  # extra `drpi analyze` flags
    methods: int = 1  # estimators per column in one op

    @property
    def tests_per_op(self) -> int:
        return self.p * self.methods

    @property
    def cross_fit(self) -> bool:
        return "--cross-fit" in self.flags


# Why each workload exists is in README.md; the shapes are chosen so that a
# 20 s run holds enough ops for a steady median (see README.md, Steadiness).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-soft", "analyze", n=200, p=30, pool=100, imputer="soft"),
        Workload("analyze-wide", "analyze", n=200, p=1000, pool=4, imputer="lowdim",
                 flags=("--imputer", "lowdim")),
        Workload("simulate-desk", "simulate", n=200, p=300, pool=0, imputer="knn", methods=6),
        Workload("crossfit", "analyze", n=200, p=120, pool=30, imputer="lowdim",
                 flags=("--cross-fit", str(CROSS_FIT_FOLDS), "--imputer", "lowdim")),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a shape that runs in well under a second."""
    return replace(w, n=60, p=20, pool=min(w.pool, 2))


def sim_config(drpi, w: Workload, seed: int):
    return drpi.SimConfig(model=3, n=w.n, p=w.p, reps=1, seed=seed)


def op_seed(seed: int, op: int) -> int:
    """simulate-desk's per-op generator seed, derived from the run seed."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def write_inputs(drpi, w: Workload, seed: int, out_dir):
    """Write the analyze pool: CSVs for the program, truth for the gate."""
    for k in range(w.pool):
        d, truth = drpi.gen_dataset(sim_config(drpi, w, seed), rep=k)
        drpi.write_dataset(d, out_dir / f"outcomes{k}.csv", out_dir / f"covariates{k}.csv")
        np.savez(
            out_dir / f"truth{k}.npz",
            y_full=truth.y_full,
            mask=d.mask,
            w=d.w,
            signal=truth.signal_set,
            beta_a=truth.beta_a,
            peptide_ids=np.array(d.peptide_ids),
        )


@dataclass(frozen=True)
class Truth:
    """What the generator knows and the program never sees."""

    y_full: np.ndarray
    mask: np.ndarray
    w: np.ndarray
    signal: np.ndarray
    beta_a: float
    column: dict  # peptide id -> column index

    @classmethod
    def from_npz(cls, path):
        with np.load(path) as z:
            return cls(
                y_full=z["y_full"],
                mask=z["mask"],
                w=z["w"],
                signal=z["signal"],
                beta_a=float(z["beta_a"]),
                column={pid: j for j, pid in enumerate(z["peptide_ids"].tolist())},
            )

    @classmethod
    def from_sim(cls, d, truth):
        return cls(
            y_full=truth.y_full,
            mask=d.mask,
            w=d.w,
            signal=truth.signal_set,
            beta_a=truth.beta_a,
            column={pid: j for j, pid in enumerate(d.peptide_ids)},
        )

    @property
    def y_obs(self):
        """Observed outcomes with NaN at masked cells, so no check reads them."""
        return np.where(self.mask == 1, self.y_full, np.nan)

    def observed_ids(self):
        """Columns with at least one observed cell."""
        return [pid for pid, j in self.column.items() if self.mask[:, j].any()]

    def dataset(self, drpi):
        """The Dataset the program loads from this input's CSVs."""
        ids = sorted(self.column, key=self.column.get)
        return drpi.Dataset(
            y_obs=self.y_obs, mask=self.mask, w=self.w, peptide_ids=tuple(ids),
            sample_ids=tuple(str(i) for i in range(self.mask.shape[0])),
            covariate_names=("intercept", "a", "x"),
        )

    def true_beta(self) -> np.ndarray:
        b = np.zeros(self.y_full.shape[1])
        b[self.signal] = self.beta_a
        return b
