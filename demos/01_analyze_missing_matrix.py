"""Analyze a peptide matrix with missing values, end to end.

Builds a small synthetic case/control dataset, writes it to CSV, and runs
the doubly robust pipeline the same way the CLI does: load, impute, build
pseudo-outcomes, test each column, and adjust with Benjamini-Hochberg.
"""
import pathlib
import tempfile

import numpy as np

from drpi import (
    InferenceConfig,
    ImputerConfig,
    MethodKind,
    bh_qvalues,
    infer_columns,
    load_dataset,
    select,
    write_results,
)

rng = np.random.default_rng(7)
n, p = 60, 25

a = (np.arange(n) % 2).astype(float)          # case/control labels
x = rng.uniform(size=n)                        # nuisance covariate
effects = np.zeros(p)
effects[:5] = 1.2                              # five true signal peptides
y = np.outer(a, effects) + x[:, None] + rng.normal(size=(n, p))
observed = rng.random((n, p)) > 0.25           # ~25% missing at random
observed[0] = True

workdir = pathlib.Path(tempfile.mkdtemp())
with open(workdir / "outcomes.csv", "w") as fh:
    fh.write(",".join(f"pep{j}" for j in range(p)) + "\n")
    for i in range(n):
        fh.write(",".join(repr(float(y[i, j])) if observed[i, j] else ""
                          for j in range(p)) + "\n")
with open(workdir / "covariates.csv", "w") as fh:
    fh.write("a,x\n")
    for i in range(n):
        fh.write(f"{float(a[i])!r},{float(x[i])!r}\n")

d = load_dataset(workdir / "outcomes.csv", workdir / "covariates.csv")
print(f"loaded {d.n} samples x {d.p} peptides, "
      f"{1 - d.mask.mean():.0%} cells missing")

cfg = InferenceConfig(target="a", imputer=ImputerConfig(backend="soft"))
est = infer_columns(d, MethodKind.DR_UW, cfg)  # one array entry per column
kept = est.kept.nonzero()[0]                     # the columns not skipped
q = bh_qvalues(est.p_value[kept])                # BH across the kept columns
selected = select(q, alpha=0.05)                 # indices into kept

write_results(d.peptide_ids, MethodKind.DR_UW, est, q, selected, workdir / "results.csv")
print(f"{kept.size} columns tested, {d.p - kept.size} skipped")
print(f"{selected.size} discoveries at q <= 0.05:")
for k in selected:
    j = kept[k]
    print(f"  {d.peptide_ids[j]}: beta={est.beta[j]:+.3f}  q={q[k]:.4f}")
print("results written to", workdir / "results.csv")
