"""Command-line entry point: drpi analyze | simulate | toy-power."""
from __future__ import annotations

import argparse
import ctypes
import functools
import logging
import platform
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__, dr_inference, imputers, multiple_testing, sim_bench
from .data_model import (
    MethodKind, _kept_rows, _write_csv, filter_by_rate, load_dataset, write_results,
)
from .dr_inference import InferenceConfig
from .errors import DataError, NumericalError
from .imputers import ImputerConfig

log = logging.getLogger("drpi")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract wants 1
    def error(self, message):
        raise _UsageError(message)


# sizes a --preset pins; explicit --n, --p and --reps override them
_PRESETS = {"": {}, "desk": {"n": 200, "p": 300, "reps": 100}, "paper": {"p": 1000, "reps": 200}}


def _add_common(sp):
    sp.add_argument("--config", help="flat key=value config file; flags override")
    sp.add_argument(
        "--quiet", action="store_true", default=False, help="suppress progress logging"
    )
    sp.add_argument("--log-level", default="info")


def _add_imputer(sp, backends):
    sp.add_argument("--imputer", dest="backend", choices=backends)
    sp.add_argument("--imputer-lambda", dest="rank_penalty", type=float)
    sp.add_argument("--imputer-rank", dest="max_rank", type=int)
    sp.add_argument("--imputer-k", dest="k_neighbors", type=int)


@functools.cache
def build_parser() -> _Parser:
    """A flag whose dest is a library field or parameter states no default:
    each subcommand's ``argument_default`` leaves it out of the namespace
    unless given, so the library's own default applies.  Flags that only the
    command reads state theirs here.

    Built once per process and shared by every call (``parse_args`` returns
    a fresh namespace each time), so callers must not mutate it."""
    parser = _Parser(prog="drpi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"drpi {__version__}")
    sub = parser.add_subparsers(dest="subcommand")
    add = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    an = add("analyze", help="per-peptide inference on CSVs")
    an.add_argument("--outcomes", required=True)
    an.add_argument("--covariates", required=True)
    an.add_argument("--target", required=True, help="covariate of interest by name")
    an.add_argument("--out", required=True)
    an.add_argument(
        "--method",
        default="dr_uw",
        choices=[m.value for m in MethodKind if m is not MethodKind.FULL],
    )
    _add_imputer(an, imputers.BACKENDS)
    an.add_argument(
        "--external-nu",
        dest="external_path",
        help="fitted means; with --obs-threshold, of the feed set",
    )
    an.add_argument("--alpha", type=float, default=0.05)
    an.add_argument("--missing-token")
    an.add_argument("--mask", default=None, help="optional 0/1 mask CSV")
    an.add_argument("--no-intercept", action="store_true", default=False)
    an.add_argument("--obs-threshold", type=float, default=0.0)
    an.add_argument("--feed-threshold", type=float, help="observation rate to feed the imputer")
    an.add_argument("--variance", dest="variance_mode", choices=dr_inference.VARIANCE_MODES)
    an.add_argument("--cross-fit", type=int, default=0, metavar="K")
    an.add_argument("--prop-tol", type=float)
    an.add_argument("--prop-max-iter", type=int)
    an.add_argument("--prop-clip", type=float)
    an.add_argument("--volcano", default="", help="also write volcano-plot CSV here")
    _add_common(an)

    si = add("simulate", help="FDR/TPR benchmark on synthetic data")
    si.add_argument("--model", type=int, choices=[1, 2, 3, 4])
    si.add_argument("--n", type=int)
    si.add_argument("--p", type=int)
    si.add_argument("--reps", type=int)
    si.add_argument("--seed", type=int)
    si.add_argument("--signal-frac", type=float)
    si.add_argument("--signal-c", type=float)
    si.add_argument("--cov-rho", dest="noise_rho", type=float)
    si.add_argument("--cov-csv")
    si.add_argument("--mcar-prob", type=float)
    si.add_argument(
        "--methods",
        type=_list_of("--methods", MethodKind),
        default="full,complete,plugin,plugin_missing,dr_w,dr_uw",
    )
    si.add_argument("--cutoffs", type=_list_of("--cutoffs", float))
    _add_imputer(si, [b for b in imputers.BACKENDS if b != "external"])
    si.add_argument(
        "--preset",
        default="",
        choices=list(_PRESETS),
        help="; ".join(
            f"{name}: " + " ".join(f"{k}={v}" for k, v in sizes.items())
            for name, sizes in _PRESETS.items()
            if name
        ),
    )
    si.add_argument("--out", required=True)
    si.add_argument("--threads", type=int, default=0, help="0 = single-threaded")
    _add_common(si)

    tp = add("toy-power", help="power of W vs UW pseudo-outcomes")
    tp.add_argument(
        "--rho", type=_parse_rho_grid, default="0.1:1.0:0.1", help="start:stop:step grid"
    )
    tp.add_argument("--n", type=int)
    tp.add_argument("--beta", type=float)
    tp.add_argument("--delta", type=float)
    tp.add_argument("--reps", type=int)
    tp.add_argument("--alpha", type=float)
    tp.add_argument("--seed", type=int)
    tp.add_argument("--out", required=True)
    _add_common(tp)
    return parser


@functools.cache
def _config_probe() -> _Parser:
    """Finds --config before the full parse; shared like ``build_parser``."""
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    return probe


def _apply_config_file(argv):
    """Apply key=value defaults from --config; precedence flag > file > default."""
    known, _ = _config_probe().parse_known_args(argv)
    if not known.config:
        return argv
    overrides = {}
    with open(known.config, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"config line {line_no}: expected key=value")
            key, val = line.split("=", 1)
            overrides[key.strip().replace("-", "_")] = val.strip()
    # re-insert file values as flags ahead of the explicit ones
    extra = []
    for key, val in overrides.items():
        flag = "--" + key.replace("_", "-")
        if val.lower() in ("true", "false"):
            if val.lower() == "true":
                extra.append(flag)
        else:
            extra.extend([flag, val])
    sub = argv[0] if argv and not argv[0].startswith("-") else None
    rest = argv[1:] if sub else argv
    return ([sub] if sub else []) + extra + rest


def _parse_list(flag, tokens, convert=float):
    """``convert`` of each token; a bad token is a DataError that names it."""
    out = []
    for tok in tokens:
        try:
            out.append(convert(tok.strip()))
        except ValueError:
            raise DataError(f"{flag}: bad value {tok!r}") from None
    return out


def _list_of(flag, convert):
    """argparse ``type`` for a comma-separated list flag."""
    return lambda spec: tuple(_parse_list(flag, spec.split(","), convert))


def _parse_rho_grid(spec: str):
    if ":" in spec:
        bounds = _parse_list("--rho", spec.split(":"))
        if len(bounds) != 3 or not np.isfinite(bounds).all():
            raise DataError(f"--rho: expected finite start:stop:step, got {spec!r}")
        start, stop, step = bounds
        if not step > 0:
            raise DataError(f"--rho: grid step must be positive, got {step:g}")
        grid = np.arange(start, stop + step / 2, step)
    else:
        grid = np.array(_parse_list("--rho", spec.split(",")))
    return np.round(grid, 10)


def _given(args, names):
    """The flags among ``names`` (dests) that the user gave; a flag left out
    takes the library's default."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _config(cls, args, **base):
    """Dataclass ``cls`` from the given flags named after its fields, over ``base``."""
    return cls(**{**base, **_given(args, [f.name for f in fields(cls)])})


def _cmd_analyze(args) -> int:
    if (getattr(args, "backend", "") == "external") != bool(getattr(args, "external_path", "")):
        raise DataError("--external-nu and --imputer external must be given together")
    cfg = _config(InferenceConfig, args, imputer=_config(ImputerConfig, args))
    for flag, rate in _given(args, ("obs_threshold", "feed_threshold")).items():
        if not 0.0 <= rate <= 1.0:
            raise DataError(f"--{flag.replace('_', '-')} must be in [0, 1], got {rate:g}")
    if hasattr(args, "feed_threshold") and not args.obs_threshold > 0:
        raise DataError("--feed-threshold has no effect without a positive --obs-threshold")
    method = MethodKind(args.method)
    multiple_testing.check_alpha(args.alpha)
    d = load_dataset(
        args.outcomes,
        args.covariates,
        mask_path=args.mask,
        add_intercept=not args.no_intercept,
        **_given(args, ("missing_token",)),
    )
    nu_hat = None
    if args.obs_threshold > 0:
        loaded = d.p
        d, d_feed = filter_by_rate(d, args.obs_threshold, **_given(args, ("feed_threshold",)))
        log.info("kept %d/%d columns for inference", d.p, loaded)
        if not args.cross_fit and dr_inference._METHODS[method].nu == "imputer":
            # impute on the wider feed set, infer on the kept columns
            feed = imputers.impute(d_feed, cfg.imputer)
            inferred = np.isin(d_feed.peptide_ids, d.peptide_ids)
            nu_hat = replace(feed, nu_hat=feed.nu_hat[:, inferred])
    est = dr_inference.infer_columns(d, method, cfg, nu_hat=nu_hat, folds=args.cross_fit)
    for pid, reason in zip(d.peptide_ids, est.skip_reason):
        if reason:
            log.warning("skipped %s: %s", pid, reason)
    kept = np.flatnonzero(est.kept)
    if not kept.size:
        raise DataError("no column produced an inference result")
    q = multiple_testing.bh_qvalues(est.p_value[kept])
    selected = multiple_testing.select(q, args.alpha)
    write_results(d.peptide_ids, method, est, q, selected, args.out)
    mirror = multiple_testing.mirror_rate(est.beta[kept], selected)
    log.info(
        "%d results, %d selected at alpha=%g (mirror rate %s)",
        kept.size,
        selected.size,
        args.alpha,
        "undefined" if mirror is None else f"{mirror:.3f}",
    )
    if args.volcano:
        emit_volcano_data(d.peptide_ids, est, q, selected, args.volcano)
    return 0


def emit_volcano_data(peptide_ids, est, q_values, selected, path):
    """CSV of (peptide_id, beta, -log10 q, selected, capped) for the kept
    columns of ``est``, from the arguments ``write_results`` takes; q=0
    capped at 300, and q=1 written as 0.0, not -0.0."""
    kept, ids, flags = _kept_rows(peptide_ids, est, selected)
    if not kept.size:
        raise DataError("no results to export")
    q = np.asarray(q_values, dtype=float)
    capped = q == 0.0
    with np.errstate(divide="ignore"):
        neg_log10_q = np.where(capped, 300.0, -np.log10(q) + 0.0)
    _write_csv(path, ["peptide_id", "beta", "neg_log10_q", "selected", "capped"], zip(
        ids, est.beta[kept].tolist(), neg_log10_q.tolist(), flags, capped.astype(int).tolist(),
    ))


def _cmd_simulate(args) -> int:
    cfg = _config(sim_bench.SimConfig, args, **_PRESETS[args.preset])
    inf_cfg = _config(InferenceConfig, args, target="a", imputer=_config(ImputerConfig, args))
    result = sim_bench.run_benchmark(cfg, args.methods, inf_cfg, threads=args.threads)
    for rep, why in result.failed_reps:
        log.warning("repetition %d failed: %s", rep, why)
    if len(result.failed_reps) == cfg.reps:
        rep, why = result.failed_reps[0]
        raise DataError(f"all {cfg.reps} repetitions failed; repetition {rep}: {why}")
    result.to_csv(args.out)
    log.info("wrote %s (%d reps, %d failed)", args.out, cfg.reps, len(result.failed_reps))
    return 0


def _cmd_toy_power(args) -> int:
    params = ("n", "beta", "delta", "reps", "alpha", "seed")
    rows = sim_bench.toy_power_experiment(args.rho, **_given(args, params))
    sim_bench.toy_power_to_csv(rows, args.out)
    log.info("wrote %s", args.out)
    return 0


@functools.cache
def _keep_freed_memory():
    """Let glibc keep freed blocks of up to 32 MiB for reuse.

    Every batched step makes (n, p) float temporaries.  Under glibc's
    defaults a freed block above the dynamic mmap threshold (128 KiB at
    start) is unmapped and the heap top is trimmed, so the next temporary
    is page-faulted back in.  Both thresholds are set: setting either one
    turns the dynamic mmap threshold off.  Process-wide, so only the
    command sets it, never ``import drpi``; a no-op on other C libraries.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap-allocate blocks up to 32 MiB
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MiB free at the heap top


def parse_and_dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"drpi: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # an unreadable or bad --config, a bad list-flag value
        print(f"drpi: data error: {exc}", file=sys.stderr)
        return 2
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    # basicConfig installs the stderr handler once per process; the level is
    # set on drpi's own logger so every call's --quiet/--log-level applies
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(
        logging.ERROR if args.quiet else getattr(logging, args.log_level.upper(), logging.INFO)
    )
    handler = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "toy-power": _cmd_toy_power,
    }[args.subcommand]
    _keep_freed_memory()
    try:
        return handler(args)
    except (DataError, OSError) as exc:
        print(f"drpi: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"drpi: numerical failure: {exc}", file=sys.stderr)
        return 3


def main():
    raise SystemExit(parse_and_dispatch())


if __name__ == "__main__":
    main()
