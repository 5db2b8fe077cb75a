"""Command-line entry point: drpi analyze | simulate | toy-power."""
from __future__ import annotations

import argparse
import ctypes
import functools
import logging
import platform
import sys
from dataclasses import replace

import numpy as np

from . import __version__, dr_inference, imputers, multiple_testing, sim_bench
from .data_model import MethodKind, _write_csv, filter_by_rate, load_dataset, write_results
from .dr_inference import InferenceConfig
from .errors import DataError, NumericalError
from .imputers import ImputerConfig

log = logging.getLogger("drpi")

_IMPUTER_FLAGS = ("mean", "lowdim", "soft", "knn", "knn2", "external")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _add_common(sp):
    sp.add_argument("--config", help="flat key=value config file; flags override")
    sp.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sp.add_argument("--log-level", default="info")


def build_parser() -> _Parser:
    parser = _Parser(prog="drpi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"drpi {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    an = sub.add_parser("analyze", parents=[], help="per-peptide inference on CSVs")
    an.add_argument("--outcomes", required=True)
    an.add_argument("--covariates", required=True)
    an.add_argument("--target", required=True, help="covariate of interest by name")
    an.add_argument("--out", required=True)
    an.add_argument(
        "--method",
        default="dr_uw",
        choices=[m.value for m in MethodKind if m is not MethodKind.FULL],
    )
    an.add_argument("--imputer", default="soft", choices=_IMPUTER_FLAGS)
    an.add_argument("--imputer-lambda", type=float, default=float("nan"))
    an.add_argument("--imputer-rank", type=int, default=10)
    an.add_argument("--imputer-k", type=int, default=10)
    an.add_argument(
        "--external-nu", default="", help="fitted means; with --obs-threshold, of the feed set"
    )
    an.add_argument("--alpha", type=float, default=0.05)
    an.add_argument("--missing-token", default="")
    an.add_argument("--mask", default=None, help="optional 0/1 mask CSV")
    an.add_argument("--no-intercept", action="store_true")
    an.add_argument("--obs-threshold", type=float, default=0.0)
    an.add_argument(
        "--feed-threshold", type=float, default=0.2, help="observation rate to feed the imputer"
    )
    an.add_argument("--variance", default="", choices=["", "sandwich", "homoskedastic"])
    an.add_argument("--cross-fit", type=int, default=0, metavar="K")
    an.add_argument("--prop-tol", type=float, default=1e-8)
    an.add_argument("--prop-max-iter", type=int, default=100)
    an.add_argument("--prop-clip", type=float, default=0.01)
    an.add_argument("--volcano", default="", help="also write volcano-plot CSV here")
    _add_common(an)

    si = sub.add_parser("simulate", help="FDR/TPR benchmark on synthetic data")
    si.add_argument("--model", type=int, default=3, choices=[1, 2, 3, 4])
    si.add_argument("--n", type=int, default=200)
    si.add_argument("--p", type=int, default=300)
    si.add_argument("--reps", type=int, default=100)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--signal-frac", type=float, default=0.1)
    si.add_argument("--signal-c", type=float, default=float("nan"))
    si.add_argument("--cov-rho", type=float, default=0.5)
    si.add_argument("--cov-csv", default="")
    si.add_argument("--mcar-prob", type=float, default=0.3)
    si.add_argument(
        "--methods", default="full,complete,plugin,plugin_missing,dr_w,dr_uw"
    )
    si.add_argument("--cutoffs", default="0.05")
    si.add_argument("--imputer", default="soft", choices=_IMPUTER_FLAGS[:-1])
    si.add_argument("--imputer-lambda", type=float, default=float("nan"))
    si.add_argument("--imputer-rank", type=int, default=10)
    si.add_argument("--imputer-k", type=int, default=10)
    si.add_argument(
        "--preset",
        default="",
        choices=["", "desk", "paper"],
        help="desk: n=200 p=300 reps=100; paper: p=1000 reps=200",
    )
    si.add_argument("--out", required=True)
    si.add_argument("--threads", type=int, default=0, help="0 = single-threaded")
    _add_common(si)

    tp = sub.add_parser("toy-power", help="power of W vs UW pseudo-outcomes")
    tp.add_argument("--rho", default="0.1:1.0:0.1", help="start:stop:step grid")
    tp.add_argument("--n", type=int, default=200)
    tp.add_argument("--beta", type=float, default=0.2)
    tp.add_argument("--delta", type=float, default=0.7)
    tp.add_argument("--reps", type=int, default=5000)
    tp.add_argument("--alpha", type=float, default=0.05)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--out", required=True)
    _add_common(tp)
    return parser


def _apply_config_file(parser, argv):
    """Apply key=value defaults from --config; precedence flag > file > default."""
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    overrides = {}
    with open(known.config) as fh:
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


def _imputer_cfg(args) -> ImputerConfig:
    return ImputerConfig(
        backend=args.imputer,
        rank_penalty=args.imputer_lambda,
        max_rank=args.imputer_rank,
        k_neighbors=args.imputer_k,
        external_path=getattr(args, "external_nu", ""),
    )


def _cmd_analyze(args) -> int:
    if (args.imputer == "external") != bool(args.external_nu):
        raise DataError("--external-nu and --imputer external must be given together")
    for flag in ("obs_threshold", "feed_threshold"):
        rate = getattr(args, flag)
        if not 0.0 <= rate <= 1.0:
            raise DataError(f"--{flag.replace('_', '-')} must be in [0, 1], got {rate:g}")
    method = MethodKind(args.method)
    multiple_testing.check_alpha(args.alpha)
    cfg = InferenceConfig(
        target=args.target,
        variance_mode=args.variance,
        prop_tol=args.prop_tol,
        prop_max_iter=args.prop_max_iter,
        prop_clip=args.prop_clip,
        imputer=_imputer_cfg(args),
    )
    d = load_dataset(
        args.outcomes,
        args.covariates,
        missing_token=args.missing_token,
        mask_path=args.mask,
        add_intercept=not args.no_intercept,
    )
    nu_hat = None
    if args.obs_threshold > 0:
        d, d_feed = filter_by_rate(d, args.obs_threshold, args.feed_threshold)
        log.info("kept %d/%d columns for inference", d.p, d_feed.p)
        if not args.cross_fit and dr_inference._needs_augmented(method):
            # impute on the wider feed set, infer on the kept columns
            feed = imputers.impute(d_feed, cfg.imputer)
            kept = np.isin(d_feed.peptide_ids, d.peptide_ids)
            nu_hat = replace(feed, nu_hat=feed.nu_hat[:, kept])
    results, skips = dr_inference.infer_all(d, method, cfg, nu_hat=nu_hat, folds=args.cross_fit)
    for rec in skips:
        log.warning("skipped %s: %s", rec.peptide_id, rec.reason)
    if not results:
        raise DataError("no column produced an inference result")
    selection = multiple_testing.adjust(results, args.alpha)
    write_results(results, args.out)
    log.info(
        "%d results, %d selected at alpha=%g (mirror rate %s)",
        len(results),
        len(selection.selected),
        args.alpha,
        "undefined" if selection.mirror_rate is None else f"{selection.mirror_rate:.3f}",
    )
    if args.volcano:
        emit_volcano_data(results, args.volcano)
    return 0


def emit_volcano_data(results, path):
    """CSV of (peptide_id, beta, -log10 q, selected); q=0 capped at 300."""
    if not results:
        raise DataError("no results to export")
    rows = []
    for r in results:
        capped = r.q_value == 0.0
        val = 300.0 if capped else -float(np.log10(r.q_value))
        rows.append([r.peptide_id, r.beta, val, int(r.selected), int(capped)])
    _write_csv(path, ["peptide_id", "beta", "neg_log10_q", "selected", "capped"], rows)


def _cmd_simulate(args) -> int:
    n, p, reps = args.n, args.p, args.reps
    if args.preset == "desk":
        n, p, reps = 200, 300, 100
    elif args.preset == "paper":
        p, reps = 1000, 200
    cutoffs = tuple(_parse_list("--cutoffs", args.cutoffs.split(",")))
    methods = tuple(_parse_list("--methods", args.methods.split(","), MethodKind))
    cfg = sim_bench.SimConfig(
        model=args.model,
        n=n,
        p=p,
        signal_frac=args.signal_frac,
        signal_c=args.signal_c,
        noise_rho=args.cov_rho,
        cov_csv=args.cov_csv,
        mcar_prob=args.mcar_prob,
        seed=args.seed,
        reps=reps,
        cutoffs=cutoffs,
    )
    inf_cfg = InferenceConfig(target="a", imputer=_imputer_cfg(args))
    result = sim_bench.run_benchmark(cfg, methods, inf_cfg, threads=args.threads)
    for rep, why in result.failed_reps:
        log.warning("repetition %d failed: %s", rep, why)
    if len(result.failed_reps) == reps:
        rep, why = result.failed_reps[0]
        raise DataError(f"all {reps} repetitions failed; repetition {rep}: {why}")
    result.to_csv(args.out)
    log.info("wrote %s (%d reps, %d failed)", args.out, reps, len(result.failed_reps))
    return 0


def _cmd_toy_power(args) -> int:
    rows = sim_bench.toy_power_experiment(
        _parse_rho_grid(args.rho),
        n=args.n,
        beta=args.beta,
        delta=args.delta,
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
    )
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
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"drpi: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"drpi: error: {exc}", file=sys.stderr)
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
