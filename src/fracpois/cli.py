"""Command-line front end: evaluation, sampling and verification.

Exit codes: 0 success, 1 usage error (a bad flag, a value that the
library rejects with ValueError, or a file that cannot be read or
written), 2 numerical non-convergence, 3 statistical test failure.  The
library checks its own inputs; ``main`` is the one place where its errors
become exit codes 1 and 2, and nothing is written on either.  An
``--out`` file that cannot be opened is exit 1 before any work.  Output is
CSV (header row, LF endings) or a single JSON object with "meta" and
"rows"; floats are printed in their shortest round-trip form.

``main(argv)`` may be called many times in one process: it builds its
parser on the first call and reuses it, so each later call pays only for
its own request.  A shell invocation builds the parser once, as before.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

import numpy as np

from . import __version__, dist, sample, verify
from .dist import ProcessParams
from .sample import RngStream
from .special_fn import NonConvergence, SeriesConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_STATFAIL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract reserves 2 for
    # numerical non-convergence, so route usage problems through code 1.
    def error(self, message):
        raise ValueError(message)


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))    # numpy floats repr as np.float64(...)
    return str(value)


def _check_out(out):
    """Raise, before any work, the OSError that opening the file ``out``
    for writing would raise where its folder is missing, where it is a
    folder or where it may not be written.  It creates nothing, so a
    command that fails later leaves no file behind."""
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        code = errno.ENOENT
    elif os.path.isdir(out):
        code = errno.EISDIR
    elif not os.access(out if os.path.exists(out) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), out)


def _write(parts, out):
    """Write the strings ``parts`` to the file ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _emit(rows, meta, fmt, out):
    if fmt == "json":
        text = json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"
    elif rows:
        keys = list(rows[0].keys())
        lines = [",".join(keys)] + [",".join(_fmt(row[key]) for key in keys)
                                    for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = ""
    _write([text], out)


# counts formatted per block, so that no string of the whole output is held
_COUNT_BLOCK = 1 << 16


def _emit_counts(counts, meta, fmt, out):
    """``_emit`` of the rows {"count": c}, written straight from the
    integer array: the same bytes without a dict per count."""
    if fmt == "json":
        # json.dumps(..., indent=2) of {"meta": meta, "rows": rows}
        head = (json.dumps({"meta": meta}, indent=2)[:-2]
                + ',\n  "rows": [\n    {\n      "count": ')
        sep, tail = '\n    },\n    {\n      "count": ', "\n    }\n  ]\n}\n"
    else:
        head, sep, tail = "count\n", "\n", "\n"

    def parts():
        yield head
        for lo in range(0, len(counts), _COUNT_BLOCK):
            if lo:
                yield sep
            yield sep.join(map(str, counts[lo:lo + _COUNT_BLOCK].tolist()))
        yield tail

    _write(parts(), out)


def _add_common(p, need_t=True, series=True):
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    if need_t:
        p.add_argument("--t", type=float, required=True)
    if series:
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--max-terms", type=int, default=10_000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)


def build_parser() -> _Parser:
    p = _Parser(prog="fracpois",
                description="fractional Poisson process toolbox")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pmf", help="probability mass function table")
    _add_common(sp)
    sp.add_argument("--kmax", type=int, required=True)

    sp = sub.add_parser("pgf", help="probability generating function")
    _add_common(sp)
    sp.add_argument("--u", type=float, required=True)

    sp = sub.add_parser("sample", help="draw counts")
    _add_common(sp, series=False)
    sp.add_argument("--process", choices=sample._PROCESSES, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--stream-id", type=int, default=0)
    sp.add_argument("--gamma", type=float, default=None)
    # default: the CPUs the process may run on; the counts do not depend
    # on it
    sp.add_argument("--threads", type=int, default=None)

    sp = sub.add_parser("verify", help="run a verification suite")
    _add_common(sp)
    sp.add_argument("--suite", required=True,
                    choices=("pmf-mc", "min-uniform", "subordination",
                             "ode", "oracle"))
    sp.add_argument("--process", choices=sample._PROCESSES, default="space")
    sp.add_argument("--n", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--fixture", default=None)

    sp = sub.add_parser("passage", help="first-passage CDF/density table")
    _add_common(sp, need_t=False)
    sp.add_argument("--k", type=int, required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--t", type=float, default=None)
    g.add_argument("--tmax", type=float, default=None)
    sp.add_argument("--steps", type=int, default=20)
    return p


# argparse keeps no parse state on a parser (each parse_args makes a new
# Namespace), so main can reuse one; build_parser stays a fresh copy
_parser = functools.cache(build_parser)


def _params(args) -> ProcessParams:
    return ProcessParams(args.lam, args.alpha, args.nu)


def _cfg(args) -> SeriesConfig:
    return SeriesConfig(rel_tol=args.tol, max_terms=args.max_terms)


def _meta(args, **extra):
    meta = {"alpha": args.alpha, "nu": args.nu, "lambda": args.lam,
            "tool": "fracpois", "version": __version__}
    for name in ("t", "gamma"):
        if getattr(args, name, None) is not None:
            meta[name] = getattr(args, name)
    meta.update(extra)
    return meta


def cmd_pmf(args) -> int:
    rows = dist.pmf_row(_params(args), args.t, args.kmax, _cfg(args))
    # p is printed clamped into [0, 1]; the JSON meta counts the clamps
    clamped = sum(not 0.0 <= r.p <= 1.0 for r in rows)
    _emit([{"k": r.k, "p": min(max(r.p, 0.0), 1.0),
            "error_bound": r.abs_error_bound} for r in rows],
          _meta(args, clamped=clamped), args.format, args.out)
    return EXIT_OK


def cmd_pgf(args) -> int:
    res = dist.pgf(_params(args), args.t, args.u, _cfg(args))
    _emit([{"u": args.u, "value": res.value,
            "error_bound": res.abs_error_bound}],
          _meta(args), args.format, args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    batch = sample.sample_batch(args.process, _params(args), args.t, args.n,
                                RngStream(args.seed, args.stream_id),
                                gamma=args.gamma, threads=args.threads)
    _emit_counts(batch.counts, _meta(args, process=args.process, n=args.n,
                                     seed=args.seed,
                                     stream_id=args.stream_id,
                                     redraws=batch.redraws,
                                     capped=batch.capped),
                 args.format, args.out)
    return EXIT_OK


def _verify_stream(args, draw: int, attempt: int) -> RngStream:
    """Stream of one draw of a verify suite under ``--seed``.

    Every draw and every two-stage attempt has its own stream id, so a
    retry never repeats another seed's first attempt.
    """
    return RngStream(args.seed, 2 * draw + attempt)


def _suite_pmf_mc(args, params, cfg):
    def run(n, attempt):
        batch = sample.sample_batch(args.process, params, args.t, n,
                                    _verify_stream(args, 0, attempt),
                                    gamma=args.gamma)
        rep = verify.gof_pmf(batch, cfg)
        return rep.passed, rep

    passed, rep = verify.two_stage(run, args.n)
    rows = [{"bin": lab, "observed": o, "expected": e}
            for lab, o, e in rep.bins]
    meta = _meta(args, suite="pmf-mc", statistic=rep.statistic, dof=rep.dof,
                 p_value=rep.p_value, passed=passed)
    return passed, rows, meta


def _suite_min_uniform(args, params, cfg):
    rows = []
    passed = True
    for draw, u in enumerate((0.2, 0.5, 0.8)):
        def run(n, attempt, draw=draw, u=u):
            res = verify.check_min_uniform_space(
                params, args.t, u, n, _verify_stream(args, draw, attempt),
                cfg)
            return abs(res.z_score) < 4.0, res

        ok, res = verify.two_stage(run, args.n)
        passed = passed and ok
        rows.append({"u": u, "empirical": res.empirical,
                     "analytic": res.analytic, "z": res.z_score,
                     "passed": ok})
    return passed, rows, _meta(args, suite="min-uniform", passed=passed)


def _suite_subordination(args, params, cfg):
    if args.gamma is None:
        raise ValueError("--gamma is required for the subordination suite")
    inner = params.alpha * args.gamma

    def run(n, attempt):
        a = sample.sample_batch("composed", params, args.t, n,
                                _verify_stream(args, 0, attempt),
                                gamma=args.gamma)
        b = sample.sample_batch(
            "space", ProcessParams(params.lam, inner, 1.0), args.t, n,
            _verify_stream(args, 1, attempt))
        rep = verify.gof_two_sample(a.counts, b.counts)
        return rep.passed, rep

    passed, rep = verify.two_stage(run, args.n)
    rows = [{"bin": lab, "composed": o, "direct": e}
            for lab, o, e in rep.bins]
    meta = _meta(args, suite="subordination", statistic=rep.statistic,
                 dof=rep.dof, p_value=rep.p_value, passed=passed,
                 order=inner)
    return passed, rows, meta


def _suite_ode(args, params, cfg):
    res = verify.check_ode_residual(params, args.t, 10, cfg)
    passed = res < 1e-6
    return passed, [{"max_residual": res, "passed": passed}], \
        _meta(args, suite="ode", passed=passed)


def _suite_oracle(args, params, cfg):
    ok, failures = verify.check_fixture(args.fixture, cfg)
    rows = [{"row": str(f[0]), "value": f[1], "bound": f[2]}
            for f in failures]
    return ok, rows, _meta(args, suite="oracle", passed=ok,
                           failures=len(failures))


def cmd_verify(args) -> int:
    params, cfg = _params(args), _cfg(args)
    RngStream(args.seed)    # --seed is checked for every suite
    suites = {"pmf-mc": _suite_pmf_mc, "min-uniform": _suite_min_uniform,
              "subordination": _suite_subordination, "ode": _suite_ode,
              "oracle": _suite_oracle}
    passed, rows, meta = suites[args.suite](args, params, cfg)
    _emit(rows, meta, args.format, args.out)
    return EXIT_OK if passed else EXIT_STATFAIL


def cmd_passage(args) -> int:
    params, cfg = _params(args), _cfg(args)
    if args.t is not None:
        times = [args.t]
    elif args.steps < 1:
        raise ValueError("--steps must be >= 1")
    elif not 0 < args.tmax < np.inf:
        raise ValueError("--tmax must be finite and > 0")
    else:
        times = list(np.linspace(args.tmax / args.steps, args.tmax,
                                 args.steps))
    # at t = 0 the library returns cdf 0 and no density for k >= 1
    if min(times) == 0 and args.k >= 1:
        raise ValueError("passage times must be > 0 (>= 0 at --k 0)")
    rows = []
    for t in times:
        c, d = dist.first_passage(params, t, args.k, cfg)
        row = {"t": float(t), "cdf": c.value,
               "cdf_error_bound": c.abs_error_bound}
        if d is not None:
            row["density"] = d.value
            row["density_error_bound"] = d.abs_error_bound
        rows.append(row)
    _emit(rows, _meta(args, k=args.k), args.format, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        handler = {"pmf": cmd_pmf, "pgf": cmd_pgf, "sample": cmd_sample,
                   "verify": cmd_verify, "passage": cmd_passage}[args.command]
        if args.out:
            _check_out(args.out)
        return handler(args)
    except (ValueError, OSError) as exc:
        # bad flags, arguments outside the library's domain, and files
        # that cannot be read or written
        print(f"fracpois: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergence as exc:
        print(f"fracpois: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
