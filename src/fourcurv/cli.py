"""Command-line front end.

Subcommands:

    decompose   block-decompose an operator JSON file and report the
                saturation defect of the pointwise Weyl bound
    certify     certify the global sign of sectional curvature
    model       emit a catalog model as JSON
    chart       finite-difference curvature of an analytic chart, or a
                step-refinement convergence study
    page        the Page-metric pipeline: Einstein verification, negative
                curvature certification, characteristic-number quadrature
    geo         exact geography flags of one (chi, tau) pair or a CSV batch
    scan        CSV table of geography flags over a lattice triangle

Exit codes: 0 success; 1 input or validation error; 2 numerical failure or
an Inconclusive certification.  Reports go to stdout, diagnostics to stderr.

``main`` returns the exit code and is what in-process callers use.  It gives
arguments only to the subcommand its first argument names, whose parsing and
texts are those of the whole parser (:func:`build_parser`).  A process
(``python -m fourcurv`` or the ``fourcurv`` script) enters through ``run``,
which flushes stdout and stderr after ``main`` and then ends the process with
``os._exit``: the interpreter's teardown, mostly the unloading of numpy, adds
nothing to the time from the written report to the exit.  So every command
closes each file it opens before ``main`` returns; ``run`` flushes only the
standard streams.

At module level this imports only the standard library and the numpy-free
modules ``errors``, ``jsonio`` and ``names``, so help and argument errors load
neither numpy nor ``geography``.  Each handler imports what it uses when it
runs, and calls through the module attribute.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import NoReturn

from . import __version__, jsonio
from .errors import (FourcurvError, NonConvergentError, NotEinsteinError, _digit_limit,
                     _past_digit_limit)
from .names import chart_names, model_names

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2

# Largest accepted values of the integer options that size the work of a request:
# each bounds its run to a few seconds and about 100 MiB.
MAX_RADII = 4096
MAX_STEPS = MAX_RADII  # chart --study: one point at each step, the same point budget
MAX_NODES = 1000
MAX_CHI = 1000


def _parse_params(pairs: list[str] | None) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--param {item!r}: expected K=V")
        key, _, value = item.partition("=")
        if (key := key.strip()) in params:
            raise ValueError(f"--param {key!r}: the key is given more than once")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"--param {item!r}: the value is not a number") from None
    return params


def _floats(option: str, text: str) -> list[float]:
    """The comma-separated numbers of ``option``'s value, refused naming ``option``."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} {text!r}: expected comma-separated numbers") from None


def _int_option(option: str, lo: int | None = None, hi: int | None = None):
    """argparse type: ``int``, except that an integer past the interpreter's digit
    limit, below ``lo`` or above ``hi`` exits 1 with one line naming ``option``,
    without echoing the digits."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            # argparse exits 2 on a ValueError; a FourcurvError passes through to main
            if _past_digit_limit(exc):
                raise FourcurvError(_digit_limit(f"argument {option} has")) from None
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if lo is not None and value < lo:
            raise FourcurvError(f"argument {option} must be at least {lo}")
        if hi is not None and value > hi:
            raise FourcurvError(f"argument {option} must be at most {hi}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """argparse type of ``certify --tolerance``: a finite float >= 0, else exit 1."""
    try:
        value = float(text)
    except ValueError:  # argparse's own message for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= sys.float_info.max:
        raise FourcurvError(f"argument --tolerance must be finite and at least 0, got {value!r}")
    return value


def _print_report(data: dict, human: bool) -> None:
    # formatted whole before it is written, so an error leaves no partial report
    if human:
        sys.stdout.write("".join(f"{key}: {value}\n" for key, value in data.items()))
    else:
        sys.stdout.write(jsonio.dumps(data))


def _cmd_decompose(args) -> int:
    from . import curvops

    op = jsonio.load_operator(args.input)
    d = curvops.decompose(op)
    out = {"decomposition": d.to_dict(), "glReport": curvops.gl_defect(d).to_dict()}
    try:
        out["charDensities"] = curvops.char_densities(d).to_dict()
    except NotEinsteinError:
        out["charDensities"] = None
    _print_report(out, args.format == "human")
    return EXIT_OK


def _cmd_certify(args) -> int:
    from . import secsign

    op = jsonio.load_operator(args.input)
    cert = secsign.certify_sec_sign(op, tolerance=args.tolerance)
    _print_report(cert.to_dict(), args.format == "human")
    if cert.verdict is secsign.Verdict.INCONCLUSIVE:
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_model(args) -> int:
    from . import models

    model = models.catalog(args.name, _parse_params(args.param))
    _print_report(model.to_dict(), args.format == "human")
    return EXIT_OK


def _cmd_chart(args) -> int:
    import numpy as np

    from . import models, numgeom

    chart = models.chart_for(args.name, _parse_params(args.param))
    if args.point:
        point = np.array(_floats("--point", args.point))
        if len(point) != 4:
            raise ValueError("--point needs exactly 4 comma-separated coordinates")
    elif args.study:
        point = np.array([0.5 * (lo + hi) for lo, hi in chart.domain])
    else:
        raise ValueError("chart evaluation needs --point x1,x2,x3,x4")
    if args.study:
        steps = _floats("--steps", args.steps)
        if len(steps) > MAX_STEPS:
            raise ValueError(f"argument --steps must have at most {MAX_STEPS} entries, "
                             f"got {len(steps)}")
        study = numgeom.convergence_study(chart, point, steps)
        _print_report(study.to_dict(), args.format == "human")
        return EXIT_OK
    pc = numgeom.curvature_at(chart, point, step=args.step)
    _print_report(pc.to_dict(), args.format == "human")
    return EXIT_OK


def _cmd_page(args) -> int:
    from . import page

    m = page.page_metric()
    lower, upper = m.endpoint_data()
    out: dict = {
        "metadata": dict(m.metadata),
        "endpointData": {"lower": lower.to_dict(), "upper": upper.to_dict()},
    }
    if args.verify:
        radii = page.chebyshev_radii(args.radii)
        check = page.verify_einstein(m, radii)
        out["einstein"] = check.to_dict()
    if args.negcurv:
        report = page.certify_negative_curvature(m)
        out["negativeCurvature"] = report.to_dict()
    if args.integrate:
        numbers = page.integrate_char_numbers(m, nodes=args.nodes)
        out["charNumbers"] = numbers.to_dict()
    if len(out) == 2:
        raise ValueError("page needs at least one of --verify, --negcurv, --integrate")
    _print_report(out, args.format == "human")
    return EXIT_OK


def _cmd_geo(args) -> int:
    from . import geography

    if args.csv:
        text = jsonio.read_text(args.csv)
        try:
            table = geography.points_csv(text)
        except ValueError as exc:  # a bad row, named by its line
            raise ValueError(f"{args.csv}: {exc}") from None
        sys.stdout.write(table)
        return EXIT_OK
    if args.chi is None or args.tau is None:
        raise ValueError("geo needs --chi and --tau (or --csv batch input)")
    p = geography.GeoPoint(args.chi, args.tau)
    out = {"chi": p.chi, "tau": p.tau}
    out.update(geography.report(p).to_dict())
    out["latticeObstruction"] = geography.self_dual_lattice_obstruction().to_dict()
    try:
        _print_report(out, args.format == "human")
    except ValueError:  # chi and tau were read under the digit limit; c1sq can pass it
        raise ValueError(_digit_limit("c1sq = 2 chi + 3 tau has")) from None
    return EXIT_OK


def _cmd_scan(args) -> int:
    from . import geography

    sys.stdout.write(geography.scan_csv(args.chi_max))
    return EXIT_OK


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", dest="format", action="store_const", const="json",
                   default="json", help="emit JSON (default)")
    p.add_argument("--format", choices=("json", "human"), default="json")


def _decompose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, help="operator JSON file")
    _add_format(p)
    p.set_defaults(func=_cmd_decompose)


def _certify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, help="operator JSON file")
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="verdict tolerance on q (default 1e-8 max(1, |R|_F))")
    _add_format(p)
    p.set_defaults(func=_cmd_certify)


def _model_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=model_names())
    p.add_argument("--param", action="append", metavar="K=V")
    _add_format(p)
    p.set_defaults(func=_cmd_model)


def _chart_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=chart_names())
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--point", help="x1,x2,x3,x4")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--study", action="store_true", help="run a step-refinement study")
    p.add_argument("--steps", default="0.02,0.01,0.005",
                   help="comma-separated steps for --study")
    _add_format(p)
    p.set_defaults(func=_cmd_chart)


def _page_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--verify", action="store_true", help="Einstein residual check")
    p.add_argument("--negcurv", action="store_true", help="negative-curvature certificate")
    p.add_argument("--integrate", action="store_true", help="integrate chi and tau")
    p.add_argument("--radii", type=_int_option("--radii", 1, MAX_RADII), default=32,
                   help=f"Einstein-check radii, 1 to {MAX_RADII} (default 32)")
    p.add_argument("--nodes", type=_int_option("--nodes", 16, MAX_NODES), default=48,
                   help=f"quadrature nodes, 16 to {MAX_NODES} (default 48)")
    _add_format(p)
    p.set_defaults(func=_cmd_page)


def _geo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chi", type=_int_option("--chi"))
    p.add_argument("--tau", type=_int_option("--tau"))
    p.add_argument("--csv", help="batch mode: CSV file with chi,tau rows")
    _add_format(p)
    p.set_defaults(func=_cmd_geo)


def _scan_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chi-max", type=_int_option("--chi-max", 0, MAX_CHI), required=True,
                   help=f"largest chi, 0 to {MAX_CHI}")
    p.set_defaults(func=_cmd_scan)


# (name, help, the function that adds its arguments), in the order of the help text
_COMMANDS = (
    ("decompose", "decompose an operator into s, Weyl halves and Ricci block",
     _decompose_arguments),
    ("certify", "certify the sign of sectional curvature", _certify_arguments),
    ("model", "emit a catalog model operator", _model_arguments),
    ("chart", "finite-difference curvature of an analytic chart", _chart_arguments),
    ("page", "Page metric verification pipeline", _page_arguments),
    ("geo", "exact geography flags of a (chi, tau) pair", _geo_arguments),
    ("scan", "CSV table of geography flags", _scan_arguments),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when ``command`` names one, a parser
    in which only that subcommand has its arguments: it parses that command's
    arguments and writes its texts as the whole parser does."""
    parser = argparse.ArgumentParser(
        prog="fourcurv",
        description="Numerical curvature algebra of oriented Einstein 4-manifolds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    whole = all(command != name for name, _, _ in _COMMANDS)
    for name, text, add_arguments in _COMMANDS:
        p = sub.add_parser(name, help=text)
        if whole or name == command:
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NonConvergentError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FourcurvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> NoReturn:
    """Run ``main`` on the process's arguments and end the process with its exit
    code, skipping the interpreter's teardown.

    argparse's ``--help``, ``--version`` and usage errors keep their exit code.
    A report that cannot be flushed to stdout (a full disk) exits 1 with one
    line, unless ``main`` had already exited 1 with its own line; the flush is
    not tried again at exit.

    Under ``PYTHONUNBUFFERED`` stdout's binary layer is the raw file, whose
    short writes the text layer drops: a reader closing the pipe part-way would
    cut the report short without an error.  So stdout is given a buffer, as it
    has without the variable, and each write reaches the file whole or raises.
    """
    raw = getattr(sys.stdout, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(raw), sys.stdout.encoding,
                                      sys.stdout.errors, line_buffering=raw.isatty())
    try:
        code = main()
    except SystemExit as exc:  # argparse exits with an int
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_INPUT:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_INPUT
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
