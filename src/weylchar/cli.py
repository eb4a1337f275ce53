"""Command-line front end: every computation as a subcommand with JSON output.

JSON goes to stdout (stable key order, byte-identical for identical seeded
invocations); one human-readable summary line goes to stderr.  Exit codes:
0 pass, 1 check failure, 2 usage or parse error (a check over an empty
range included), 3 budget exceeded, 4 broken internal invariant (a bug, not
bad input).
Angles are given in turns (fractions of a full circle), so exact roots of
unity are expressible in text.  A flag given as empty ("") counts as given:
an empty spectrum or rate list is refused like any other bad value.

One encoder writes every payload: a rational is the string "n/d" (an integer
result too, as "2/1"), a complex number or Gaussian rational is [re, im], a
signature is {"d", "entries"}, and a result record is an object of its fields.
The one exception is char's trace_exact, [str(re), str(im)], which writes an
integer as "2".

Each subcommand imports only the modules it calls, so a process pays for no
other.  Two load numpy: hciz (Haar sampling and the determinant formula) and
ergodic (the fitted decay rate).  Every other subcommand runs without it,
char included: it is exact at quarter turns, and elsewhere a complex double
with an "error_bound" on the trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from weylchar.errors import DIM_BUDGET, ERGODIC_DIM_BUDGET, BudgetExceeded, InvariantError

if TYPE_CHECKING:
    from weylchar.combinatorics import Partition, Signature
    from weylchar.moments import HermitianSpectrum, WeightDistribution


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def parse_partition(text: str) -> Partition:
    from weylchar.combinatorics import Partition

    return Partition(parse_ints(text))


def parse_signature(text: str) -> Signature:
    from weylchar.combinatorics import Signature

    return Signature(parse_ints(text))


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(Fraction(t) for t in text.split(","))


def parse_complexes(text: str) -> list[complex]:
    """Complex values written 're,im' (or a bare 're') and separated by ';'."""
    if not text.strip():
        return []
    values = []
    for item in text.split(";"):
        parts = [float(t) for t in item.split(",")]
        if len(parts) > 2:
            raise ValueError(f"complex value {item!r} is not 're,im'")
        values.append(complex(*parts))
    return values


_NEEDED = object()

# For each subcommand with modes: how its flags name the chosen mode, and the
# flags each mode reads, each with its default (_NEEDED: the mode needs it).
# argparse leaves these flags None when they are not given, so a flag given to
# a mode that does not read it can be told from one left out.
_MODE_FLAGS = {
    "branch": (lambda a: f"--op {a.op}", {
        "--op tensor": {"sig1": _NEEDED, "sig2": _NEEDED},
        "--op restrict": {"sig": _NEEDED, "d1": _NEEDED, "d2": _NEEDED},
    }),
    "moments": (lambda a: "--sweep" if a.sweep else "", {
        "--sweep": {"dmax": 5, "entry_bound": 2},
        "": {"sig": _NEEDED, "r": _NEEDED},
    }),
    "poisson": (
        lambda a: next(m for m in ("--stirling", "--tv-a", "--kstep-k", "--series-n")
                       if getattr(a, m[2:].replace("-", "_")) is not None),
        {
            "--stirling": {},
            "--tv-a": {"tv_k": 1},
            "--kstep-k": {"kernel_a": "1", "truncation": 60},
            # --tau-prime stays None when not given: the conjugate side then reads --tau.
            "--series-n": {"kernel_a": "1", "kernel_b": "", "tau": "", "tau_prime": None,
                           "truncation": 60},
        },
    ),
    "validate-diagram": (lambda a: "--file" if a.file is not None else "--diagram", {
        "--diagram": {"depth": None},
        "--file": {},
    }),
}


def _check_mode(args) -> None:
    """Give the flags the chosen mode reads their defaults.

    Raises ValueError naming every flag the mode needs but did not get and
    every flag given that it does not read.
    """
    if args.command not in _MODE_FLAGS:
        return
    pick, modes = _MODE_FLAGS[args.command]
    mode = pick(args)
    reads = modes[mode]
    problems = []
    missing = [n for n, value in reads.items() if value is _NEEDED and getattr(args, n) is None]
    if missing:
        problems.append("needs " + _flags(missing))
    stray = [n for n in dict.fromkeys(n for flags in modes.values() for n in flags)
             if n not in reads and getattr(args, n) is not None]
    if stray:
        problems.append("does not read " + _flags(stray))
    if problems:
        raise ValueError(" ".join(filter(None, (args.command, mode))) + " " + " and ".join(problems))
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _flags(names) -> str:
    return ", ".join("--" + n.replace("_", "-") for n in names)


def _encode(obj):
    """The JSON form of a value json cannot write itself: `emit`'s one encoder.

    A Fraction is written "n/d" (tested first: a Fraction also has
    __complex__), a complex or a QQi [re, im], an object with a to_json method
    that form, and any other dataclass its own fields, taken shallowly so each
    field goes through these rules again.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if hasattr(obj, "__complex__"):
        z = complex(obj)
        return [z.real, z.imag]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    import dataclasses  # loaded already by the module that made the record

    if dataclasses.is_dataclass(obj):
        # Not dataclasses.asdict: it would recurse into a QQi's own fields.
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def emit(payload: dict, summary: str, output: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, default=_encode)
    if output is not None:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


def cmd_char(args) -> tuple[dict, str, int]:
    from weylchar import ucharacters
    from weylchar.exact import QQi
    from weylchar.symfunc import weyl_dim

    sig = parse_signature(args.sig)
    u = ucharacters.DiagonalUnitary(parse_rationals(args.u))
    dim = weyl_dim(sig)
    if u.quarter_turns() is None:
        trace, bound = ucharacters.char_float(sig, u)
    else:
        trace, bound = ucharacters.char_eval(sig, u), None
    normalized = ucharacters.over_dim(complex(trace), dim)
    payload = {
        "signature": sig,
        "dim": dim,
        "trace": trace,
        "normalized": normalized,
    }
    if isinstance(trace, QQi):
        payload["trace_exact"] = [str(trace.re), str(trace.im)]
    if bound is not None:
        payload["error_bound"] = bound
    return payload, f"char: dim {dim}, normalized {normalized:.6g}", 0


def cmd_branch(args) -> tuple[dict, str, int]:
    from weylchar import ucharacters

    if args.op == "tensor":
        sig1, sig2 = parse_signature(args.sig1), parse_signature(args.sig2)
        comps = ucharacters.tensor_decompose(sig1, sig2, dim_budget=args.dim_budget)
        report = ucharacters.check_branching_inequalities(comps, (sig1, sig2))
        payload = {
            "op": "tensor",
            "components": [{"signature": s, "multiplicity": m} for s, m in comps],
            "inequalities_hold": report.holds,
        }
        summary = f"tensor: {len(comps)} components, inequalities {report.holds}"
    else:
        sig = parse_signature(args.sig)
        dec = ucharacters.restrict_to_blocks(sig, args.d1, args.d2, dim_budget=args.dim_budget)
        report = ucharacters.check_branching_inequalities(dec, sig)
        payload = {
            "op": "restrict",
            "components": [
                {"first": s1, "second": s2, "multiplicity": m} for s1, s2, m in dec.components
            ],
            "total_dim": dec.total_dim(),
            "inequalities_hold": report.holds,
        }
        summary = f"restrict: {len(dec.components)} components, dim {payload['total_dim']}"
    return payload, summary, 0 if report.holds else 1


def _moment_checks(sig: Signature, r: int) -> tuple[WeightDistribution, dict, bool]:
    """The closed m2 and m4 against the GT brute force, and the estimate where 3r >= 2d.

    m4 and the estimate need d >= 4, the range of the fourth-moment form.
    Returns the weight distribution, the checked values keyed as `moments`
    prints them, and whether each closed form equals its brute force.
    """
    from weylchar import moments

    f = moments.TraceZeroSigned(r, sig.d)
    dist = moments.weight_distribution(sig, f)
    checks = {"m2": moments.moment2_closed(sig, f), "m2_brute": dist.moment(2)}
    if sig.d >= 4:
        checks |= {"m4": moments.moment4_closed(sig, f), "m4_brute": dist.moment(4)}
        if 3 * r >= 2 * sig.d:
            checks["estimate_holds"] = moments.estimate_check(sig, f).holds
    identities = checks["m2"] == checks["m2_brute"] and checks.get("m4") == checks.get("m4_brute")
    return dist, checks, identities


def cmd_moments(args) -> tuple[dict, str, int]:
    if args.sweep:
        from weylchar.combinatorics import signatures_with_entries

        # The sweep checks d = 4..dmax, the range of the fourth-moment form.
        if args.dmax < 4:
            raise ValueError(f"moments --sweep needs --dmax >= 4, got {args.dmax}")
        if args.entry_bound < 0:
            raise ValueError(f"moments --sweep needs --entry-bound >= 0, got {args.entry_bound}")
        failures = 0
        checked = 0
        estimates = 0
        for d in range(4, args.dmax + 1):
            for sig in signatures_with_entries(d, -args.entry_bound, args.entry_bound):
                for r in range(2, d + 1, 2):
                    _, checks, identities = _moment_checks(sig, r)
                    checked += 1
                    failures += not identities
                    if "estimate_holds" in checks:
                        estimates += 1
                        failures += not checks["estimate_holds"]
        payload = {
            "sweep": True,
            "dmax": args.dmax,
            "checked": checked,
            "estimate_checked": estimates,
            "failures": failures,
        }
        summary = f"moment sweep: {checked} identities, {failures} failures"
        return payload, summary, 0 if failures == 0 else 1

    sig = parse_signature(args.sig)
    dist, checks, identities = _moment_checks(sig, args.r)
    equal = identities and checks.get("estimate_holds", True)
    payload = {
        "signature": sig,
        "r": args.r,
        "distribution": {str(k): v for k, v in dist.probs.items()},
        "m4_over_m2_sq": dist.moment_ratio(),
        "equal": equal,
    } | checks
    return payload, f"moments: m2 {checks['m2']}, equal {equal}", 0 if equal else 1


def _random_centered_spectrum(rng, d: int) -> HermitianSpectrum:
    from weylchar import moments

    while True:
        raw = [Fraction(int(rng.integers(-3, 4))) for _ in range(d)]
        if any(raw):
            break
    spec = moments.HermitianSpectrum(tuple(sorted(raw, reverse=True)))
    return moments.center(spec)


def cmd_hciz(args) -> tuple[dict, str, int]:
    # numpy before weylchar.moments: in the other order this process
    # measured a higher peak RSS.
    import numpy as np

    from weylchar import moments

    # Checked before the generator below is seeded, which would fail first
    # with numpy's own message.
    moments.require_nonnegative_int("seed", args.seed)
    rng = np.random.default_rng(args.seed)
    d = args.d
    a, b = (
        _random_centered_spectrum(rng, d)
        if text is None
        else moments.HermitianSpectrum(parse_rationals(text))
        for text in (args.a, args.b)
    )
    if a.d != d or b.d != d:
        raise ValueError("spectrum length must match --d")
    # The exact side first: it refuses a budget or spectrum it cannot take
    # before any sampling.
    if args.mode == "power":
        exact = moments.hciz_power_sum(a, b, args.n)
        exact_c = complex(float(exact))
    else:
        exact = exact_c = complex(moments.hciz_exponential_exact(a, b))
    report = moments.hciz_monte_carlo(a, b, args.n, args.samples, args.seed, mode=args.mode)
    dev = float(abs(report.estimate - exact_c))
    passed = bool(dev <= 3 * report.stderr + 1e-12)
    payload = {
        "a": a.eigenvalues,
        "b": b.eigenvalues,
        "mode": args.mode,
        "n": args.n,
        "exact": exact,
        "mc": report,
        "deviation": dev,
        "pass": passed,
    }
    summary = f"hciz: deviation {dev:.3g} vs 3*stderr {3 * report.stderr:.3g}"
    return payload, summary, 0 if passed else 1


def cmd_ergodic(args) -> tuple[dict, str, int]:
    from weylchar import afalgebra, ucharacters

    diagram = afalgebra.preset_diagram(args.diagram, depth=max(args.nmax, 8))
    if not 0 <= args.level <= diagram.depth:
        raise ValueError(f"level {args.level} outside diagram depth {diagram.depth}")
    lam, mu = parse_partition(args.lam), parse_partition(args.mu)
    angles = parse_rationals(args.u)
    blocks = []
    for i, d in enumerate(diagram.levels[args.level]):
        if i == args.block:
            if len(angles) != d:
                raise ValueError(f"block {i} at level {args.level} has size {d}")
            blocks.append(ucharacters.DiagonalUnitary(angles))
        else:
            blocks.append(ucharacters.DiagonalUnitary.identity(d))
    u = afalgebra.BlockUnitary(args.level, tuple(blocks))
    report = afalgebra.ergodic_sequence(
        diagram, lam, mu, u, args.nmax, block=args.block, dim_budget=args.dim_budget
    )
    payload = vars(report) | {"diagram": args.diagram}
    return payload, f"ergodic: limit {complex(report.limit):.6g}, rate {report.rate}", 0


def cmd_schur_weyl(args) -> tuple[dict, str, int]:
    from weylchar import afalgebra

    defect = afalgebra.schur_weyl_defect(args.n, args.p, args.q)
    payload = {
        "n": args.n,
        "p": args.p,
        "q": args.q,
        "defect": defect,
        "defect_float": float(defect),
    }
    return payload, f"schur-weyl: defect {defect}", 0


def cmd_poisson(args) -> tuple[dict, str, int]:
    from weylchar import poisson

    if args.stirling is not None:
        report = poisson.stirling_identity(Fraction(args.stirling))
        payload = {"stirling": vars(report) | {"closed_form_float": float(report.closed_form)}}
        return payload, f"stirling: closed {_encode(report.closed_form)}", 0
    if args.tv_a is not None:
        value = poisson.tv_bound(Fraction(args.tv_a), args.tv_k)
        return {"tv_bound": value, "a": args.tv_a, "k": args.tv_k}, f"tv bound: {value:.6g}", 0
    if args.kstep_k is not None:
        params = poisson.PoissonKernelParams(parse_rationals(args.kernel_a))
        report = poisson.kstep_semigroup_check(params, args.kstep_k, args.truncation)
        summary = f"kstep: max deviation {report.max_deviation:.3g}"
        return {"kstep": report}, summary, 0 if report.passed else 1
    # argparse has made --series-n the one mode left.
    taup = None if args.tau_prime is None else parse_complexes(args.tau_prime)
    report = poisson.poisson_series_check(
        parse_rationals(args.kernel_a), parse_rationals(args.kernel_b), args.series_n,
        parse_complexes(args.tau), taup, truncation=args.truncation,
    )
    summary = f"series: deviation {report.deviation:.3g}"
    return {"series": report}, summary, 0 if report.passed else 1


def cmd_validate_diagram(args) -> tuple[dict, str, int]:
    from weylchar import afalgebra

    if args.file is not None:
        with open(args.file) as fh:
            diagram = afalgebra.BratteliDiagram.from_json(json.load(fh))
    else:
        diagram = afalgebra.preset_diagram(args.diagram, depth=args.depth)
    report = afalgebra.validate_diagram(diagram)
    payload = report.to_json()
    payload["name"] = diagram.name
    summary = f"diagram {diagram.name or args.file}: valid {report.valid}"
    return payload, summary, 0 if report.valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weylchar", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON payload to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char", help="evaluate an irreducible U(d) character", parents=[common])
    p.add_argument("--sig", required=True, help="signature, e.g. 1,0,0,-1")
    p.add_argument("--u", required=True, help="eigenvalue angles in turns, e.g. 0.25,0,0,0")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("branch", help="tensor or restriction decomposition", parents=[common])
    p.add_argument("--op", choices=("tensor", "restrict"), required=True)
    p.add_argument("--sig", help="signature to restrict")
    p.add_argument("--sig1")
    p.add_argument("--sig2")
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--dim-budget", type=positive_int, default=DIM_BUDGET)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("moments", help="weight-distribution moments, closed vs brute force", parents=[common])
    p.add_argument("--sig", help="signature")
    p.add_argument("--r", type=int, help="rank of the signed window")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--dmax", type=int)
    p.add_argument("--entry-bound", type=int)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("hciz", help="Monte Carlo unitary integral vs exact value", parents=[common])
    p.add_argument("--d", type=positive_int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("power", "exp"), default="power")
    p.add_argument("--a", help="spectrum of A as comma rationals")
    p.add_argument("--b", help="spectrum of B as comma rationals")
    p.set_defaults(func=cmd_hciz)

    p = sub.add_parser("ergodic", help="extreme-character sequence along a diagram", parents=[common])
    p.add_argument("--diagram", default="car")
    p.add_argument("--lam", default="")
    p.add_argument("--mu", default="")
    p.add_argument("--u", required=True, help="angles in the designated block")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--dim-budget", type=positive_int, default=ERGODIC_DIM_BUDGET,
                   help="largest character dimension evaluated along the tower")
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("schur-weyl", help="isotypic defect of the tensor-power tower", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_schur_weyl)

    p = sub.add_parser("poisson", help="Poisson kernel and tail checks", parents=[common])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stirling", help="t value for the Stirling identity")
    mode.add_argument("--tv-a", help="rate a_i for the total-variation bound")
    mode.add_argument("--kstep-k", type=int, help="k for the semigroup check")
    mode.add_argument("--series-n", type=int, help="level for the series check")
    p.add_argument("--tv-k", type=int)
    p.add_argument("--kernel-a", help="kernel rates, comma rationals")
    p.add_argument("--kernel-b", help="conjugate-side rates")
    p.add_argument("--tau", help="trace values 're,im' separated by ';'")
    p.add_argument("--tau-prime", help="conjugate-side trace values")
    p.add_argument("--truncation", type=positive_int)
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("validate-diagram", help="check a Bratteli diagram", parents=[common])
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--diagram", help="preset name")
    source.add_argument("--file", help="JSON diagram file")
    p.add_argument("--depth", type=positive_int, help="preset depth (presets only)")
    p.set_defaults(func=cmd_validate_diagram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_mode(args)
        payload, summary, code = args.func(args)
        emit(payload, summary, args.output)
        return code
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
