"""Command line frontend.

One job per invocation: parse the input records, dispatch, emit a JSON
report (stdout and optionally --out).  Exit code 0 means nothing was
falsified; undecided verdicts only fail the exit code under --strict.
Exit code 2 means the input or an option was unusable.
Reports carry no floats and no wall-clock data unless --timings is
passed, so a fixed seed reproduces a byte-identical report.
"""

import argparse
import sys
import time

from . import __version__
from .dgla import lower_central_series, NilpotentDgLie, tensor_lie
from .io import (ParseError, TruncationError, algebra_from_record,
                 artin_from_record, cosimplicial_from_record, dump_record,
                 element_from_record, element_to_record,
                 instance_from_record, load_any, load_record, record_type)

# cech, mcgauge and tot are imported by the commands that run them: each
# job is a fresh process that compiles what it imports unless bytecode
# is cached, so a module its command does not run only slows it down


def _int_at_least(low):
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {n}")
        return n
    return parse


_positive_int = _int_at_least(1)


def _base_parser():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--strict", action="store_true",
                   help="undecided verdicts also fail the exit code")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte-identical "
                        "reproducibility)")
    return p


# the options that only some subcommands read
def _sampling(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=_positive_int, default=25)


def _degree_bound(sp):
    sp.add_argument("--degree-bound", type=_positive_int, default=2)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dgdescent",
        description="exact Maurer-Cartan, Deligne groupoid and Cech "
                    "descent computations")
    parser.add_argument("--version", action="version", version=__version__)
    base = _base_parser()
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("check-algebra", parents=[base],
                        help="validate the axioms of an algebra record")
    sp.add_argument("file")
    sp = sub.add_parser("cohomology", parents=[base],
                        help="betti numbers of an algebra's complex")
    sp.add_argument("file")
    sp.add_argument("--max-degree", type=_int_at_least(0), default=4)
    sp = sub.add_parser("mc", parents=[base],
                        help="Maurer-Cartan residuals and sampled solutions")
    sp.add_argument("file")
    sp.add_argument("--base", help="artinian base record to tensor with")
    sp.add_argument("--element", help="element record file to test")
    _sampling(sp)
    sp = sub.add_parser("gauge-orbit", parents=[base],
                        help="decide gauge equivalence of two MC elements")
    sp.add_argument("file")
    sp.add_argument("--base", help="artinian base record to tensor with")
    sp.add_argument("--x", required=True)
    sp.add_argument("--xp", required=True)
    sp = sub.add_parser("tot", parents=[base],
                        help="totalization with the de Rham comparison")
    sp.add_argument("file")
    _degree_bound(sp)
    sp = sub.add_parser("cech", parents=[base],
                        help="build the Cech cosimplicial algebra")
    sp.add_argument("file")
    sp = sub.add_parser("verify-descent", parents=[base],
                        help="check the descent equivalence")
    sp.add_argument("file")
    _sampling(sp)
    _degree_bound(sp)
    return parser


# ---------------------------------------------------------------------------
# dispatch helpers


def _nilpotent_from_args(args):
    rec = load_record(args.file)
    g = algebra_from_record(rec, args.file)
    if getattr(args, "base", None):
        artin = artin_from_record(load_record(args.base), args.base)
        return tensor_lie(artin.maximal_ideal(), g)
    nil = lower_central_series(g)
    if not isinstance(nil, NilpotentDgLie):
        raise ParseError(args.file, "brackets",
                         "algebra is not nilpotent; tensor with an "
                         "artinian base (--base) or fix the input")
    return nil


def _cech_from_args(cover, base):
    """The Cech cosimplicial algebra of cover (x) base at levels
    0..max(2, vanishing level): Tot needs the levels up to the vanishing
    level of the conormalization, the descent groupoid levels 0..2, and
    the levels above both add only degenerate tuples."""
    from .cech import cech_cosimplicial, tensored_cover
    return cech_cosimplicial(tensored_cover(cover, base))


def _cosimplicial_from_args(args):
    rec = load_record(args.file)
    kind = record_type(rec, args.file)
    if kind == "descent_instance":
        _, cover, base = instance_from_record(rec, args.file)
        return _cech_from_args(cover, base)
    if kind == "cover":
        raise ParseError(args.file, "type",
                         "covers need an artinian base; wrap the record "
                         "into a descent_instance")
    if kind == "cosimplicial_dg_lie":
        return cosimplicial_from_record(rec, args.file)
    raise ParseError(args.file, "type",
                     f"cannot build a cosimplicial algebra from {kind!r}")


# the check that reading a record of each kind performs
_RECORD_CHECKS = {
    "dg_lie_algebra": "d^2, antisymmetry, Jacobi, Leibniz",
    "artin_algebra": "commutative local artinian axioms",
    "cover": "restriction functoriality and dg Lie maps",
    "descent_instance": "restriction functoriality, dg Lie maps and "
                        "artinian base axioms",
    "cosimplicial_dg_lie": "cosimplicial identities and dg Lie maps",
}


def cmd_check_algebra(args, report):
    kind, obj = load_any(args.file)
    report["checks"].append({"name": _RECORD_CHECKS[kind],
                             "verdict": "verified"})
    # a descent instance reads as its (name, cover, base)
    report["instance"] = obj[0] if kind == "descent_instance" else obj.name


def cmd_cohomology(args, report):
    rec = load_record(args.file)
    g = algebra_from_record(rec, args.file)
    # every betti number above the top degree is 0: a bound far above
    # it would only print zeros, as many as it asks for
    top = max(g.space.nonzero_degrees(), default=0)
    bound = max(4, top)
    if args.max_degree > bound:
        raise TruncationError(
            f"degree bound {args.max_degree} is above {bound}, max(4, top "
            f"degree {top}); betti numbers above degree {top} are 0")
    bettis = g.cochain.betti_numbers(args.max_degree)
    report["instance"] = rec.get("name")
    report["checks"].append({
        "name": "cohomology dimensions", "verdict": "verified",
        "betti": bettis,
        "euler_characteristic": g.cochain.euler_characteristic()})


def cmd_mc(args, report):
    from .mcgauge import DeligneGroupoid, FiniteLieContext, mc_residual
    nil = _nilpotent_from_args(args)
    ctx = FiniteLieContext(nil)
    report["instance"] = nil.algebra.name
    report["nilpotency_class"] = nil.nilpotency_class
    if args.element:
        el = element_from_record(nil.algebra,
                                 load_record(args.element), args.element)
        res = mc_residual(ctx, el)
        off = {k: v for k, v in el.items() if ctx.key_degree(k) != 1}
        check = {"name": "Maurer-Cartan residual",
                 "verdict": "falsified" if res or off else "verified",
                 "residual": element_to_record(nil.algebra, res)}
        if off:
            check["not_degree_one"] = element_to_record(nil.algebra, off)
        report["checks"].append(check)
    else:
        import random
        rng = random.Random(args.seed)
        C = DeligneGroupoid(nil)
        sols = []
        not_mc = []
        for i in range(args.samples):
            x = C.random_mc_element(rng)
            if mc_residual(ctx, x):
                not_mc.append(i)
            sols.append(element_to_record(nil.algebra, x))
        check = {"name": f"{args.samples} sampled MC solutions",
                 "verdict": "falsified" if not_mc else "verified",
                 "solutions": sols}
        if not_mc:
            check["not_maurer_cartan"] = not_mc
        report["checks"].append(check)


def cmd_gauge_orbit(args, report):
    from .mcgauge import FiniteLieContext, gauge_equivalent, mc_element
    nil = _nilpotent_from_args(args)
    ctx = FiniteLieContext(nil)
    g = nil.algebra
    x = element_from_record(g, load_record(args.x), args.x)
    xp = element_from_record(g, load_record(args.xp), args.xp)
    for el, nm in ((x, args.x), (xp, args.xp)):
        try:
            mc_element(ctx, el)
        except ValueError as exc:
            raise ParseError(nm, "element", str(exc))
    res = gauge_equivalent(ctx, x, xp)
    entry = {"name": "gauge orbit decision", "verdict": "verified",
             "status": res.status}
    if res.witness is not None:
        entry["witness"] = element_to_record(g, res.witness)
    if res.reason:
        entry["reason"] = res.reason
    report["checks"].append(entry)
    report["instance"] = g.name


def cmd_tot(args, report):
    from .tot import tot_cochain, tot_lie
    cc = _cosimplicial_from_args(args)
    report["instance"] = cc.name
    report["trunc_level"] = cc.N
    report["level_dimensions"] = [g.total_dim() for g in cc.levels]
    report["normalization_vanishing_level"] = cc.vanishing_level
    T, _ = tot_cochain(cc)
    top = max(T.space.nonzero_degrees(), default=0)
    bettis = T.betti_numbers(min(top, 4))
    report["checks"].append({
        "name": "conormalized total complex", "verdict": "verified",
        "betti": bettis})
    dims = {}
    stable_at = None
    D = args.degree_bound
    prev = None
    for DD in range(1, D + 1):
        TL = tot_lie(cc, DD)
        bl = [TL.cochain.cohomology(n)[0] for n in range(min(top, 4) + 1)]
        dims[str(DD)] = bl
        if prev is not None and bl == prev and stable_at is None:
            stable_at = DD
        prev = bl
    agree = prev == bettis[:len(prev)]
    check = {
        "name": "de Rham comparison of the truncated Thom-Sullivan side",
        "verdict": "verified" if agree else "undecided",
        "tot_lie_cohomology_by_bound": dims,
        "stabilized_at": stable_at,
        "conormalized": bettis}
    if not agree and stable_at is not None:
        # two equal bounds need not be the limit: on the 3-sphere TS_1
        # and TS_2 agree because no 3-form has total degree below 3
        check["reason"] = "stabilization in D proves nothing"
    report["checks"].append(check)


def cmd_cech(args, report):
    rec = load_record(args.file)
    _, cover, base = instance_from_record(rec, args.file)
    cc = _cech_from_args(cover, base)
    report["instance"] = rec.get("name")
    report["levels"] = [g.total_dim() for g in cc.levels]
    report["tuples"] = [[list(T) for T in Ts] for Ts in cc.tuples]
    report["normalization_dimensions"] = [
        len(cc.normalization_basis(q)) for q in range(cc.N + 1)]
    report["normalization_vanishing_level"] = cc.vanishing_level
    report["checks"].append({
        "name": "cosimplicial identities", "verdict": "verified"})
    bound = cover.num_opens - 1
    report["checks"].append({
        "name": "normalization vanishes above #opens - 1",
        "verdict": "verified" if cc.vanishing_level <= bound
        else "falsified",
        "bound": bound})


def cmd_verify_descent(args, report):
    from .cech import CechCosimplicial, verify_descent
    cc = _cosimplicial_from_args(args)
    if not isinstance(cc, CechCosimplicial) and \
            not cc.descent_groupoid().is_abelian():
        raise ParseError(args.file, "type",
                         "the nonabelian check glues descent data over a "
                         "cover, which a cosimplicial_dg_lie record does "
                         "not carry; use a descent_instance record")
    sub = verify_descent(cc, samples=args.samples, seed=args.seed,
                         D=args.degree_bound)
    report["instance"] = sub.pop("instance", None)
    report.update(sub)


COMMANDS = {
    "check-algebra": cmd_check_algebra,
    "cohomology": cmd_cohomology,
    "mc": cmd_mc,
    "gauge-orbit": cmd_gauge_orbit,
    "tot": cmd_tot,
    "cech": cmd_cech,
    "verify-descent": cmd_verify_descent,
}


def run(args):
    report = {"tool": "dgdescent", "version": __version__,
              "command": args.command, "input": args.file,
              "checks": [], "timings": None}
    if "seed" in args:
        report["seed"] = args.seed
    started = time.monotonic()
    COMMANDS[args.command](args, report)
    if args.timings:
        report["timings"] = {"total_ms": int((time.monotonic() - started)
                                             * 1000)}
    # per-check verdicts only: a command's own falsified/undecided
    # counts are already reflected in its checks
    verdicts = [c.get("verdict") for c in report.get("checks", [])]
    report["summary"] = {v: verdicts.count(v)
                         for v in ("verified", "falsified", "undecided")}
    return report


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
        text = dump_record(report, args.out)
    except (ParseError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    bad = report["summary"]["falsified"]
    if args.strict:
        bad += report["summary"]["undecided"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
