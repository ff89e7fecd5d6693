"""Command-line surface: set parsing, subcommands, verification suites and
stable result emission.

Exit codes: 0 success, 1 property violation found, 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import random
import sys
from itertools import combinations, product

from .bounds import triple_moments
from .colouring_hypergraph import ContainerLike, codegree_delta, ha_stats_fast
from .constructions import (
    DenseZeroStatement,
    L1,
    L2,
    claim48_partition,
    construct_by_name,
    mod5_construction,
)
from .intset import IntSet, enumerate_large_sum_free, schur_triples
from .montecarlo import (
    RngSpec,
    SweepCurve,
    default_grid,
    sweep,
    theoretical_thresholds,
)
from .solver import (
    ColourConstraint,
    Colouring,
    DEFAULT_BUDGET,
    SchurStatus,
    Status,
    check_hmin_properties,
    find_loose_cycle,
    find_schur_colouring,
    is_schur,
    minimal_obstruction,
    validate_colouring,
)
from .wickets import count_wickets, iter_wickets

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_Z95 = 1.959963984540054


class UsageError(ValueError):
    pass


def _construction(name: str, n: int | None) -> tuple[IntSet, Colouring | None]:
    """A named construction's set, and the colouring it defines (None when
    it defines none)."""
    obj = construct_by_name(name, n)
    if isinstance(obj, tuple):  # (set, colouring)
        return obj
    if isinstance(obj, DenseZeroStatement):
        return obj.A, obj.colouring_for(obj.A)
    return obj, None


def parse_set(text: str, n: int | None = None) -> IntSet:
    """Set literal "a-b,c,d-e", or "construct:<name>" for named sets."""
    if text.startswith("construct:"):
        return _construction(text[len("construct:") :], n)[0]
    try:
        return IntSet.from_runs(text, n)
    except ValueError as exc:
        raise UsageError(f"bad set literal {text!r}: {exc}") from exc


def _fmt(x: float) -> str:
    return format(x, ".12g")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (lo, hi) for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z2 = _Z95 * _Z95
    phat = successes / trials
    denom = 1 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = (
        _Z95
        * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
        / denom
    )
    return max(0.0, centre - half), min(1.0, centre + half)


def curve_csv(curve: SweepCurve) -> str:
    lines = ["p,trials,schur,not_schur,unknown,mean_sample_size"]
    for pt in curve.points:
        lines.append(
            ",".join(
                [
                    _fmt(pt.p),
                    str(pt.trials),
                    str(pt.schur),
                    str(pt.not_schur),
                    str(pt.unknown),
                    _fmt(pt.mean_sample_size),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def curve_plotdata(curve: SweepCurve) -> str:
    """(x, y, yerr) lines; y is schur_fraction, yerr the Wilson half-widths."""
    lines = []
    for pt in curve.points:
        decided = pt.schur + pt.not_schur
        lo, hi = wilson_interval(pt.schur, decided)
        y = pt.schur_fraction
        lines.append(f"{_fmt(pt.p)} {_fmt(y)} {_fmt(max(y - lo, hi - y))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------- commands


def cmd_check_schur(args) -> int:
    s = parse_set(args.set, args.n)
    verdict = is_schur(s, args.budget)
    print(verdict.value)
    return EXIT_BUDGET if verdict is SchurStatus.UNKNOWN else EXIT_OK


def _load_container(path: str) -> ContainerLike:
    try:
        with open(path) as fh:
            return ContainerLike.from_json_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise UsageError(f"cannot read container {path}: {exc}") from exc


def cmd_colour(args) -> int:
    s = parse_set(args.set, args.n)
    constraint = ColourConstraint()
    if args.container:
        constraint = _load_container(args.container).constraint()
    if args.force_blue:  # overrides the container
        blue = parse_set(args.force_blue, s.n).mask
        constraint = ColourConstraint(constraint.no_red | blue, constraint.no_blue & ~blue)
    outcome = find_schur_colouring(s, constraint, args.budget)
    result = {"status": outcome.status.value, "nodes": outcome.nodes_explored}
    if outcome.witness is not None:
        result["red"] = outcome.witness.red.elements()
        result["blue"] = outcome.witness.blue.elements()
    print(json.dumps(result, sort_keys=True))
    if outcome.status is Status.BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_OK if outcome.status is Status.COLOURABLE else EXIT_VIOLATION


def cmd_construct(args) -> int:
    s, colouring = _construction(args.name, args.n)
    out = {"n": s.n, "set": s.to_runs(), "size": len(s)}
    if colouring is not None:
        out["red"] = colouring.red.elements()
        out["blue"] = colouring.blue.elements()
    if args.validate:
        if colouring is None:
            raise UsageError(f"construction {args.name!r} carries no colouring")
        bad = validate_colouring(s, colouring)
        out["valid"] = not bad
        print(json.dumps(out, sort_keys=True))
        print("valid" if not bad else f"invalid: {len(bad)} monochromatic edges")
        return EXIT_OK if not bad else EXIT_VIOLATION
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_obstruction(args) -> int:
    base = parse_set(args.base, args.n)
    perturb = parse_set(args.perturb, args.n)
    n = max(base.n, perturb.n)
    base = IntSet(n, base)
    union = base.union(IntSet(n, perturb))
    constraints = ColourConstraint.force_blue(base)
    result = minimal_obstruction(union, constraints, args.budget)
    if result.status is Status.BUDGET_EXCEEDED:
        print(json.dumps({"status": result.status.value}, sort_keys=True))
        return EXIT_BUDGET
    if result.status is Status.COLOURABLE:
        print(json.dumps({"status": result.status.value}, sort_keys=True))
        return EXIT_OK
    report = check_hmin_properties(result.hypergraph, base)
    out = {
        "status": result.status.value,
        "edges": [list(e) for e in result.hypergraph.edges],
        "uniform3": report.uniform3,
        "one_base_per_edge": report.one_base_per_edge,
        "linear": report.linear,
    }
    if report.uniform3:
        cycle = find_loose_cycle(result.hypergraph, base)
        out["loose_cycle"] = cycle.to_json_dict() if cycle else None
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_wickets(args) -> int:
    s = parse_set(args.set, args.n)
    chi = parse_set(args.chi, s.n) if args.chi else None
    print(count_wickets(s, chi))
    return EXIT_OK


def cmd_ha_stats(args) -> int:
    base = parse_set(args.base, args.n)
    stats = ha_stats_fast(base, args.n)
    out = {
        "edge_count": stats.edge_count,
        "average_degree": _fmt(stats.average_degree),
        "max_pair_degree": stats.max_pair_degree,
        "max_triple_degree": stats.max_triple_degree,
        "max_quad_degree": stats.max_quad_degree,
    }
    if args.tau is not None:
        out["codegree_delta"] = _fmt(codegree_delta(stats, args.tau))
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _workers(args) -> int:
    if args.workers is not None:
        return args.workers
    return int(os.environ.get("SCHURPERTURB_WORKERS", "1"))


def cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    try:
        n = int(cfg["n"])
        base_name = cfg["base"]
        trials = int(cfg["trials"])
        seed = cfg["seed"]
        if seed is None:
            raise UsageError("sweep requires an explicit seed")
        seed = int(seed)
        budget = int(cfg.get("budget", DEFAULT_BUDGET))
        grid = cfg.get("p_grid", "auto")
        if grid == "auto":
            centre = cfg.get("center")
            if centre is None:
                raise UsageError("auto grid requires a 'center' probability")
            grid = default_grid(float(centre))
        grid = [float(p) for p in grid]
    except KeyError as exc:
        raise UsageError(f"config missing required key {exc}") from exc
    except TypeError as exc:
        raise UsageError(f"malformed config {args.config}: {exc}") from exc
    if not isinstance(base_name, str):
        raise UsageError(f"config 'base' must be a string, not {base_name!r}")
    curve = sweep(
        parse_set(base_name, n),
        n,
        grid,
        trials,
        RngSpec(seed),
        budget=budget,
        workers=_workers(args),
        base=base_name,
    )
    if args.out:
        _write(args.out + ".json", curve.to_json() + "\n")
        _write(args.out + ".csv", curve_csv(curve))
        _write(args.out + ".plot", curve_plotdata(curve))
    else:
        sys.stdout.write(curve.to_json() + "\n")
    return EXIT_OK


def cmd_thresholds(args) -> int:
    record = theoretical_thresholds(args.n, args.t, args.s)
    out = {k: (None if v is None else _fmt(v)) for k, v in record.items()}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_plot_data(args) -> int:
    try:
        with open(args.results) as fh:
            curve = SweepCurve.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read results {args.results}: {exc}") from exc
    text = curve_plotdata(curve)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------ verify suites
# Each suite returns its failure lines. Acceptance criteria 2, 3, 8, 9 and 12
# run hu, prop31, moments, claim48 and stability, so each check exists once.

_VERIFY_SEED = 20260824


def suite_hu(n_max: int = 16) -> list[str]:
    """Every A in [n] with |A| > ceil(4n/5) is Schur (n in 10..n_max); the
    mod-5 sets at n = 10, 15 have that size and a proper colouring."""
    failures = []
    for n in range(10, n_max + 1):
        threshold = math.ceil(4 * n / 5)
        universe = list(range(1, n + 1))
        for size in range(threshold + 1, n + 1):
            for combo in combinations(universe, size):
                s = IntSet(n, combo)
                if is_schur(s) is not SchurStatus.SCHUR:
                    failures.append(f"hu: {s!r} not Schur")
    for n in (10, 15):
        if n > n_max:
            continue
        a, colouring = mod5_construction(n)
        if len(a) != math.ceil(4 * n / 5):
            failures.append(f"hu: mod5({n}) has wrong size {len(a)}")
        if validate_colouring(a, colouring):
            failures.append(f"hu: mod5({n}) colouring not proper")
        if is_schur(a) is not SchurStatus.NOT_SCHUR:
            failures.append(f"hu: mod5({n}) unexpectedly Schur")
    return failures


def prop31_instances(
    n_max: int = 30, seed: int = _VERIFY_SEED, trials: int = 200
) -> list[tuple[str, IntSet]]:
    """The distinct labelled L1 and L2 sets of suite_prop31: all inside
    [n_max], then two random streams inside [200], each drawn from
    random.Random(seed): trials sets from (a, x, d) with a, d <= 40, and
    both sets of trials (a, x, d) with d <= 10 and a <= 50."""
    params = []
    for a, d, x in product(range(1, n_max + 1), repeat=3):
        if a + x + 3 * d <= n_max:
            params.append(("L1", a, x, d))
        if a + 3 * d < x <= n_max:
            params.append(("L2", a, x, d))
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < trials:
        a, d, x = rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 160)
        if a + x + 3 * d <= 200:
            drawn.append(("L1", a, x, d))
        if a + 3 * d < x:
            drawn.append(("L2", a, x, d))
    params += drawn[:trials]
    rng = random.Random(seed)
    for _ in range(trials):
        d, a = rng.randint(1, 10), rng.randint(1, 50)
        x = rng.randint(a + 3 * d + 1, 200 - a - 3 * d)
        params += [("L1", a, x, d), ("L2", a, x, d)]
    # different (a, x, d) can give the same set; it keeps its first label
    first: dict[IntSet, str] = {}
    for name, a, x, d in params:
        first.setdefault((L1 if name == "L1" else L2)(a, x, d), f"{name}({a},{x},{d})")
    return [(label, s) for s, label in first.items()]


def suite_prop31(n_max: int = 30, seed: int = _VERIFY_SEED, trials: int = 200) -> list[str]:
    """Proposition 3.1: every set of prop31_instances is Schur."""
    return [
        f"prop31: {label} not Schur"
        for label, s in prop31_instances(n_max, seed, trials)
        if is_schur(s) is not SchurStatus.SCHUR
    ]


def suite_stability(n_max: int = 22) -> list[str]:
    """Every sum-free S in [n] with |S| > 2n/5 + 1 (n in 10..n_max) is
    odd-only or has min S >= |S|, and some S attains min S = |S|."""
    failures = []
    tight = False
    for n in range(10, n_max + 1):
        min_size = math.floor(2 * n / 5 + 1) + 1
        for s in enumerate_large_sum_free(n, min_size):
            elems = s.elements()
            if all(e % 2 for e in elems):
                continue
            if elems[0] < len(elems):
                failures.append(f"stability: {s!r} neither odd-only nor min >= size")
            tight = tight or elems[0] == len(elems)
    if not tight:
        failures.append(f"stability: min = size never attained for n <= {n_max}")
    return failures


def suite_claim48(n_max: int = 200) -> list[str]:
    """Pair partition invariants for every (n, alpha) with n <= n_max."""
    failures = []
    for n in range(1, n_max + 1):
        for alpha in range(1, n + 1):
            part = claim48_partition(n, alpha)
            seen: set[int] = set()
            for pair in part.pairs:
                u, v = sorted(pair)
                if seen & pair:
                    failures.append(f"claim48: overlap in ({n},{alpha})")
                seen |= pair
                if u + alpha != v and u + v != alpha:
                    failures.append(f"claim48: pair {sorted(pair)} misses alpha={alpha}")
            if len(part.Q) < part.eta - 3:
                failures.append(f"claim48: |Q| too small for ({n},{alpha})")
            if 2 * part.eta < n:
                failures.append(f"claim48: eta < n/2 for ({n},{alpha})")
    return failures


def suite_wickets(n_max: int = 24, seed: int = _VERIFY_SEED, trials: int = 25) -> list[str]:
    """The batched wicket count equals the number of wickets enumerated, on
    [n], n <= n_max, and random sets."""
    failures = []
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        s = IntSet.full(n)
        if count_wickets(s) != sum(1 for _ in iter_wickets(s)):
            failures.append(f"wickets: [n]={n} fast/slow mismatch")
    for _ in range(trials):
        n = rng.randint(10, n_max)
        members = [e for e in range(1, n + 1) if rng.random() < 0.6]
        s = IntSet(n, members)
        if count_wickets(s) != sum(1 for _ in iter_wickets(s)):
            failures.append(f"wickets: random set at n={n} fast/slow mismatch")
    return failures


def suite_moments(seed: int = _VERIFY_SEED, trials: int = 100) -> list[str]:
    """delta_exact <= delta_star = 27(n^2 p^4 + n^3 p^5) on two streams of
    trials random sets in [n], 10 <= n <= 60, with a nondegenerate triple,
    each drawn from random.Random(seed): density 0.7 with p <= 0.5, and
    density 0.6 with p <= 1."""
    failures = []
    for density, p_max in ((0.7, 0.5), (0.6, 1.0)):
        rng = random.Random(seed)
        done = 0
        while done < trials:
            n = rng.randint(10, 60)
            s = IntSet(n, [e for e in range(1, n + 1) if rng.random() < density])
            triples = list(schur_triples(s, nondegenerate_only=True))
            if not triples:
                continue
            p = rng.uniform(0.01, p_max)
            m = triple_moments(triples, n, p)
            if m.delta_exact > m.delta_star:
                failures.append(f"moments: delta_exact > delta_star at n={n}, p={p}")
            done += 1
    return failures


_SUITES = {
    "hu": suite_hu,
    "prop31": suite_prop31,
    "stability": suite_stability,
    "claim48": suite_claim48,
    "wickets": suite_wickets,
    "moments": suite_moments,
}


def cmd_verify(args) -> int:
    suite = _SUITES[args.suite]
    given = {k: v for k in ("n_max", "seed", "trials") if (v := getattr(args, k)) is not None}
    unused = [k for k in given if k not in inspect.signature(suite).parameters]
    if unused:
        names = ", ".join("--" + k.replace("_", "-") for k in unused)
        raise UsageError(f"suite {args.suite} takes no {names}")
    failures = suite(**given)
    for line in failures:
        print(f"FAIL {line}")
    print(f"suite {args.suite}: {'ok' if not failures else f'{len(failures)} failures'}")
    return EXIT_OK if not failures else EXIT_VIOLATION


# ---------------------------------------------------------------- dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurperturb",
        description="Schur sets under random perturbation: solver, "
        "constructions, bounds and Monte Carlo sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("check-schur", cmd_check_schur, help="decide whether a set is Schur")
    p.add_argument("set")
    p.add_argument("--n", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("colour", cmd_colour, help="find a Schur colouring under constraints")
    p.add_argument("set")
    p.add_argument("--n", type=int)
    p.add_argument("--force-blue", dest="force_blue")
    p.add_argument("--container")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("construct", cmd_construct, help="instantiate a named construction")
    p.add_argument("name")
    p.add_argument("--n", type=int)
    p.add_argument("--validate", action="store_true")

    p = add("obstruction", cmd_obstruction, help="minimal obstruction of a perturbed base")
    p.add_argument("base")
    p.add_argument("perturb")
    p.add_argument("--n", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = add("wickets", cmd_wickets, help="count ordered wickets")
    p.add_argument("set")
    p.add_argument("--n", type=int)
    p.add_argument("--chi")

    p = add("ha-stats", cmd_ha_stats, help="colouring-hypergraph statistics")
    p.add_argument("base")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float)

    p = add("sweep", cmd_sweep, help="probability sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)

    p = add("verify", cmd_verify, help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)

    p = add("thresholds", cmd_thresholds, help="theoretical threshold formulas")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--s", type=int)

    p = add("plot-data", cmd_plot_data, help="emit (x, y, yerr) from sweep results")
    p.add_argument("results")
    p.add_argument("--out")

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
