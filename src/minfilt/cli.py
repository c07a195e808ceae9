"""Command-line front end.

Subcommands: ``plan`` (dump a factorization as JSON), ``verify`` (exact and
float equivalence against the direct method), ``filter`` (run a filter over a
signal file), ``table`` (complexity table as TSV).  Exit codes: 0 success,
1 verification failure, 2 usage or input error.

Signal and tap files are plain text, one decimal number per line; blank lines
and ``#`` comments are ignored.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cost import count_naive, count_proposed, savings_report
from .kernels import precompute_diagonal
from .plan import generate_plan, plan_from_json, plan_to_json, validate_plan
from .reference import naive_fir
from .stream import fir_filter

TRIAL_BOUND = 2**20

PUBLISHED_ROWS = {
    # m: (naive_mult, naive_adders, prop_mult, 2in, 3in, 4in, 5in) as printed
    3: (6, 2, 4, "4", "2", "-", "2*"),
    5: (10, 2, 7, "6", "-", "-", "-*"),
    7: (14, 2, 10, "8", "6", "-", "-"),
    9: (18, 2, 12, "12", "8", "-", "-"),
    11: (22, 2, 15, "16", "6", "2", "-"),
}


def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad tap-count list: {text!r}")
    if not values:
        raise ValueError("empty tap-count list")
    return values


def _read_numbers(path: str) -> list[float]:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                values.append(float(body))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {body!r}")
    return values


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_plan(args) -> int:
    m = int(args.taps_count)
    plan = generate_plan(m)
    _write_text(args.output, plan_to_json(plan) + "\n")
    return 0


def _verify_one(plan, label: str, trials: int, seed: int) -> tuple[bool, str]:
    report = validate_plan(plan)
    if not report.ok:
        lines = "\n".join(f"{label}  INVALID: {msg}" for msg in report.failures)
        return False, lines

    # One seeded signal of `trials` windows through the shipped executor.  Its
    # output count is odd, so the last window is zero-padded; output j belongs
    # to window j // 2.
    rng = np.random.default_rng([seed, plan.m])
    w = rng.integers(-TRIAL_BOUND, TRIAL_BOUND + 1, size=plan.m).tolist()
    x = rng.integers(-TRIAL_BOUND, TRIAL_BOUND + 1, size=plan.m + 2 * trials - 2).tolist()

    got = fir_filter(precompute_diagonal(plan, w, exact=True), x)
    pairs = enumerate(zip(got, naive_fir(x, w, exact=True), strict=True))
    exact_bad = len({j // 2 for j, (g, h) in pairs if g != h})

    # Integer data in +-2^20 would make every float operation exact, so the
    # float half draws normal values, which round.  Its error is measured in
    # units of sum|w| * max|x|, the scale of the rounding; NaN fails.
    w = rng.standard_normal(plan.m).tolist()
    x = rng.standard_normal(len(x)).tolist()
    scale = sum(abs(v) for v in w) * max(abs(v) for v in x)
    got = fir_filter(precompute_diagonal(plan, w), x)
    errs = [abs(g - h) / scale for g, h in zip(got, naive_fir(x, w), strict=True)]
    float_bad = len({j // 2 for j, e in enumerate(errs) if not e <= 1e-12})
    max_err = max(errs)

    ok = exact_bad == 0 and float_bad == 0
    line = (
        f"{label}  exact: {'PASS' if exact_bad == 0 else f'FAIL ({exact_bad} identity violations)'}"
        f"  float: {'PASS' if float_bad == 0 else f'FAIL ({float_bad} identity violations)'}"
        f"  max_rel_err={max_err:.2e}  trials={trials}"
    )
    return ok, line


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")

    targets = []
    if args.plan_file is not None:
        with open(args.plan_file) as fh:
            plan = plan_from_json(fh.read())
        targets.append((plan, f"plan-file m={plan.m}"))
    else:
        for m in _parse_m_list(args.taps_count):
            targets.append((generate_plan(m), f"m={m}"))

    all_ok = True
    for plan, label in targets:
        ok, lines = _verify_one(plan, label, args.trials, args.seed)
        print(lines)
        all_ok = all_ok and ok
    print(f"verify: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def cmd_filter(args) -> int:
    x = _read_numbers(args.input)
    w = _read_numbers(args.taps)
    if args.taps_count is not None:
        m = int(args.taps_count)
        if m != len(w):
            raise ValueError(f"-m {m} does not match {len(w)} taps in {args.taps}")
    m = len(w)
    if m < 1:
        raise ValueError(f"no taps in {args.taps}")

    if args.mode == "naive":
        y = naive_fir(x, w)
    else:
        kernel = precompute_diagonal(generate_plan(m), w)
        y = fir_filter(kernel, x)
    _write_text(args.output, "".join(f"{v}\n" for v in y))
    return 0


def cmd_table(args) -> int:
    report = savings_report(_parse_m_list(args.taps_count))
    rows = [(r, count_naive(r.m), count_proposed(generate_plan(r.m))) for r in report]
    fan_ins = range(2, max([5, *(f for _, _, prop in rows for f in prop.adders)]) + 1)

    header = ["M", "naive_mult", "naive_adders(M-input)", "prop_mult"]
    header += [f"adders_{f}in" for f in fan_ins] + ["savings_pct"]
    out = ["\t".join(header)]
    for r, naive, prop in rows:
        cells = [r.m, r.naive_multipliers, naive.adders.get(r.m, 0), r.proposed_multipliers]
        cells += [prop.adders.get(f, 0) for f in fan_ins]
        cells.append(f"{r.savings_pct:.1f}")
        out.append("\t".join(str(c) for c in cells))

    out.append("")
    out.append("# published values (as printed)")
    out.append("\t".join(header[:4] + [f"adders_{f}in" for f in (2, 3, 4, 5)]))
    for m, row in PUBLISHED_ROWS.items():
        out.append("\t".join(str(c) for c in (m, *row)))
    out.append("# * disputed five-input entries: a 2 is printed for M=3, whose dataflow")
    out.append("#   tops out at three-term output sums, while M=5 prints none although each")
    out.append("#   of its outputs sums five products. The derived rows above carry the")
    out.append("#   structural counts, assigning that pair of 5-input adders to M=5.")
    _write_text(args.output, "\n".join(out) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minfilt",
        description="Minimal-multiplication FIR basic operations: plans, verification, filtering, costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="dump the factorization plan for one tap count as JSON")
    p_plan.add_argument("-m", "--taps-count", required=True, help="tap count")
    p_plan.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_plan.set_defaults(func=cmd_plan)

    p_verify = sub.add_parser("verify", help="check kernels against the direct method")
    p_verify.add_argument("-m", "--taps-count", default="3,5,7,9,11",
                          help="comma-separated tap counts (default 3,5,7,9,11)")
    p_verify.add_argument("--trials", type=int, default=1000, help="random windows per tap count")
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_verify.add_argument("--plan-file", default=None,
                          help="verify a plan loaded from this JSON file instead")
    p_verify.set_defaults(func=cmd_verify)

    p_filter = sub.add_parser("filter", help="filter a signal file")
    p_filter.add_argument("input", help="signal file, one sample per line")
    p_filter.add_argument("taps", help="tap file, one coefficient per line")
    p_filter.add_argument("-m", "--taps-count", default=None,
                          help="expected tap count (checked against the tap file)")
    p_filter.add_argument("--mode", choices=("naive", "minimal"), default="minimal")
    p_filter.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_filter.set_defaults(func=cmd_filter)

    p_table = sub.add_parser("table", help="emit the complexity table as TSV")
    p_table.add_argument("-m", "--taps-count", default="3,5,7,9,11",
                         help="comma-separated tap counts (default 3,5,7,9,11)")
    p_table.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
