#!/usr/bin/env python3
"""Noise-aware regression gate over perf-lab BENCH_*.json files.

Compares a candidate run against a baseline, metric by metric (matched on
name + sorted params, i.e. BenchResult::Key()). A metric only FAILS when
both hold:

  1. the median moved in the "worse" direction by more than the metric's
     allowed ratio (its embedded `gate_max_ratio`, else --default-max-ratio
     from the command line), and
  2. the shift is statistically significant: a one-sided Mann-Whitney U
     test over the RAW samples rejects "no shift" at --alpha (skipped when
     either side has < 3 samples, where the rank test has no power; the
     ratio check alone decides).

This is why the schema carries raw samples: medians alone cannot separate
a regression from run-to-run noise. Deterministic simulator metrics ship
with tight ratios (1.02) and fail on any real drift; wall-clock metrics
ship with generous ratios (3.0) so the gate is meaningful on any machine.

A baseline metric the candidate does not report also FAILS: deleting or
renaming a row must not silently drop its gate (refresh the baseline in
the same change instead).

Exit codes: 0 ok / only warnings, 1 regression detected, 2 bad input.
stdlib only — no scipy/numpy on purpose.

Usage:
  tools/perf_gate.py BASELINE.json CANDIDATE.json [--warn-only]
                     [--alpha 0.01] [--default-max-ratio 1.25]
  tools/perf_gate.py --selftest
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def result_key(result: dict) -> str:
    """Mirror of BenchResult::Key(): name plus |k=v for sorted params."""
    key = result.get("name", "")
    for k in sorted(result.get("params", {})):
        key += f"|{k}={result['params'][k]}"
    return key


def median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def mann_whitney_p_greater(x: list[float], y: list[float]) -> float:
    """One-sided p-value for H1 "y is stochastically greater than x".

    Normal approximation with tie correction and continuity correction —
    adequate for the >= 3 samples/side this gate requires before trusting
    significance at all.
    """
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        return 1.0
    tagged = sorted([(v, 0) for v in x] + [(v, 1) for v in y])
    total = n1 + n2
    rank_sum_y = 0.0
    tie_term = 0.0
    i = 0
    while i < total:
        j = i
        while j < total and tagged[j][0] == tagged[i][0]:
            j += 1
        avg_rank = (i + j + 1) / 2.0  # 1-based average rank of the tie run
        ties = j - i
        tie_term += ties**3 - ties
        rank_sum_y += avg_rank * sum(1 for k in range(i, j) if tagged[k][1])
        i = j
    u_y = rank_sum_y - n2 * (n2 + 1) / 2.0
    mean_u = n1 * n2 / 2.0
    var_u = n1 * n2 / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if var_u <= 0.0:  # all values tied: no evidence of a shift
        return 1.0
    z = (u_y - mean_u - 0.5) / math.sqrt(var_u)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def compare_metric(base: dict, cand: dict, alpha: float,
                   default_max_ratio: float) -> tuple[str, str]:
    """Returns (verdict, detail); verdict in {ok, warn, fail}."""
    bs = [float(v) for v in base.get("samples", [])]
    cs = [float(v) for v in cand.get("samples", [])]
    if not bs or not cs:
        return "warn", "empty sample vector"
    higher_better = bool(cand.get("higher_is_better",
                                  base.get("higher_is_better", False)))
    max_ratio = float(cand.get("gate_max_ratio", 0.0)) or \
        float(base.get("gate_max_ratio", 0.0)) or default_max_ratio
    bm, cm = median(bs), median(cs)
    if min(bm, cm) <= 0.0:
        return "warn", f"non-positive median (base {bm:g}, cand {cm:g})"
    ratio = (bm / cm) if higher_better else (cm / bm)
    detail = (f"median {bm:g} -> {cm:g} "
              f"(worse-ratio {ratio:.3f}, allowed {max_ratio:g})")
    if ratio <= max_ratio:
        return "ok", detail
    # Median moved past the threshold; demand significance when we have
    # enough samples for the rank test to mean anything.
    if min(len(bs), len(cs)) >= 3:
        p = mann_whitney_p_greater(cs, bs) if higher_better \
            else mann_whitney_p_greater(bs, cs)
        detail += f", p={p:.4g}"
        if p >= alpha:
            return "warn", detail + " (not significant; likely noise)"
    return "fail", detail


def load_suite(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        suite = json.load(f)
    schema = suite.get("schema", "")
    if schema != "dear.bench/1":
        raise ValueError(f"{path}: unsupported schema '{schema}'")
    if not isinstance(suite.get("results"), list):
        raise ValueError(f"{path}: missing results array")
    return suite


def run_gate(args: argparse.Namespace) -> int:
    try:
        base = load_suite(args.baseline)
        cand = load_suite(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"perf_gate: {e}", file=sys.stderr)
        return 2
    base_by_key = {result_key(r): r for r in base["results"]}
    cand_by_key = {result_key(r): r for r in cand["results"]}

    failures = warnings = 0
    for key, br in base_by_key.items():
        cr = cand_by_key.get(key)
        if cr is None:
            # A dropped or renamed row would silently drop its gate.
            failures += 1
            print(f"FAIL {key}: missing from candidate")
            continue
        verdict, detail = compare_metric(br, cr, args.alpha,
                                         args.default_max_ratio)
        if verdict == "fail":
            failures += 1
            print(f"FAIL {key}: {detail}")
        elif verdict == "warn":
            warnings += 1
            print(f"WARN {key}: {detail}")
        elif args.verbose:
            print(f"  ok {key}: {detail}")
    for key in cand_by_key:
        if key not in base_by_key and args.verbose:
            print(f"  new {key} (no baseline; not gated)")

    compared = len(set(base_by_key) & set(cand_by_key))
    print(f"perf_gate: {compared} metrics compared, "
          f"{failures} regressions, {warnings} warnings")
    if failures and args.warn_only:
        print("perf_gate: --warn-only set; reporting regressions "
              "without failing")
        return 0
    return 1 if failures else 0


def selftest() -> int:
    """The gate must accept identical data, also from a machine with a
    different environment fingerprint, and reject a 2x slowdown and a
    dropped metric."""
    rng_state = 12345

    def noise() -> float:  # deterministic LCG; no reliance on random's impl
        nonlocal rng_state
        rng_state = (rng_state * 1103515245 + 12345) % (1 << 31)
        return rng_state / float(1 << 31)

    base_samples = [10.0 + noise() for _ in range(20)]
    suite = lambda samples: {  # noqa: E731 - tiny local factory
        "schema": "dear.bench/1",
        "suite": "selftest",
        "results": [{
            "name": "selftest.latency_ms",
            "unit": "ms",
            "higher_is_better": False,
            "gate_max_ratio": 1.25,
            "params": {},
            "samples": samples,
        }],
    }

    class Args:
        alpha = 0.01
        default_max_ratio = 1.25
        warn_only = False
        verbose = False

    import tempfile
    import os

    def gate(baseline_suite: dict, candidate_suite: dict) -> int:
        args = Args()
        with tempfile.TemporaryDirectory() as d:
            args.baseline = os.path.join(d, "base.json")
            args.candidate = os.path.join(d, "cand.json")
            with open(args.baseline, "w", encoding="utf-8") as f:
                json.dump(baseline_suite, f)
            with open(args.candidate, "w", encoding="utf-8") as f:
                json.dump(candidate_suite, f)
            return run_gate(args)

    identical = gate(suite(base_samples), suite(list(base_samples)))
    slowdown = gate(suite(base_samples),
                    suite([2.0 * v for v in base_samples]))
    jitter = gate(suite(base_samples),
                  suite([v * (1.0 + 0.02 * noise()) for v in base_samples]))
    dropped_suite = suite(base_samples)
    dropped_suite["results"] = []
    dropped = gate(suite(base_samples), dropped_suite)
    # The environment block (compiler, cores, ...) describes the run; it is
    # never gated, so a baseline from another machine still compares.
    other_machine = suite(list(base_samples))
    other_machine["environment"] = {"cores": "64", "compiler": "clang 17.0"}
    environment = gate(suite(base_samples), other_machine)
    ok = (identical == 0 and slowdown == 1 and jitter == 0 and dropped == 1
          and environment == 0)
    print(f"selftest: identical={identical} (want 0), "
          f"2x-slowdown={slowdown} (want 1), small-jitter={jitter} (want 0), "
          f"dropped-metric={dropped} (want 1), "
          f"other-environment={environment} (want 0)"
          f" -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("candidate", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument("--alpha", type=float, default=0.01,
                        help="significance level for the Mann-Whitney test")
    parser.add_argument("--default-max-ratio", type=float, default=1.25,
                        help="allowed worse-ratio for metrics without an "
                             "embedded gate_max_ratio")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (CI mode)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate catches a 2x slowdown and a "
                             "dropped metric, and accepts identical/noisy "
                             "reruns")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
