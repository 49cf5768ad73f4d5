#!/usr/bin/env python3
"""CI gates over the BENCH_*.json benchmark outputs (stdlib only).

Usage (e.g. the e12 compiled-core gate):

    check_bench_regression.py --suite e12_compiled_core \\
        <BENCH_e12_compiled_core.json> <baseline.json>

reads baseline["suites"][<name>] and applies:

1. Configs identity: every baselined benchmark's ``configs`` counter must
   EQUAL the baseline exactly (the counts are deterministic, so there is
   no tolerance to give).
2. Intern-pool identity: wherever a benchmark reports ``interned_configs``
   it must equal its ``configs`` (arena bookkeeping cross-check).
3. Memory gate: the maximum ``peak_rss_bytes`` over the run must not exceed
   baseline ``max_peak_rss_bytes`` by more than ``rss_tolerance`` (15%) --
   peak RSS is process-monotone, so the maximum is the only portable
   per-binary reading.

Suites can also declare ``min_counters`` (benchmark name -> {counter:
floor}); each listed counter must be at or above its floor.  The e15 suite
gates the static-decision skip rate this way.  The dual ``max_counters``
(benchmark name -> {counter: ceiling}) gates counters from above; the
e18_out_of_core suite bounds the sampled peak of resident arena bytes at
1.2x each memory budget this way.
"""

import json
import sys


def load_run(path):
    """name -> benchmark record, failing hard on benchmark-level errors."""
    with open(path) as f:
        data = json.load(f)
    run = {}
    errors = []
    for b in data.get("benchmarks", []):
        if b.get("error_occurred"):
            errors.append(f"{b['name']}: {b.get('error_message', 'error')}")
            continue
        run[b["name"]] = b
    if errors:
        for e in errors:
            print(f"FAIL: benchmark reported an error: {e}")
        sys.exit(1)
    if not run:
        print(f"FAIL: no benchmarks found in {path}")
        sys.exit(1)
    return run


def check_suite(run, suite, suite_name):
    """Configs identity + intern cross-check + peak-RSS growth gate."""
    failed = False

    # 1. Exact configs identity against the baseline.
    base_configs = suite.get("configs", {})
    for name, base in sorted(base_configs.items()):
        if name not in run:
            print(f"FAIL: baseline benchmark missing from run: {name}")
            failed = True
            continue
        got = run[name].get("configs")
        if got is None:
            print(f"FAIL: {name}: no 'configs' counter in run")
            failed = True
        elif got != base:
            print(f"FAIL: {name}: configs {got:.0f} != baseline {base} "
                  f"(suite '{suite_name}' gates on identity: the counts are "
                  f"deterministic)")
            failed = True
        else:
            print(f"ok:   {name}: configs {got:.0f} (identical to baseline)")
    if base_configs:
        # Rows without a configs counter (e12's checker rows) have nothing
        # to baseline.
        for name in sorted(set(run) - set(base_configs)):
            if "configs" in run[name]:
                print(f"warn: {name} has no baseline entry -- add it to "
                      f"bench/baseline.json suites.{suite_name}")

    # 2. interned_configs == configs wherever both are reported.
    for name, b in sorted(run.items()):
        if "interned_configs" in b and "configs" in b:
            if b["interned_configs"] != b["configs"]:
                print(f"FAIL: {name}: interned_configs "
                      f"{b['interned_configs']:.0f} != configs "
                      f"{b['configs']:.0f}")
                failed = True

    # 3. Peak-RSS growth gate on the process-wide maximum.
    rss_tolerance = suite.get("rss_tolerance", 0.15)
    base_rss = suite.get("max_peak_rss_bytes", 0)
    peaks = [b["peak_rss_bytes"] for b in run.values()
             if b.get("peak_rss_bytes", 0) > 0]
    if base_rss > 0:
        if not peaks:
            print("FAIL: baseline has max_peak_rss_bytes but the run "
                  "reported no peak_rss_bytes counters")
            failed = True
        else:
            peak = max(peaks)
            limit = base_rss * (1.0 + rss_tolerance)
            verdict = "ok:  " if peak <= limit else "FAIL:"
            print(f"{verdict} peak RSS {peak / 2**20:.1f} MiB vs baseline "
                  f"{base_rss / 2**20:.1f} MiB "
                  f"(+{100 * (peak / base_rss - 1):.1f}%, tolerance "
                  f"{100 * rss_tolerance:.0f}%)")
            if peak > limit:
                failed = True

    # 3b. Counter floors: baseline ``min_counters`` maps benchmark name ->
    # {counter: floor}; the run's counter must be >= the floor (used by the
    # e15 suite to gate the static-decision skip rate, a determinate ratio
    # of the batch composition, never wall-clock).
    for name, floors in sorted(suite.get("min_counters", {}).items()):
        if name not in run:
            print(f"FAIL: min_counters benchmark missing from run: {name}")
            failed = True
            continue
        for counter, floor in sorted(floors.items()):
            got = run[name].get(counter)
            if got is None:
                print(f"FAIL: {name}: no '{counter}' counter in run")
                failed = True
            elif got < floor:
                print(f"FAIL: {name}: {counter} {got} below the baseline "
                      f"floor {floor}")
                failed = True
            else:
                print(f"ok:   {name}: {counter} {got} (floor {floor})")

    # 3c. Counter ceilings: the dual of min_counters -- ``max_counters``
    # maps benchmark name -> {counter: ceiling}; the run's counter must be
    # <= the ceiling (the e18 suite bounds the sampled peak of resident
    # arena bytes at 1.2x each memory budget this way).
    for name, ceilings in sorted(suite.get("max_counters", {}).items()):
        if name not in run:
            print(f"FAIL: max_counters benchmark missing from run: {name}")
            failed = True
            continue
        for counter, ceiling in sorted(ceilings.items()):
            got = run[name].get(counter)
            if got is None:
                print(f"FAIL: {name}: no '{counter}' counter in run")
                failed = True
            elif got > ceiling:
                print(f"FAIL: {name}: {counter} {got} above the baseline "
                      f"ceiling {ceiling}")
                failed = True
            else:
                print(f"ok:   {name}: {counter} {got} (ceiling {ceiling})")

    return 1 if failed else 0


def main(argv):
    args = list(argv[1:])
    if len(args) != 4 or args[0] != "--suite":
        print(__doc__)
        return 2
    suite_name = args[1]
    run = load_run(args[2])
    with open(args[3]) as f:
        baseline = json.load(f)
    suites = baseline.get("suites", {})
    if suite_name not in suites:
        print(f"FAIL: baseline has no suites.{suite_name} section")
        return 1
    return check_suite(run, suites[suite_name], suite_name)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
