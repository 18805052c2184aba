"""Compare two ladder runs cell by cell.

    python3 ladder/compare.py OLD.json NEW.json

Lists every cell (rung and command) whose exit code or report SHA-256
differs between the two ``BENCH_*.json`` files of ``ladder/run.py``, or
that only one of them has, and exits 1 if there is one.  It then prints
the median ratio NEW/OLD of ``wall_ref`` over the cells both have
(``wall_s`` if either file predates ``wall_ref``), and the cells whose
ratio is over ``SLOWER`` and that ran for at least ``LONG_S`` seconds in
either run; shorter cells are mostly interpreter start-up, which a single
run does not resolve.  Last come the cells whose ``peak_rss_mb`` grew by
more than ``LARGER`` times and by at least ``MORE_MB`` megabytes.
"""

import json
import statistics
import sys

SLOWER = 1.3
LONG_S = 1.0
LARGER = 1.1
MORE_MB = 5.0


def cells(path: str) -> dict:
    with open(path) as fh:
        return {(run["rung"], run["command"]): run for run in json.load(fh)["runs"]}


def compare(old: dict, new: dict) -> tuple:
    """(lines that name a differing or missing cell, lines on time and memory)."""
    differ = [f"only in {side}: {rung} {command}"
              for side, have, other in (("OLD", old, new), ("NEW", new, old))
              for rung, command in have if (rung, command) not in other]
    common = [key for key in old if key in new]
    for key in common:
        a, b = old[key], new[key]
        # ladder files before BENCH_23 record no report digest
        was, now = ((c["exit_code"], c.get("report_sha256")) for c in (a, b))
        if was != now:
            differ.append(f"differs: {key[0]} {key[1]}: exit {was[0]} -> {now[0]}, "
                          f"report {was[1]} -> {now[1]}")
    if not common:
        return differ, []
    metric = ("wall_ref" if all("wall_ref" in c for key in common for c in (old[key], new[key]))
              else "wall_s")
    ratios = {key: new[key][metric] / old[key][metric] for key in common}
    timing = [f"median {metric} ratio NEW/OLD over {len(common)} cells: "
              f"{statistics.median(ratios.values()):.3f}"]
    timing += [f"over {SLOWER}x: {key[0]} {key[1]}: {old[key][metric]} -> "
               f"{new[key][metric]} {metric} ({ratio:.2f}x; {old[key]['wall_s']} -> "
               f"{new[key]['wall_s']} s)"
               for key, ratio in ratios.items()
               if ratio > SLOWER and max(old[key]["wall_s"], new[key]["wall_s"]) >= LONG_S]
    rss = {key: (old[key].get("peak_rss_mb"), new[key].get("peak_rss_mb")) for key in common}
    timing += [f"peak RSS over {LARGER}x and +{MORE_MB} MB: {key[0]} {key[1]}: "
               f"{was} -> {now} MB"
               for key, (was, now) in rss.items()
               if None not in (was, now) and now > LARGER * was and now - was >= MORE_MB]
    return differ, timing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    differ, timing = compare(cells(argv[0]), cells(argv[1]))
    print("\n".join(differ + timing))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
