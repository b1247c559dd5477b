"""Re-check the golden-record corpus under goldens/, and regenerate it on request.

Run from the repo root: python scripts/make_goldens.py [--overwrite]
Each record in goldens/ stores its config, full-precision expected values,
an explicit tolerance and the oracle that produced it; the records are the
only copy. Every record is evaluated by the golden harness in tests/corpus.py
(imported by putting tests/ on sys.path) and reported as passing or failing.
With --overwrite the produced values replace the stored ones, tolerances
and provenance kept; without it goldens/ is left untouched. Exits 1 when a
record fails without --overwrite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import corpus  # noqa: E402


def main(overwrite: bool) -> int:
    reports = corpus.regenerate_goldens(ROOT / "goldens", overwrite=overwrite)
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        detail = report.error or ", ".join(
            f"{key} {diff['got']!r} (expected {diff['expected']!r}, tol {diff['tol']!r})"
            for key, diff in report.diffs.items() if not diff["ok"]
        )
        action = " (rewritten)" if overwrite and not report.error else ""
        print(f"{status}: {report.name}{action}" + (f": {detail}" if detail else ""))
    failed = sum(not report.passed for report in reports)
    print(f"{len(reports) - failed} of {len(reports)} records pass")
    return 1 if failed and not overwrite else 0


if __name__ == "__main__":
    sys.exit(main(overwrite="--overwrite" in sys.argv))
