"""Write the value record: the seed-0 CSV of every benchmark command.

    python3 bench/record.py

Run from the root of a source checkout.  Each command of every workload is
run once at seed 0 and its CSV stored as ``record/<command>.csv``; the
benchmark reports its deviation from these files as
``cli.<command>.value_drift``.  Rewrite the record only when a change moves
the values on purpose, and say so in CHANGES.md.
"""

import os
import subprocess
import sys

from checks import RECORD_DIR, check_csv
from run import SRC
from workloads import WORKLOADS, commands


def main() -> int:
    RECORD_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for workload in WORKLOADS:
        for argv in commands(workload, 0):
            out = subprocess.run([sys.executable, "-m", "esvsim.cli", *argv], env=env,
                                 capture_output=True, text=True, check=True).stdout
            problems = check_csv(argv, out)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            (RECORD_DIR / f"{argv[0]}.csv").write_text(out)
            print(f"recorded {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
