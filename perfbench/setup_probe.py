"""Times one set-up of a workload in a fresh interpreter and prints it in
reference seconds (see bench.CALIBRATION_S).

    python3 perfbench/setup_probe.py MODE WORKERS PROGRAM.tdp...

Set-up is what a user waits for before the first exploration: importing
tdpart, parsing and validating the programs, and starting and connecting
the workers. Worker start is measured through a depth-0 `run_program` in
the given mode, so a change in how the harness starts workers shows here.
The calibration passes run in this process, after the timed part, so they
see the speed the host gave this probe rather than the parent.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tdpart  # noqa: E402


def main() -> None:
    mode, workers, files = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    programs = []
    for f in files:
        program = tdpart.parse_program(Path(f).read_text())
        diags = tdpart.validate(program)
        if diags:
            raise SystemExit(f"{f}: {diags}")
        programs.append(program)
    tdpart.run_program(programs[0], tdpart.RunConfig(mode=mode, workers=workers, final_depth=0))
    seconds = time.perf_counter() - t0

    # after the timed part: these imports are not set-up
    import statistics

    import bench

    calibration = statistics.median(bench.calibration_pass() for _ in range(3))
    print(seconds * bench.CALIBRATION_S / calibration)


if __name__ == "__main__":
    main()
