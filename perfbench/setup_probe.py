"""One set-up of a benchmark run, in a fresh process: import latdisc (and
with it numpy and scipy), build the workload's campaign and its task list,
then print "ready <tasks>". The parent times process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs latdisc on the path)


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    tasks = workloads.task_list(workloads.campaign(name, seed))
    print(f"ready {len(tasks)}", flush=True)


if __name__ == "__main__":
    main()
