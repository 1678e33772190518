"""Set-up probe: ``setup_probe.py WORKLOAD`` imports the package in a fresh interpreter.

The in-process workloads then fill the caches their checks use, exactly as
they do before timing starts.
"""

import sys

import gpt_tomo.cli  # noqa: F401

if __name__ == "__main__":
    workload = sys.argv[1]
    if workload == "deep-circuit":
        import circuits

        circuits.warm_up()
    elif workload == "small-checks":
        import small

        small.warm_up()
