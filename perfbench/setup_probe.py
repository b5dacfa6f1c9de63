"""One set-up in a fresh process: import alphacirc and build a workload's inputs.

`run.py` times this script from spawn to exit; that wall time is `setup_s`.
Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys

import checkout
import workloads

if __name__ == "__main__":
    workloads.build_inputs(checkout.import_alphacirc(), sys.argv[1])
