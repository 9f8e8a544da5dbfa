"""Speed probe: fixed exact arithmetic in a fresh interpreter, independent
of nullcore.  run.py times this script as a child process before every
command, so the probe starts and computes the way a CLI command does."""

import random

from reference import kernel_basis

_rng = random.Random(16)
EDGES = tuple((u, w) for u in range(16) for w in range(u + 1, 16)
              if _rng.random() < 0.5)

if __name__ == "__main__":
    for _ in range(2):
        kernel_basis(16, EDGES)
