"""The rows of ``trajectory.csv``: one definition for both of the writer's processes.

``harness.write_trajectory`` formats a run's rows in two processes that meet
in the middle.  Both cut the steps 0..M into one grid of blocks of
``block_steps(N)`` steps, about ``BLOCK_ROWS`` rows each, and keep one rule:
a block belongs to whichever process creates its file first.  Before it
formats the block that starts at step k, a process claims it with
``open(FOLDER/str(k), "x")``, and it stops at the first block the other has
claimed.  The writer walks the grid from step 0 forwards, claims each block
with an empty marker and writes its rows straight into the file.  At the
same time it runs this file as a script, ``python -I -S _rows.py FOLDER M N
ESTIMATED``, which reads the raw float64 values of every step on stdin (see
``main``), walks the grid from the last step backwards and writes each
block's rows into the file that claims it.  The writer then waits for the
helper to exit and appends the helper's blocks in step order.  Each block
is written once, by the process that claimed it, so the bytes never depend
on which process was faster.

This module imports only the standard library.  ``-I`` ignores ``PYTHONPATH``
and the user site, and ``-S`` skips ``site`` and with it site-packages, so
the helper can import neither this package nor NumPy.  In return it starts
in a few milliseconds, and no environment variable can change what it runs.
"""

import os
import sys

TRAJECTORY_COLUMNS = ("step", "segment", "rho", "rho_a", "v", "q", "q_a",
                      "rho_hat", "q_hat", "p_bar_hat", "innovation")
TRUTH_FIELDS = ("rho", "rho_a", "v", "q", "q_a")
N_ESTIMATE_FIELDS = 3                 # rho_hat, q_hat, p_bar_hat

BLOCK_ROWS = 512


def block_steps(n: int) -> int:
    """Steps in a block of the writer's grid on ``n`` segments: blocks start
    at steps 0, s, 2s, ... and the last one ends at step M."""
    return max(1, BLOCK_ROWS // n)


def write_steps(handle, first: int, stop: int, m: int, n: int, columns, innovation) -> None:
    """Write the rows of steps ``first``..``stop``-1 of a run of M = ``m``
    transitions on ``n`` segments, as ``csv.writer`` would write them:
    comma-separated, CRLF-terminated, and no cell needs quoting.

    ``columns`` are the float columns of ``TRAJECTORY_COLUMNS`` from ``rho``
    on, ``innovation`` left out: five truth columns, then three estimate
    columns unless ``innovation`` is None (a truth-only run, whose four
    estimate cells are empty).  Each is flat: step k's values are
    ``column[k * n:(k + 1) * n]``, and any sequence whose slices have
    ``tolist`` serves (a NumPy array, a memoryview of doubles).
    ``innovation[k]`` is step k's scalar innovation, repeated on each of its
    rows; the final step has none.  Every float is written with ``repr``,
    which round-trips float64 exactly.
    """
    segments = [str(i + 1) for i in range(n)]
    for k in range(first, stop):
        if innovation is None:
            end = ",,,,\r\n"
        elif k < m:
            end = "," + repr(float(innovation[k])) + "\r\n"
        else:
            end = ",\r\n"
        lo = k * n
        cells = [[str(k)] * n, segments] + [list(map(repr, c[lo:lo + n].tolist()))
                                            for c in columns]
        handle.write("".join(",".join(row) + end for row in zip(*cells)))


def main() -> None:
    """The helper: each column's values of steps 0..M, then the innovations
    of steps 0..M-1 when ESTIMATED is 1, all native float64, on stdin; the
    rows of each block it claims, from the last block backwards, in the file
    of the folder that claims it, until a block is claimed already."""
    folder = sys.argv[1]
    m, n, estimated = map(int, sys.argv[2:])
    values = memoryview(sys.stdin.buffer.read()).cast("d")
    size = (m + 1) * n
    n_columns = len(TRUTH_FIELDS) + (N_ESTIMATE_FIELDS if estimated else 0)
    columns = [values[i * size:(i + 1) * size] for i in range(n_columns)]
    innovation = values[n_columns * size:] if estimated else None
    steps = block_steps(n)
    for first in reversed(range(0, m + 1, steps)):
        try:
            block = open(os.path.join(folder, str(first)), "x", newline="", encoding="utf-8")
        except FileExistsError:
            break
        with block:
            write_steps(block, first, min(first + steps, m + 1), m, n, columns, innovation)
    # Every claimed block is closed; skipping the interpreter's teardown ends
    # the writer's wait sooner.
    os._exit(0)


if __name__ == "__main__":
    main()
