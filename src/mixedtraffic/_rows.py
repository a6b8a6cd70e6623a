"""The rows of ``trajectory.csv``: one definition for both of the writer's processes.

``harness.write_trajectory`` formats a run's rows in two processes that meet
in the middle.  Both cut the steps 0..M into one grid of blocks of
``block_steps(N)`` steps, about ``BLOCK_ROWS`` rows each.  This process
formats blocks from step 0 forwards into the file.  At the same time it runs
this file as a script, ``python -I -S _rows.py FOLDER``, which reads
``HEADER`` and the raw float64 values of every step on stdin (see ``main``)
and formats blocks from the last step backwards.  The helper appends each
block it finishes to ``FOLDER/ROWS`` and then the block's end offset in that
file to ``FOLDER/DONE``.  Before each block the writer reads how many
offsets ``DONE`` holds; at the first block the helper has finished it
creates ``FOLDER/STOP``, which the helper checks before each step, waits for
the helper to exit and appends the helper's blocks in step order.  A block
the helper did not finish is one the writer formats, so the bytes never
depend on which process was faster.

This module imports only the standard library.  ``-I`` ignores ``PYTHONPATH``
and the user site, and ``-S`` skips ``site`` and with it site-packages, so
the helper can import neither this package nor NumPy.  In return it starts
in a few milliseconds, and no environment variable can change what it runs.
"""

import io
import os
import struct
import sys

TRAJECTORY_COLUMNS = ("step", "segment", "rho", "rho_a", "v", "q", "q_a",
                      "rho_hat", "q_hat", "p_bar_hat", "innovation")
TRUTH_FIELDS = ("rho", "rho_a", "v", "q", "q_a")
N_ESTIMATE_FIELDS = 3                 # rho_hat, q_hat, p_bar_hat

# M, N, and 1 when the run has estimates, else 0.
HEADER = struct.Struct("=3q")
# The helper's record of a finished block: the end of its rows in ROWS.
OFFSET = struct.Struct("=q")
# The helper's files in the folder it is given.
ROWS, DONE, STOP = "rows", "done", "stop"
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
    """The helper: ``HEADER``, then each column's values of steps 0..M, then
    the innovations of steps 0..M-1, all native float64, on stdin; the rows
    of whole blocks, from the last block backwards, in ROWS of the folder
    named by the first argument, each block's end offset in DONE once its
    rows are there, and no further step once STOP exists."""
    folder = sys.argv[1]
    data = sys.stdin.buffer.read()
    m, n, estimated = HEADER.unpack_from(data)
    values = memoryview(data)[HEADER.size:].cast("d")
    size = (m + 1) * n
    n_columns = len(TRUTH_FIELDS) + (N_ESTIMATE_FIELDS if estimated else 0)
    columns = [values[i * size:(i + 1) * size] for i in range(n_columns)]
    innovation = values[n_columns * size:] if estimated else None
    steps, stop = block_steps(n), os.path.join(folder, STOP)
    with open(os.path.join(folder, ROWS), "wb") as rows, \
            open(os.path.join(folder, DONE), "ab") as done:
        for first in reversed(range(0, m + 1, steps)):
            block = io.StringIO(newline="")
            for k in range(first, min(first + steps, m + 1)):
                if os.path.exists(stop):
                    # Every finished block is flushed; skipping the
                    # interpreter's teardown ends the writer's wait sooner.
                    os._exit(0)
                write_steps(block, k, k + 1, m, n, columns, innovation)
            rows.write(block.getvalue().encode("utf-8"))
            rows.flush()
            done.write(OFFSET.pack(rows.tell()))
            done.flush()


if __name__ == "__main__":
    main()
