"""The rows of ``trajectory.csv``: one definition for both of the writer's processes.

``harness.write_trajectory`` formats the first half of a run's steps with
``write_steps`` in its own process and, at the same time, runs this file as a
script, ``python -I -S _rows.py``, for the second half.  The helper reads
``HEADER`` and the raw float64 values of its steps on stdin (see ``main``) and
writes their rows on stdout; the parent appends them to its own.

This module imports only the standard library.  ``-I`` ignores ``PYTHONPATH``
and the user site, and ``-S`` skips ``site`` and with it site-packages, so
the helper can import neither this package nor NumPy.  In return it starts
in a few milliseconds, and no environment variable can change what it runs.
"""

import struct
import sys

TRAJECTORY_COLUMNS = ("step", "segment", "rho", "rho_a", "v", "q", "q_a",
                      "rho_hat", "q_hat", "p_bar_hat", "innovation")
TRUTH_FIELDS = ("rho", "rho_a", "v", "q", "q_a")
N_ESTIMATE_FIELDS = 3                 # rho_hat, q_hat, p_bar_hat

# The helper's first step, M, N, and 1 when the run has estimates, else 0.
HEADER = struct.Struct("=4q")


def write_steps(handle, first: int, stop: int, m: int, n: int, columns, innovation) -> None:
    """Write the rows of steps ``first``..``stop``-1 of a run of M = ``m``
    transitions on ``n`` segments, as ``csv.writer`` would write them:
    comma-separated, CRLF-terminated, and no cell needs quoting.

    ``columns`` are the float columns of ``TRAJECTORY_COLUMNS`` from ``rho``
    on, ``innovation`` left out: five truth columns, then three estimate
    columns unless ``innovation`` is None (a truth-only run, whose four
    estimate cells are empty).  Each is flat and starts at step ``first``:
    step k's values are ``column[(k - first) * n:(k - first + 1) * n]``, and
    any sequence whose slices have ``tolist`` serves (a NumPy array, a
    memoryview of doubles).  ``innovation[k - first]`` is step k's scalar
    innovation, repeated on each of its rows; the final step has none.
    Every float is written with ``repr``, which round-trips float64 exactly.
    """
    segments = [str(i + 1) for i in range(n)]
    for k in range(first, stop):
        if innovation is None:
            end = ",,,,\r\n"
        elif k < m:
            end = "," + repr(float(innovation[k - first])) + "\r\n"
        else:
            end = ",\r\n"
        lo = (k - first) * n
        cells = [[str(k)] * n, segments] + [list(map(repr, c[lo:lo + n].tolist()))
                                            for c in columns]
        handle.write("".join(",".join(row) + end for row in zip(*cells)))


def main() -> None:
    """The helper: ``HEADER``, then each column's values of steps first..M,
    then the innovations of those steps but M, all native float64, on stdin;
    the rows of those steps on stdout."""
    data = sys.stdin.buffer.read()
    first, m, n, estimated = HEADER.unpack_from(data)
    values = memoryview(data)[HEADER.size:].cast("d")
    size = (m + 1 - first) * n
    n_columns = len(TRUTH_FIELDS) + (N_ESTIMATE_FIELDS if estimated else 0)
    columns = [values[i * size:(i + 1) * size] for i in range(n_columns)]
    innovation = values[n_columns * size:] if estimated else None
    with open(sys.stdout.fileno(), "w", encoding="utf-8", newline="", closefd=False) as out:
        write_steps(out, first, m + 1, m, n, columns, innovation)


if __name__ == "__main__":
    main()
