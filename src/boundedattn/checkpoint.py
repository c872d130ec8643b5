"""Named-array parameter container.

Layout: a UTF-8 text header, then the raw payload.

    ndarrays <count>
    dense d_in,d_out            (the layout of the dense weights)
    <name> <rows> <cols>        (one line per array, sorted by name)
    end
    <payload>

The payload is each array's little-endian float64 data, row-major, in header
order.  Vectors are stored as (1, dim).  Round-trips are byte-exact.  A
payload that holds NaN or Inf is refused on load, naming its array.

The second line names the dense weights' layout.  A container without it
was written when most of them were stored (d_out, d_in), and is refused:
with square weights, shapes alone would load them transposed.
"""

from __future__ import annotations

import numpy as np

_MAGIC = "ndarrays"
DENSE_LAYOUT = "dense d_in,d_out"


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    items = []
    for name in sorted(arrays):
        if " " in name or "\n" in name:
            raise ValueError(f"array name {name!r} may not contain whitespace")
        a = np.asarray(arrays[name], dtype=np.float64)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise ValueError(f"{name}: only vectors and matrices are stored, got {a.shape}")
        items.append((name, a))

    with open(path, "wb") as f:
        header = [f"{_MAGIC} {len(items)}", DENSE_LAYOUT]
        header += [f"{name} {a.shape[0]} {a.shape[1]}" for name, a in items]
        header.append("end\n")
        f.write("\n".join(header).encode("utf-8"))
        for _, a in items:
            f.write(np.ascontiguousarray(a).astype("<f8").tobytes())


def load_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()

    def next_line(pos):
        end = blob.index(b"\n", pos)
        return blob[pos:end].decode("utf-8"), end + 1

    line, pos = next_line(0)
    magic, count = line.split()
    if magic != _MAGIC:
        raise ValueError(f"not a parameter container: bad magic {magic!r}")
    line, pos = next_line(pos)
    if line != DENSE_LAYOUT:
        raise ValueError(
            f"the container names no {DENSE_LAYOUT!r} layout: it was written when "
            "dense weights were stored (d_out, d_in); retrain to get a loadable one")
    shapes = []
    for _ in range(int(count)):
        line, pos = next_line(pos)
        name, rows, cols = line.split()
        shapes.append((name, int(rows), int(cols)))
    line, pos = next_line(pos)
    if line != "end":
        raise ValueError("malformed container header")

    out = {}
    for name, rows, cols in shapes:
        nbytes = rows * cols * 8
        raw = blob[pos : pos + nbytes]
        if len(raw) != nbytes:
            raise ValueError(f"truncated payload while reading {name!r}")
        out[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
        if not np.isfinite(out[name]).all():
            raise ValueError(f"array {name!r} holds NaN or Inf")
        pos += nbytes
    if pos != len(blob):
        raise ValueError("trailing bytes after final array")
    return out
