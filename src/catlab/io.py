"""File formats: states, Husimi grids, orbits, symbols, reports.

States travel as little-endian binary with a fixed 32-byte header, and are
read back only at the parity angles theta in {0, pi}^2, as exact theta/pi.
Husimi grids are CSV (17 significant digits, row major) with a JSON
sidecar; the CSV bytes are those of np.savetxt(fmt="%.16e", delimiter=","),
which _write_csv formats in numpy, one block of at most 2^15 cells at a
time: a row of +0.0 cells copies one preformatted line, the other rows
are formatted together, and only unusual rows are left to Python's '%'.
Symbol files are only read: Fourier coefficients, or a sampled CSV grid.
Report JSON uses sorted keys and Python's shortest round-trip float
representation, so identical inputs give identical bytes.  Orbit files hold
only integers, in the canonical_json layout byte for byte; they are written
from one Orbits array, the head once and every point numerator through one
'%d' template, and read back into one, every orbit checked at once with
whole-array operations.  A file that cannot be read or parsed raises
ConfigError.
"""

from __future__ import annotations

import gc
import json
import math
import struct
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Union

import numpy as np

from .classical import _INT64_LATTICE_LIMIT, CatMap, Orbits
from .coherent import HusimiGrid
from .errors import ConfigError
from .hilbert import PlanckGrid, QuantumState
from .quantize import Symbol

__all__ = [
    "MAGIC",
    "save_state",
    "load_state",
    "save_husimi_csv",
    "save_orbits_json",
    "load_orbits_json",
    "load_symbol_json",
    "canonical_json",
]

MAGIC = b"CATSTATE"
# the header angles save_state writes, as the exact theta/pi they stand for
_THETA_OVER_PI = {0.0: Fraction(0), math.pi: Fraction(1)}


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def save_state(path: Union[str, Path], state: QuantumState) -> None:
    """Binary state: 32-byte header (magic, N, theta1, theta2), then
    interleaved float64 (re, im) pairs, all little endian."""
    header = MAGIC + struct.pack(
        "<Qdd", state.grid.N, state.grid.theta[0], state.grid.theta[1]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.amplitudes, dtype="<c16"))


def load_state(path: Union[str, Path]) -> QuantumState:
    """A state in save_state's layout; its header angles must be 0 or pi."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(32)
            if len(header) != 32 or header[:8] != MAGIC:
                raise ConfigError(f"{path}: not a CATSTATE file")
            N, t1, t2 = struct.unpack("<Qdd", header[8:])
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read state file {path}: {exc.strerror}") from exc
    if t1 not in _THETA_OVER_PI or t2 not in _THETA_OVER_PI:
        raise ConfigError(f"{path}: theta ({t1!r}, {t2!r}) is not in {{0, pi}}^2")
    if len(data) != 16 * N:
        raise ConfigError(
            f"{path}: expected {16 * N} bytes of amplitudes, found {len(data)}"
        )
    amp = np.frombuffer(data, dtype="<c16").astype(complex)
    grid = PlanckGrid(int(N), (_THETA_OVER_PI[t1], _THETA_OVER_PI[t2]))
    return QuantumState(amp, grid)


# The CSV writer formats '%.16e' fields in numpy.  A cell that is +0.0 copies
# _ZERO_FIELD; a positive cell x with decimal exponent e = floor(log10 x) in
# [-99, 99] is the 17-digit integer round(x 10^(16-e)), spread into the fixed
# 22-byte layout d.dddddddddddddddde+XX.  The product is a double-double:
# Dekker's exact two-product of x and hi(10^k), plus x lo(10^k), where the
# table pair (hi, lo) is 10^k to 2^-106.  A row holding any other cell (-0.0,
# a negative or non-finite value, |e| >= 100, a cell within 1e-9 of a rounding
# tie, or a log10 off by one) is formatted by Python's '%' instead.
_FIELD = 23  # 22 characters and the delimiter
_BLOCK_CELLS = 2**15
_ZERO_FIELD = np.frombuffer(b"0.0000000000000000e+00,", dtype=np.uint8)
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for doubles
_K_MIN = 16 - 99  # the table holds 10^k for k = 16 - e, e in [-99, 99]


def _pow10_pairs():
    """10^k = hi + lo for k in [_K_MIN, _K_MIN + 198], and hi split in two
    26-bit halves: the arrays (hi, lo, hi_hi, hi_lo)."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MIN + 199):
        P, Q = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = P / Q  # int true division rounds correctly
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((P * d - m * Q) / (Q * d))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, np.array(lo), hi_hi, hi - hi_hi


_POW10_HI, _POW10_LO, _POW10_HI_HI, _POW10_HI_LO = _pow10_pairs()


def _format_block(block: np.ndarray):
    """The '%.16e' lines of a C-contiguous float64 block as (lines, python):
    lines is a (rows, cols * 23) uint8 array, exact in every row where the
    bool array python is False; python marks the rows for Python's '%'."""
    rows, cols = block.shape
    x = block.ravel()
    out = np.empty((x.size, _FIELD), dtype=np.uint8)
    out[:] = _ZERO_FIELD
    # nan compares False, so pos holds finite positives only
    pos = (x > 0.0) & (x < 1e100)
    v = x[pos]
    e = np.floor(np.log10(v)).astype(np.int64)
    i = np.clip(16 - e - _K_MIN, 0, len(_POW10_HI) - 1)
    p = v * _POW10_HI[i]
    v_hi = _SPLIT * v
    v_hi -= v_hi - v
    v_lo = v - v_hi
    hh, hl = _POW10_HI_HI[i], _POW10_HI_LO[i]
    # tail = ((v_hi hh - p) + v_hi hl + v_lo hh) + v_lo hl + v lo, in place
    tail = v_hi * hh
    tail -= p
    tail += v_hi * hl
    tail += v_lo * hh
    tail += v_lo * hl
    tail += v * _POW10_LO[i]
    # freed early, as the block's temporaries are the writer's peak memory
    del v, i, v_hi, v_lo, hh, hl
    # p >= 2^53 is an integer whenever e is right; a wrong e puts the digits
    # outside (10^16, 10^17), and 10^16 itself is left to Python too
    whole = np.floor(tail)
    tail -= whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (tail > 0.5)
    del p, whole
    exact = (
        (np.abs(tail - 0.5) >= 1e-9)
        & (digits > 10**16)
        & (digits < 10**17)
        & (e >= -99)
        & (e <= 99)
    )
    # the template's "0" columns take the digits: 9 + 8 of them, each part
    # spread by uint32 divisions by 10 from its last digit
    fields = np.empty((len(digits), _FIELD), dtype=np.uint8)
    fields[:] = _ZERO_FIELD
    top = digits // 10**8
    for part, columns in (
        (digits - top * 10**8, range(17, 9, -1)),
        (top, (9, 8, 7, 6, 5, 4, 3, 2, 0)),
    ):
        q = part.astype(np.uint32)
        for col in columns:
            q10 = q // np.uint32(10)
            fields[:, col] += (q - q10 * np.uint32(10)).astype(np.uint8)
            q = q10
    fields[:, 19] = np.where(e < 0, ord("-"), ord("+"))
    ae = np.abs(e)
    fields[:, 20] += (ae // 10).astype(np.uint8)
    fields[:, 21] += (ae % 10).astype(np.uint8)
    out[pos] = fields
    out.reshape(rows, cols, _FIELD)[:, -1, -1] = ord("\n")
    python = (x != 0.0) | np.signbit(x)
    python[pos] = ~exact
    return out.reshape(rows, cols * _FIELD), python.reshape(rows, cols).any(axis=1)


def _write_csv(path: Union[str, Path], values: np.ndarray) -> None:
    """The bytes of np.savetxt(path, values, fmt="%.16e", delimiter=",") for
    a 2-D array with at least one column, written a block of whole rows (at
    most 2^15 cells, or one longer row) at a time.  A row of +0.0 cells is
    one preformatted line; the other rows of a block are formatted together
    (_format_block)."""
    rows, cols = values.shape
    row_fmt = ",".join(["%.16e"] * cols) + "\n"
    zero_line = (_ZERO_FIELD.tobytes() * cols)[:-1] + b"\n"
    step = max(1, _BLOCK_CELLS // cols)
    with open(path, "wb") as fh:
        for start in range(0, rows, step):
            block = np.ascontiguousarray(values[start : start + step], dtype=np.float64)
            # a row with a bit set holds a cell other than +0.0; -0.0 is one
            live = np.flatnonzero(block.view(np.uint64).any(axis=1))
            lines, python = _format_block(block[live])
            out = [zero_line] * len(block)
            for i, r in enumerate(live.tolist()):
                out[r] = lines[i]
            for r in live[python].tolist():
                out[r] = (row_fmt % tuple(block[r].tolist())).encode("ascii")
            fh.write(b"".join(out))


def save_husimi_csv(path: Union[str, Path], hgrid: HusimiGrid) -> None:
    """G x G CSV, row major (rows = position index), plus a JSON sidecar."""
    path = Path(path)
    _write_csv(path, hgrid.values)
    sidecar = {
        "G": hgrid.G,
        "N": hgrid.grid.N,
        "theta": [hgrid.grid.theta[0], hgrid.grid.theta[1]],
        "matrix": list(hgrid.map_entries),
        "norm_sq": hgrid.state_norm2,
    }
    path.with_suffix(path.suffix + ".json").write_text(canonical_json(sidecar))


# One orbit in the canonical_json layout: sorted keys T, l, matrix, points,
# with indent 1 inside the top-level list.
_ORBIT_HEAD = (
    ' {\n  "T": %d,\n  "l": %d,\n  "matrix": [\n   %d,\n   %d,\n   %d,\n   %d\n  ],'
    '\n  "points": [\n'
)
_ORBIT_POINT = "   [\n    %d,\n    %d\n   ]"
_ORBIT_TAIL = "\n  ]\n }"


def save_orbits_json(path: Union[str, Path], orbits: Orbits, catmap: CatMap) -> None:
    """A JSON list of {"T", "l", "matrix", "points": [[j, k], ...]}.

    The bytes equal canonical_json of that list.  The head (T, l, matrix) is
    formatted once, and all 2 count T point numerators go through one %d
    template: the orbit template repeated count times.
    """
    count, T, _ = orbits.jk.shape
    if not count:
        Path(path).write_text("[]\n")
        return
    head = _ORBIT_HEAD % (T, orbits.l, *catmap.entries)
    orbit = head + ",\n".join([_ORBIT_POINT] * T) + _ORBIT_TAIL
    text = "[\n" + ",\n".join([orbit] * count) + "\n]\n"
    Path(path).write_text(text % tuple(orbits.jk.ravel().tolist()))


class _Defect(Exception):
    """Why a run of orbit documents is not an orbit file's content."""


def _integers(values: list, key: str) -> None:
    """Refuse values that are not all JSON integers (true and false are not)."""
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise _Defect(f'"{key}" holds {json.dumps(bad)}, not an integer')


def _same(values: list, key: str) -> None:
    """Refuse values that are not all equal to the first."""
    if values.count(values[0]) != len(values):
        other = next(v for v in values if v != values[0])
        raise _Defect(f'"{key}" is {json.dumps(other)}, orbit 0 has {json.dumps(values[0])}')


def _parse_orbits(docs: list) -> Orbits:
    """A non-empty list of orbit documents as Orbits, checked with whole-array
    operations; raises _Defect."""
    if set(map(type, docs)) != {dict}:
        raise _Defect("not a JSON object")
    try:
        Ts, ls, matrices, points = (
            list(map(itemgetter(key), docs)) for key in ("T", "l", "matrix", "points")
        )
    except KeyError as exc:
        raise _Defect(f"missing key {exc}") from None
    _integers(Ts, "T")
    _integers(ls, "l")
    if min(Ts) < 1:
        raise _Defect(f"T = {min(Ts)} is below 1")
    if not 1 <= min(ls) <= max(ls) < _INT64_LATTICE_LIMIT:
        bad = next(l for l in ls if not 1 <= l < _INT64_LATTICE_LIMIT)
        raise _Defect(f"l = {bad} outside [1, 2^31)")
    if set(map(type, matrices)) != {list} or set(map(len, matrices)) != {4}:
        raise _Defect('"matrix" is malformed: not a list of 4 integers')
    _integers(list(chain.from_iterable(matrices)), "matrix")
    if set(map(type, points)) != {list}:
        raise _Defect('"points" is malformed: not a list')
    lengths = list(map(len, points))
    if lengths != Ts:
        n, T = next((n, T) for n, T in zip(lengths, Ts) if n != T)
        raise _Defect(f"{n} points, T = {T}")
    pairs = list(chain.from_iterable(points))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        raise _Defect('"points" is malformed: not a list of [j, k] pairs')
    coords = list(chain.from_iterable(pairs))
    _integers(coords, "points")
    # catlab writes one length, lattice and matrix per file
    for values, key in ((Ts, "T"), (ls, "l"), (matrices, "matrix")):
        _same(values, key)
    T, l = Ts[0], ls[0]
    try:
        jk = np.array(coords, dtype=np.int64).reshape(len(docs), T, 2)
    except OverflowError:
        jk = None
    if jk is None or ((jk < 0) | (jk >= l)).any():
        raise _Defect(f"a point lies outside [0, {l})^2")
    a, b, c, d = (v % l for v in matrices[0])
    j, k = jk[..., 0], jk[..., 1]
    if not (
        np.array_equal((a * j + b * k) % l, np.roll(j, -1, axis=1))
        and np.array_equal((c * j + d * k) % l, np.roll(k, -1, axis=1))
    ):
        raise _Defect("M x_t != x_{t+1} mod l")
    # with x_T = x_0, the least period divides T: x_p != x_0 for every
    # proper divisor p of T leaves it T, and then the T points are distinct
    for p in range(1, T):
        if T % p == 0 and (jk[:, p] == jk[:, 0]).all(axis=-1).any():
            raise _Defect(f"the period is shorter than T = {T}")
    jk.flags.writeable = False
    return Orbits(jk, l=l)


def _read_json(path: Path, what: str):
    """The JSON document in path, or a ConfigError naming the file."""
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: not a JSON {what} ({exc})") from exc


def load_orbits_json(path: Union[str, Path]) -> Orbits:
    """Orbits from a file in save_orbits_json's layout.

    Every orbit is checked at once against the file's matrix: integer
    values only, points in [0, l)^2, M x_t = x_{t+1} mod l cyclically, T
    points, no shorter period, and one T, l and matrix for all orbits.  A
    failure raises ConfigError naming the file and the first failing
    orbit's index.  An empty list gives count 0, T = 0 and l = 1.
    """
    # json.loads builds some 10^5 acyclic lists here: the cyclic collector's
    # passes over them during the parse find nothing to free
    collecting = gc.isenabled()
    gc.disable()
    try:
        docs = _read_json(Path(path), "orbit file")
    finally:
        if collecting:
            gc.enable()
    if not isinstance(docs, list):
        raise ConfigError(f"{path}: not a JSON list of orbits")
    if not docs:
        return Orbits(np.empty((0, 0, 2), dtype=np.int64), l=1)
    try:
        return _parse_orbits(docs)
    except _Defect:
        pass
    # every prefix holds orbit 0, so a prefix fails exactly when it holds a
    # failing orbit: bisect for the shortest failing prefix, docs[:i + 1]
    lo, hi = 0, len(docs) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _parse_orbits(docs[: mid + 1])
            lo = mid + 1
        except _Defect:
            hi = mid
    # orbit lo's own defect if it has one, else how it differs from orbit 0
    for run in (docs[: lo + 1], docs[lo : lo + 1]):
        try:
            _parse_orbits(run)
        except _Defect as exc:
            reason = exc
    raise ConfigError(f"{path}: orbit {lo}: {reason}")


def load_symbol_json(path: Union[str, Path]) -> Symbol:
    """{"kind": "fourier", "coefficients": [[n1, n2, re, im], ...]} or
    {"kind": "sampled", "G": G, "grid_csv": name}; other keys are ignored."""
    path = Path(path)
    doc = _read_json(path, "symbol file")
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("fourier", "sampled"):
        raise ConfigError(f"{path}: unknown symbol kind {kind!r}")
    try:
        if kind == "fourier":
            coeffs = {
                (int(r[0]), int(r[1])): complex(r[2], r[3]) for r in doc["coefficients"]
            }
            return Symbol(fourier=coeffs)
        G = int(doc["G"])
        grid_vals = np.loadtxt(path.parent / doc["grid_csv"], delimiter=",")
        if grid_vals.shape != (G, G):
            raise ValueError(f"grid shape {grid_vals.shape} != ({G}, {G})")

        def fn(q, p, _vals=grid_vals, _G=G):
            qi = np.clip((np.asarray(q) * _G).astype(int), 0, _G - 1)
            pi = np.clip((np.asarray(p) * _G).astype(int), 0, _G - 1)
            return _vals[qi, pi]

        return Symbol(fn=fn)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        raise ConfigError(f"{path}: malformed {kind} symbol ({exc})") from exc
