"""File formats: states, Husimi grids, orbits, symbols, reports.

States travel as little-endian binary with a fixed 32-byte header, or as
JSON for small N.  Husimi grids are CSV (17 significant digits, row major)
with a JSON sidecar.  Report JSON uses sorted keys and Python's shortest
round-trip float representation, so identical inputs give identical bytes.
Orbit files hold only integers; they are written straight from the orbits'
int64 arrays in the canonical_json layout, byte for byte, and every orbit
read back is checked against the file's matrix.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from .classical import _INT64_LATTICE_LIMIT, CatMap, Orbit
from .coherent import HusimiGrid
from .errors import ConfigError
from .hilbert import PlanckGrid, QuantumState
from .quantize import Symbol

__all__ = [
    "MAGIC",
    "save_state",
    "load_state",
    "save_state_json",
    "load_state_json",
    "save_husimi_csv",
    "save_orbits_json",
    "load_orbits_json",
    "save_symbol_json",
    "load_symbol_json",
    "canonical_json",
]

MAGIC = b"CATSTATE"
JSON_STATE_MAX_N = 256


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def save_state(path: Union[str, Path], state: QuantumState) -> None:
    """Binary state: 32-byte header (magic, N, theta1, theta2), then
    interleaved float64 (re, im) pairs, all little endian."""
    amp = state.amplitudes
    header = MAGIC + struct.pack(
        "<Qdd", state.grid.N, state.grid.theta[0], state.grid.theta[1]
    )
    inter = np.empty(2 * len(amp))
    inter[0::2] = amp.real
    inter[1::2] = amp.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(inter.astype("<f8").tobytes())


def load_state(path: Union[str, Path]) -> QuantumState:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != MAGIC:
            raise ConfigError(f"{path}: not a CATSTATE file")
        N, t1, t2 = struct.unpack("<Qdd", header[8:])
        data = np.frombuffer(fh.read(), dtype="<f8")
    if len(data) != 2 * N:
        raise ConfigError(f"{path}: expected {2 * N} floats, found {len(data)}")
    amp = data[0::2] + 1j * data[1::2]
    return QuantumState(amp, PlanckGrid(int(N), (t1, t2)))


def save_state_json(path: Union[str, Path], state: QuantumState) -> None:
    if state.grid.N > JSON_STATE_MAX_N:
        raise ConfigError(
            f"JSON state format is for N <= {JSON_STATE_MAX_N}; use the binary format"
        )
    doc = {
        "N": state.grid.N,
        "theta": [state.grid.theta[0], state.grid.theta[1]],
        "re": state.amplitudes.real.tolist(),
        "im": state.amplitudes.imag.tolist(),
    }
    Path(path).write_text(canonical_json(doc))


def load_state_json(path: Union[str, Path]) -> QuantumState:
    doc = json.loads(Path(path).read_text())
    amp = np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])
    return QuantumState(amp, PlanckGrid(int(doc["N"]), tuple(doc["theta"])))


def save_husimi_csv(path: Union[str, Path], hgrid: HusimiGrid) -> None:
    """G x G CSV, row major (rows = position index), plus a JSON sidecar."""
    path = Path(path)
    np.savetxt(path, hgrid.values, fmt="%.16e", delimiter=",")
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


def save_orbits_json(
    path: Union[str, Path], orbits: Sequence[Orbit], catmap: CatMap
) -> None:
    """A JSON list of {"T", "l", "matrix", "points": [[j, k], ...]}.

    The bytes equal canonical_json of that list; each orbit is formatted
    from its jk array with one %d template.
    """
    parts = [
        (_ORBIT_HEAD + ",\n".join([_ORBIT_POINT] * o.length) + _ORBIT_TAIL)
        % (o.length, o.l, *catmap.entries, *o.jk.ravel().tolist())
        for o in orbits
    ]
    Path(path).write_text("[\n" + ",\n".join(parts) + "\n]\n" if parts else "[]\n")


def _orbit_defect(jk: np.ndarray, l: int, T: int, matrix) -> Optional[str]:
    """Why jk is not a closed orbit of exact period T of matrix on L_l, or None."""
    if not 1 <= l < _INT64_LATTICE_LIMIT:
        return f"l = {l} outside [1, 2^31)"
    if len(jk) != T:
        return f"{len(jk)} points, T = {T}"
    if ((jk < 0) | (jk >= l)).any():
        return f"a point lies outside [0, {l})^2"
    a, b, c, d = (v % l for v in matrix)
    j, k = jk[:, 0], jk[:, 1]
    image = np.column_stack([(a * j + b * k) % l, (c * j + d * k) % l])
    if not np.array_equal(image, np.roll(jk, -1, axis=0)):
        return "M x_t != x_{t+1} mod l"
    if len(np.unique(j * l + k)) != T:
        return f"the period is shorter than T = {T}"
    return None


def load_orbits_json(path: Union[str, Path]) -> List[Orbit]:
    """Orbits from a file in save_orbits_json's layout.

    Each orbit is checked against the file's matrix (points in [0, l)^2,
    M x_t = x_{t+1} mod l cyclically, T points, no shorter period); a
    failure raises ConfigError naming the file and the orbit index.
    """
    out = []
    for i, doc in enumerate(json.loads(Path(path).read_text())):
        try:
            l, T = int(doc["l"]), int(doc["T"])
            a, b, c, d = (int(v) for v in doc["matrix"])
            jk = np.array(doc["points"], dtype=np.int64).reshape(len(doc["points"]), 2)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: orbit {i}: malformed ({exc})") from exc
        defect = _orbit_defect(jk, l, T, (a, b, c, d))
        if defect is not None:
            raise ConfigError(f"{path}: orbit {i}: {defect}")
        jk.flags.writeable = False
        out.append(Orbit(jk, l=l, prime=True))
    return out


def save_symbol_json(path: Union[str, Path], symbol: Symbol, G: int = 256) -> None:
    """Fourier symbols as [[n1, n2, re, im], ...]; others as a sampled grid."""
    path = Path(path)
    if symbol.fourier is not None:
        doc = {
            "kind": "fourier",
            "rho": symbol.rho,
            "coefficients": [
                [n[0], n[1], c.real, c.imag] for n, c in sorted(symbol.fourier.items())
            ],
        }
        path.write_text(canonical_json(doc))
    else:
        vals = symbol.sample(G)
        csv_path = path.with_suffix(".csv")
        np.savetxt(csv_path, np.real(vals), fmt="%.16e", delimiter=",")
        doc = {"kind": "sampled", "rho": symbol.rho, "G": G, "grid_csv": csv_path.name}
        path.write_text(canonical_json(doc))


def load_symbol_json(path: Union[str, Path]) -> Symbol:
    path = Path(path)
    doc = json.loads(path.read_text())
    if doc.get("kind") == "fourier":
        coeffs = {
            (int(r[0]), int(r[1])): complex(r[2], r[3]) for r in doc["coefficients"]
        }
        return Symbol(fourier=coeffs, rho=float(doc.get("rho", 0.0)))
    if doc.get("kind") == "sampled":
        grid_vals = np.loadtxt(path.parent / doc["grid_csv"], delimiter=",")
        G = int(doc["G"])
        if grid_vals.shape != (G, G):
            raise ConfigError(f"{path}: sampled grid shape {grid_vals.shape} != ({G},{G})")

        def fn(q, p, _vals=grid_vals, _G=G):
            qi = np.clip((np.asarray(q) * _G).astype(int), 0, _G - 1)
            pi = np.clip((np.asarray(p) * _G).astype(int), 0, _G - 1)
            return _vals[qi, pi]

        return Symbol(fn=fn, rho=float(doc.get("rho", 0.0)))
    raise ConfigError(f"{path}: unknown symbol kind {doc.get('kind')!r}")
