import itertools
import json
import math
import platform
import struct
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from catlab import (
    ConfigError,
    Orbit,
    Orbits,
    Symbol,
    antiwick_expectation,
    choose_theta,
    enumerate_prime_orbits,
    fixed_point_count,
    husimi,
    torus_coherent,
    validate_cat_map,
    weyl_quantize,
)
from catlab import io as catlab_io
from catlab.cli import build_parser, main, parse_config_file
from catlab.io import (
    MAGIC,
    canonical_json,
    load_orbits_json,
    load_state,
    load_symbol_json,
    save_husimi_csv,
    save_orbits_json,
    save_state,
)
from catlab.quasimodes import CONFIG

from conftest import coarse_husimi, hyperbolic_maps, random_state


def write_fourier_symbol(path, symbol):
    """A "fourier" symbol file holding the symbol's coefficients."""
    coefficients = [[n[0], n[1], c.real, c.imag] for n, c in sorted(symbol.fourier.items())]
    doc = {"kind": "fourier", "coefficients": coefficients}
    path.write_text(json.dumps(doc))


def write_sampled_symbol(path, symbol, G):
    """A "sampled" symbol file and its G x G CSV grid beside it."""
    csv_path = path.with_suffix(".csv")
    np.savetxt(csv_path, np.real(symbol.sample(G)), fmt="%.16e", delimiter=",")
    doc = {"kind": "sampled", "G": G, "grid_csv": csv_path.name}
    path.write_text(json.dumps(doc))


class TestStateFormat:
    def test_binary_roundtrip(self, arnold, tmp_path):
        grid = choose_theta(arnold, 321)
        st = random_state(grid, 5)
        path = tmp_path / "psi.bin"
        save_state(path, st)
        back = load_state(path)
        assert back.grid.N == 321
        assert back.grid.theta == grid.theta
        assert np.array_equal(back.amplitudes, st.amplitudes)

    @pytest.mark.parametrize("N", [320, 321])
    def test_roundtrip_gives_the_exact_parity_grid(self, arnold, tmp_path, N):
        grid = choose_theta(arnold, N)
        path = tmp_path / "psi.bin"
        save_state(path, random_state(grid, 1))
        back = load_state(path).grid
        assert back == grid
        assert back.theta_over_pi == (N % 2, N % 2)

    @pytest.mark.parametrize("theta", [(0.3, 0.0), (math.pi, 1.0), (0.0, -math.pi)])
    def test_off_parity_theta_rejected(self, tmp_path, theta):
        path = tmp_path / "psi.bin"
        path.write_bytes(MAGIC + struct.pack("<Qdd", 4, *theta) + b"\0" * 64)
        named = f"psi.bin: theta \\({theta[0]!r}, {theta[1]!r}\\)"
        with pytest.raises(ConfigError, match=named):
            load_state(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read state file .*nothere.bin"):
            load_state(tmp_path / "nothere.bin")

    def test_header_layout(self, arnold, tmp_path):
        grid = choose_theta(arnold, 16)
        st = random_state(grid, 0)
        path = tmp_path / "psi.bin"
        save_state(path, st)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        assert len(raw) == 32 + 16 * 16
        assert int.from_bytes(raw[8:16], "little") == 16
        inter = np.empty(32)
        inter[0::2] = st.amplitudes.real
        inter[1::2] = st.amplitudes.imag
        assert raw[32:] == inter.astype("<f8").tobytes()

    def test_truncated_amplitudes_rejected(self, arnold, tmp_path):
        path = tmp_path / "psi.bin"
        save_state(path, random_state(choose_theta(arnold, 16), 0))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ConfigError, match="expected 256 bytes of amplitudes, found 253"):
            load_state(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTSTATE" + b"\0" * 40)
        with pytest.raises(ConfigError):
            load_state(path)


class TestHusimiFormat:
    def test_csv_and_sidecar(self, arnold, tmp_path):
        grid = choose_theta(arnold, 256)
        coh = torus_coherent((0.5, 0.5), arnold, grid)
        h = coarse_husimi(coh, arnold, 32)
        path = tmp_path / "h.csv"
        save_husimi_csv(path, h)
        vals = np.loadtxt(path, delimiter=",")
        assert vals.shape == (32, 32)
        assert np.max(np.abs(vals - h.values)) < 1e-12 * np.max(h.values)
        sidecar = json.loads((tmp_path / "h.csv.json").read_text())
        assert sidecar["G"] == 32 and sidecar["N"] == 256
        assert sidecar["matrix"] == [2, 1, 1, 1]
        assert sidecar["norm_sq"] == pytest.approx(coh.norm2())
        np.savetxt(tmp_path / "oracle.csv", h.values, fmt="%.16e", delimiter=",")
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def savetxt_bytes(values, tmp_path):
    """Oracle: the bytes np.savetxt writes with the Husimi CSV format."""
    path = tmp_path / "oracle.csv"
    np.savetxt(path, values, fmt="%.16e", delimiter=",")
    return path.read_bytes()


def writer_bytes(values, tmp_path):
    path = tmp_path / "written.csv"
    catlab_io._write_csv(path, values)
    return path.read_bytes()


def _named_cells():
    """Cells at every edge of the numpy formatter, and on either side of it."""
    cells = [
        0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1e-300, np.inf, -np.inf, np.nan, -np.nan, -1.5, -1e-5, 1.0, 0.1, 0.5,
        1e99, 9.999999999999999e99, 1e100, 1e-99, 1e-100, 1.7976931348623157e308,
        2.0**-25, 3 * 2.0**-25, 2.0**-25 * 7, 1.25e-6 + 2.0**-60,
        9.99999999999999999e22, 1e23, 1e16, 1e17, 2.0**53, 2.0**53 + 2.0,
        0.30000000000000004, 1 / 3, 2 / 3,
    ]
    for k in range(-105, 106):
        p = float(f"1e{k}")
        cells += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    return np.array(cells)


class TestCsvWriter:
    """catlab.io._write_csv against its oracle, np.savetxt with "%.16e"."""

    NAMED = _named_cells()

    def test_named_cells(self, tmp_path):
        for values in (self.NAMED[None, :], self.NAMED[:, None], np.resize(self.NAMED, (100, 7))):
            assert writer_bytes(values, tmp_path) == savetxt_bytes(values, tmp_path)

    @pytest.mark.parametrize(
        "cell, field",
        [
            (2.0**-25, "2.9802322387695312e-08"),  # 2.98023223876953125e-08, half to even
            (3 * 2.0**-25, "8.9406967163085938e-08"),  # 8.94069671630859375e-08
            (0.0, "0.0000000000000000e+00"),
            (-0.0, "-0.0000000000000000e+00"),
            (1e100, "1.0000000000000000e+100"),
            (5e-324, "4.9406564584124654e-324"),
        ],
    )
    def test_exact_fields(self, cell, field, tmp_path):
        row = np.array([[cell, 1e-3, cell]])
        assert writer_bytes(row, tmp_path) == f"{field},1.0000000000000000e-03,{field}\n".encode()

    @settings(max_examples=200, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.one_of(
                st.floats(),
                st.floats(min_value=0.0, max_value=1e6),
                st.just(0.0),
            ),
        ),
        block=st.integers(1, 40),
    )
    def test_matches_savetxt(self, values, block, tmp_path_factory):
        # a small block size makes most shapes span several blocks, the
        # last one partial
        tmp_path = tmp_path_factory.mktemp("csv")
        with mock.patch.object(catlab_io, "_BLOCK_CELLS", block):
            assert writer_bytes(values, tmp_path) == savetxt_bytes(values, tmp_path)

    @settings(max_examples=100, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.one_of(st.floats(min_value=0.0, max_value=1e6), st.just(0.0)),
        ),
        kinds=st.lists(
            st.sampled_from(["keep", "+0", "-0", "+0 then -0"]), min_size=12, max_size=12
        ),
        block=st.integers(1, 40),
    )
    def test_zero_rows(self, values, kinds, block, tmp_path_factory):
        # rows of +0.0 copy one line; a row holding -0.0 is not one of them
        tmp_path = tmp_path_factory.mktemp("csv")
        for row, kind in zip(values, kinds):
            if kind != "keep":
                row[:] = -0.0 if kind == "-0" else 0.0
            if kind == "+0 then -0":
                row[-1] = -0.0
        with mock.patch.object(catlab_io, "_BLOCK_CELLS", block):
            assert writer_bytes(values, tmp_path) == savetxt_bytes(values, tmp_path)

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros((50, 7)),
            np.zeros((3, 1)),
            np.array([[0.0], [1.5], [-0.0], [0.0], [2e-300]]),
        ],
        ids=["all zero", "zero column", "one column"],
    )
    def test_zero_grids(self, values, tmp_path):
        with mock.patch.object(catlab_io, "_BLOCK_CELLS", 8):
            assert writer_bytes(values, tmp_path) == savetxt_bytes(values, tmp_path)

    def test_blocks_of_real_size(self, tmp_path):
        # 2^15 // 47 = 697 rows a block: two full blocks and a partial one,
        # a quarter of the cells exactly 0.0 and one row left to Python
        rng = np.random.default_rng(3)
        values = rng.random((1500, 47)) ** 6
        values[rng.random(values.shape) < 0.25] = 0.0
        values[800, 5] = -1.0
        assert writer_bytes(values, tmp_path) == savetxt_bytes(values, tmp_path)

    def test_streams_its_blocks(self, tmp_path):
        values = np.random.default_rng(0).random((1024, 1024))
        tracemalloc.start()
        try:
            catlab_io._write_csv(tmp_path / "grid.csv", values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = (tmp_path / "grid.csv").stat().st_size
        assert text == 1024 * 1024 * 23
        assert peak < text / 4


def orbit_doc(orbit, catmap):
    """Oracle: one orbit as the document canonical_json lays out in the file."""
    return {
        "matrix": list(catmap.entries),
        "T": orbit.length,
        "l": orbit.l,
        "points": orbit.jk.tolist(),
    }


def _small_orbit_cases():
    """(map, T) for |entries| <= 5, T in 1..4 and l <= 400."""
    return [
        (entries, T)
        for entries in hyperbolic_maps()
        for T in range(1, 5)
        if fixed_point_count(validate_cat_map(*entries), T) <= 400
    ]


class TestOrbitFormat:
    def test_roundtrip(self, arnold, tmp_path):
        orbits = enumerate_prime_orbits(arnold, 2)
        path = tmp_path / "orbits.json"
        save_orbits_json(path, orbits, arnold)
        docs = json.loads(path.read_text())
        assert len(docs) == 2
        assert docs[0]["matrix"] == [2, 1, 1, 1]
        assert docs[0]["T"] == 2 and docs[0]["l"] == 5
        back = load_orbits_json(path)
        assert back[0].jk.tolist() == orbits[0].jk.tolist()
        assert back == orbits

    @settings(deadline=None, max_examples=60)
    @given(case=st.sampled_from(_small_orbit_cases()))
    @example(case=((2, 1, 1, 1), 1))  # l = 1
    def test_bytes_match_canonical_json(self, case, tmp_path_factory):
        entries, T = case
        cat = validate_cat_map(*entries)
        orbits = enumerate_prime_orbits(cat, T)
        path = tmp_path_factory.mktemp("orbits") / "orbits.json"
        save_orbits_json(path, orbits, cat)
        assert path.read_text() == canonical_json([orbit_doc(o, cat) for o in orbits])

    def test_bytes_match_canonical_json_on_benchmark_sizes(self, tmp_path):
        # every (map, T) with entries in 0..4, positive trace and
        # 1000 <= l <= 10^4: the sizes of the orbits benchmark
        cases = [
            (cat, T)
            for entries in itertools.product(range(5), range(1, 5), range(1, 5), range(5))
            if entries[0] * entries[3] - entries[1] * entries[2] == 1
            and entries[0] + entries[3] > 2
            for cat in [validate_cat_map(*entries)]
            for T in range(1, 12)
            if 1000 <= fixed_point_count(cat, T) <= 10_000
        ]
        assert len({fixed_point_count(cat, T) for cat, T in cases}) >= 5
        path = tmp_path / "orbits.json"
        for cat, T in cases:
            orbits = enumerate_prime_orbits(cat, T)
            save_orbits_json(path, orbits, cat)
            assert path.read_text() == canonical_json([orbit_doc(o, cat) for o in orbits])

    def test_empty_list(self, arnold, tmp_path):
        empty = Orbits(np.empty((0, 2, 2), dtype=np.int64), l=5)
        save_orbits_json(tmp_path / "none.json", empty, arnold)
        assert (tmp_path / "none.json").read_text() == canonical_json([]) == "[]\n"
        back = load_orbits_json(tmp_path / "none.json")
        assert len(back) == 0 and list(back) == [] and back.jk.shape == (0, 0, 2)

    def test_quasimode_orbit_file(self, arnold, tmp_path):
        # the one-orbit artifact goes through the same writer
        cfg = write_config(tmp_path, "matrix = 2,1,1,1\nT = 2\nN = 4096\noutputs = orbit\n")
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        orbit = Orbit(np.array(report["orbit"]["points"]), l=report["orbit"]["l"])
        text = (tmp_path / "report.orbit.json").read_text()
        assert text == canonical_json([orbit_doc(orbit, arnold)])
        back = load_orbits_json(tmp_path / "report.orbit.json")
        assert len(back) == 1 and back[0] == orbit

    def test_roundtrip_at_large_lattice(self, arnold, tmp_path):
        orbits = enumerate_prime_orbits(arnold, 12, lattice_guard=200_000)
        save_orbits_json(tmp_path / "o12.json", orbits, arnold)
        back = load_orbits_json(tmp_path / "o12.json")
        assert back.l == orbits.l == 103680
        assert np.array_equal(back.jk, orbits.jk) and back.jk.shape == (8610, 12, 2)
        assert back.jk.dtype == np.int64 and not back.jk.flags.writeable

    def test_late_defect_in_a_large_file(self, arnold, tmp_path):
        path = tmp_path / "o12.json"
        save_orbits_json(path, enumerate_prime_orbits(arnold, 12, lattice_guard=200_000), arnold)
        docs = json.loads(path.read_text())
        docs[8000]["points"][5][1] = 1.5
        docs[8001]["points"][3] = [0, 0]
        path.write_text(json.dumps(docs))
        with pytest.raises(ConfigError, match='o12.json: orbit 8000: "points" holds 1.5'):
            load_orbits_json(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"points": [[2, 4], [3, 5]]}, "outside \\[0, 5\\)"),
            ({"points": [[2, -1], [3, 1]]}, "outside \\[0, 5\\)"),
            ({"points": [[2, 4], [3, 2]]}, "M x_t != x_\\{t\\+1\\}"),
            ({"matrix": [3, 1, 2, 1]}, "M x_t != x_\\{t\\+1\\}"),
            ({"T": 3}, "2 points, T = 3"),
            ({"points": [[2, 4]]}, "1 points, T = 2"),
            ({"points": [[2, 4], [3, 1]] * 2, "T": 4}, "shorter than T = 4"),
            ({"points": [[0, 0], [0, 0]]}, "shorter than T = 2"),
            ({"points": [[2, 4, 0], [3, 1, 0]]}, "malformed"),
            ({"matrix": [2, 1, 1]}, "malformed"),
            ({"l": 2**31}, "outside \\[1, 2\\^31\\)"),
            # a value that int() would coerce is refused, naming the key
            ({"l": 5.9}, '"l" holds 5.9, not an integer'),
            ({"l": True}, '"l" holds true, not an integer'),
            ({"T": True}, '"T" holds true, not an integer'),
            ({"T": 2.0}, '"T" holds 2.0, not an integer'),
            ({"matrix": [2, 1, 1.0, 1]}, '"matrix" holds 1.0, not an integer'),
            ({"matrix": [2, True, 1, 1]}, '"matrix" holds true, not an integer'),
            ({"points": [[1.7, 4], [3, 1]]}, '"points" holds 1.7, not an integer'),
            ({"points": [[2, 4], [3, True]]}, '"points" holds true, not an integer'),
            ({"points": [[2, 4], [3, None]]}, '"points" holds null, not an integer'),
            ({"points": [[2, 4], [3, "1"]]}, '"points" holds "1", not an integer'),
            ({"T": 0, "points": []}, "T = 0 is below 1"),
        ],
    )
    def test_load_rejects_corrupt_orbit(self, arnold, tmp_path, fields, message):
        path = tmp_path / "orbits.json"
        save_orbits_json(path, enumerate_prime_orbits(arnold, 2), arnold)
        docs = json.loads(path.read_text())
        assert docs[1]["points"] == [[2, 4], [3, 1]]
        docs[1].update(fields)
        path.write_text(json.dumps(docs))
        with pytest.raises(ConfigError, match=f"orbits.json: orbit 1: .*{message}"):
            load_orbits_json(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5", "not a JSON list of orbits"),
            ('{"T": 2, "l": 5}', "not a JSON list of orbits"),
            ('"[]"', "not a JSON list of orbits"),
            ("[5]", "orbit 0: not a JSON object"),
            ('[{"T": 1, "l": 1, "matrix": [2, 1, 1, 1]}]', "orbit 0: missing key 'points'"),
        ],
        ids=["number", "object", "string", "list-of-number", "missing-key"],
    )
    def test_load_refuses_other_documents(self, tmp_path, text, message):
        path = tmp_path / "orbits.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_orbits_json(path)
        assert str(info.value) == f"{path}: {message}"

    def test_load_refuses_mixed_lengths_and_lattices(self, arnold, tmp_path):
        # each orbit is valid on its own, but catlab writes one T, l and
        # matrix per file, and Orbits holds one
        docs = []
        for cat, T in ((arnold, 2), (arnold, 3), (validate_cat_map(3, 1, 2, 1), 2)):
            save_orbits_json(tmp_path / "part.json", enumerate_prime_orbits(cat, T), cat)
            docs.append(json.loads((tmp_path / "part.json").read_text())[0])
        path = tmp_path / "orbits.json"
        for second, message in ((docs[1], '"T" is 3, orbit 0 has 2'),
                                (docs[2], '"l" is 12, orbit 0 has 5')):
            path.write_text(json.dumps([docs[0], docs[0], second]))
            with pytest.raises(ConfigError) as info:
                load_orbits_json(path)
            assert str(info.value) == f"{path}: orbit 2: {message}"
        other = dict(docs[0], matrix=[3, 1, 2, 1], points=[[0, 0]], T=1)
        path.write_text(json.dumps([docs[0], dict(other, T=2, points=[[1, 2], [4, 3]])]))
        with pytest.raises(ConfigError, match="orbit 1: M x_t"):
            load_orbits_json(path)

    def test_first_failing_orbit_is_named(self, arnold, tmp_path):
        # a later structural defect does not hide an earlier dynamical one
        path = tmp_path / "orbits.json"
        save_orbits_json(path, enumerate_prime_orbits(arnold, 4), arnold)
        docs = json.loads(path.read_text())
        assert len(docs) == 10
        docs[7]["points"] = "none"
        points = docs[3]["points"]
        docs[3]["points"] = [points[1]] + points[1:]
        path.write_text(json.dumps(docs))
        with pytest.raises(ConfigError, match="orbit 3: M x_t != x_"):
            load_orbits_json(path)
        docs[3]["points"] = points[1:] + points[:1]  # any start is read
        path.write_text(json.dumps(docs))
        with pytest.raises(ConfigError, match='orbit 7: "points" is malformed'):
            load_orbits_json(path)


class TestSymbolFormat:
    def test_fourier_roundtrip(self, tmp_path):
        sym = Symbol.from_fourier({(1, 0): 0.5 + 0.25j, (-1, 0): 0.5 - 0.25j})
        path = tmp_path / "sym.json"
        write_fourier_symbol(path, sym)
        back = load_symbol_json(path)
        assert back.fourier == sym.fourier

    def test_sampled_roundtrip(self, tmp_path):
        lower, _ = __import__("catlab").bump_symbols((0.5, 0.5), 0.1)
        path = tmp_path / "bump.json"
        write_sampled_symbol(path, lower, 64)
        back = load_symbol_json(path)
        c = (np.arange(64) + 0.5) / 64
        got = back.evaluate(c[:, None], c[None, :])
        want = lower.sample(64)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_unread_keys_still_load(self, tmp_path):
        # "rho", which older symbol files carry, is ignored like any other
        # key the loader does not read
        path = tmp_path / "sym.json"
        path.write_text(json.dumps(
            {"kind": "fourier", "rho": 0.7, "coefficients": [[1, 0, 0.5, 0.0]]}
        ))
        assert load_symbol_json(path).fourier == {(1, 0): 0.5}


class TestConfigParser:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# quasimode demo\n"
            "matrix = 2,1,1,1\n"
            "T = 2\n"
            "delta = 0.24\n"
            "N = 1024\n"
            "phi = 0.0\n"
            "frequencies = [[1, 0], [0, 1]]\n"
            'label = "demo"\n'
        )
        parsed = parse_config_file(str(cfg))
        assert parsed["matrix"] == [2, 1, 1, 1]
        assert parsed["T"] == 2 and parsed["N"] == 1024
        assert parsed["delta"] == 0.24
        assert parsed["frequencies"] == [[1, 0], [0, 1]]
        assert parsed["label"] == "demo"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/exp.cfg")

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))


class TestCli:
    def test_orbits_command(self, tmp_path, capsys):
        out = tmp_path / "orbits.json"
        rc = main(["orbits", "--matrix", "2,1,1,1", "--T", "2", "--out", str(out)])
        assert rc == 0
        docs = json.loads(out.read_text())
        assert len(docs) == 2
        assert (tmp_path / "orbits.manifest.json").exists()

    def test_propagator_check(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        rc = main(
            ["propagator-check", "--matrix", "2,1,1,1", "--N", "256", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["unitarity_defect"] < 1e-10
        assert doc["egorov_defect"] < 1e-8

    @pytest.mark.parametrize("matrix, N", [("1,1,8,9", 49231), ("4,3,9,7", 58488)])
    def test_propagator_check_large_cd(self, matrix, N, tmp_path, capsys):
        # large |cd|: the float compatibility residual exceeds 1e-9 here
        out = tmp_path / "check.json"
        argv = ["propagator-check", "--matrix", matrix, "--N", str(N)]
        argv += ["--states", "1", "--nmax", "1", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["theta"] == ([np.pi, np.pi] if N % 2 else [0.0, 0.0])
        assert doc["unitarity_defect"] < 1e-10
        assert doc["egorov_defect"] < 1e-8

    def test_husimi_command(self, arnold, tmp_path):
        grid = choose_theta(arnold, 256)
        st = torus_coherent((0.5, 0.5), arnold, grid)
        save_state(tmp_path / "psi.bin", st)
        # G = 32 < sqrt(2 pi 256): the grid is built, with a resolution warning
        with pytest.warns(UserWarning, match="does not resolve"):
            rc = main(
                [
                    "husimi",
                    "--state", str(tmp_path / "psi.bin"),
                    "--matrix", "2,1,1,1",
                    "--G", "32",
                    "--out", str(tmp_path / "h.csv"),
                ]
            )
        assert rc == 0
        assert np.loadtxt(tmp_path / "h.csv", delimiter=",").shape == (32, 32)

    def test_expect_command_both_modes(self, arnold, tmp_path, capsys):
        grid = choose_theta(arnold, 256)
        st = torus_coherent((0.25, 0.5), arnold, grid)
        save_state(tmp_path / "psi.bin", st)
        sym = Symbol.from_fourier({(1, 0): 0.5, (-1, 0): 0.5}, real=True)
        write_fourier_symbol(tmp_path / "sym.json", sym)
        vals = {}
        for mode in ("aw", "w"):
            rc = main(
                [
                    "expect",
                    "--state", str(tmp_path / "psi.bin"),
                    "--symbol", str(tmp_path / "sym.json"),
                    "--mode", mode,
                    "--matrix", "2,1,1,1",
                    "--G", "128",
                ]
            )
            assert rc == 0
            vals[mode] = json.loads(capsys.readouterr().out)["value"]
        direct_aw = antiwick_expectation(st, sym, arnold)
        assert vals["aw"][0] == pytest.approx(direct_aw.real, abs=1e-12)
        op = weyl_quantize(sym, grid)
        direct_w = np.vdot(st.amplitudes, op.apply(st.amplitudes))
        assert vals["w"][0] == pytest.approx(direct_w.real, abs=1e-12)
        # the two quantizations agree up to the semiclassical gap
        assert vals["aw"][0] == pytest.approx(vals["w"][0], abs=0.05)

    def test_expect_fourier_symbol_builds_no_grid(self, arnold, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("husimi grid built")

        monkeypatch.setattr("catlab.cli.husimi", refuse)
        st = torus_coherent((0.25, 0.5), arnold, choose_theta(arnold, 256))
        save_state(tmp_path / "psi.bin", st)
        sym = Symbol.from_fourier({(1, 0): 0.5, (-1, 0): 0.5})
        write_fourier_symbol(tmp_path / "sym.json", sym)
        argv = ["expect", "--state", str(tmp_path / "psi.bin"), "--symbol",
                str(tmp_path / "sym.json"), "--mode", "aw", "--matrix", "2,1,1,1"]
        assert main(argv) == 0

    def test_expect_sampled_symbol(self, arnold, tmp_path, capsys):
        st = torus_coherent((0.3, 0.65), arnold, choose_theta(arnold, 256))
        save_state(tmp_path / "psi.bin", st)
        sym = Symbol(fn=lambda q, p: np.cos(2 * np.pi * q) * np.sin(2 * np.pi * p) + q * p)
        write_sampled_symbol(tmp_path / "sym.json", sym, 64)
        argv = ["expect", "--state", str(tmp_path / "psi.bin"), "--symbol",
                str(tmp_path / "sym.json"), "--mode", "aw", "--matrix", "2,1,1,1", "--G", "128"]
        assert main(argv) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        # the value of the grid the command builds at --G, as before the
        # expectation stopped building its own
        loaded = load_symbol_json(tmp_path / "sym.json")
        direct = antiwick_expectation(st, loaded, arnold, husimi(st, arnold, 128))
        assert value == [direct.real, direct.imag]
        assert value[0] == pytest.approx(0.43879184621437006, abs=1e-14)

    def test_quasimode_command_and_determinism(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "matrix = 2,1,1,1\nT = 1\nN = 512\nphi = 0.0\nG = 256\n"
            "r_phase = 0.1\nr_physical = 0.09\n"
        )
        out1 = tmp_path / "a" / "report.json"
        out2 = tmp_path / "b" / "report.json"
        assert main(["quasimode", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["quasimode", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["T"] == 1
        assert (tmp_path / "a" / "report.manifest.json").exists()
        assert (tmp_path / "a" / "report.timings.json").exists()
        assert (tmp_path / "a" / "report.state.bin").exists()
        assert (tmp_path / "a" / "report.husimi.csv").exists()
        assert (tmp_path / "a" / "report.orbit.json").exists()

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "width.csv"
        rc = main(
            [
                "sweep",
                "--kind", "husimi-width",
                "--matrix", "2,1,1,1",
                "--ladder", "0,1,2",
                "--N", "1024",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 5  # header + 3 rows + slope footer
        assert lines[-1].startswith("slope,")
        float(lines[-1].split(",")[1])

    def test_exit_code_config_error(self, capsys):
        assert main(["orbits", "--matrix", "1,1,1,1", "--T", "2", "--out", "/tmp/x.json"]) == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("matrix = 2,1,1,1\nN = 4096\n", "config needs a 'T' or an 'orbit_start' entry"),
            ("matrix = 2,1,1\nT = 1\nN = 4096\n", "config key matrix needs 4 integers"),
            ('matrix = "2,1,1,1"\nT = 1\nN = 4096\n', "config key matrix needs 4 integers"),
            ("matrix = [2.5, 1, 1, 1]\nT = 1\nN = 4096\n",
             "config key matrix must be an integer, got 2.5"),
            ("T = 1\nN = 4096\n", "config needs a 'matrix' entry"),
            ("matrix = 2,1,1,1\nT = 2\nN = 4096\ndetla = 0.1\n",
             "unknown config key(s): detla"),
            ("matrix = 2,1,1,1\nT = 2\nN = 4096\nseed = 3\n", "unknown config key(s): seed"),
            ("matrix = 2,1,1,1\nT = 2\nNN = 4096\ng = 256\n", "unknown config key(s): NN, g"),
        ],
        ids=["no-T", "three-entries", "string", "fraction", "no-matrix", "misspelled-delta",
             "seed", "two-unknown"],
    )
    def test_quasimode_config_defects(self, text, named, tmp_path, capsys):
        cfg = write_config(tmp_path, text)
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and named in err

    def test_exit_code_precondition(self, tmp_path, capsys):
        rc = main(
            [
                "orbits",
                "--matrix", "2,1,1,1",
                "--T", "9",
                "--guard", "10",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 3
        assert "error[EnumerationTooLarge]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["orbits", "quasimode"])
    def test_huge_T_refused_from_the_float_bound(self, command, tmp_path, capsys):
        # tr(M^T) at T = 100000 has about 41798 digits: refused from
        # l > e^{lambda T} - 2 with log10 l printed, before any big-integer work
        if command == "orbits":
            argv = ["orbits", "--matrix", "2,1,1,1", "--T", "100000"]
        else:
            argv = ["quasimode", "--config", write_config(tmp_path, "matrix = 2,1,1,1\nT = 100000\n")]
        assert main(argv + ["--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err.strip()
        assert err == (
            "error[EnumerationTooLarge]: lattice denominator l = tr(M^T) - 2 has "
            "log10 l = 41797.5, above the guard 10000 or the int64 limit 2^31"
        )

    @pytest.mark.parametrize("command", ["orbits", "propagator-check", "husimi", "expect",
                                         "quasimode", "sweep", "selftest"])
    def test_out_into_new_directory(self, command, arnold, tmp_path, monkeypatch, capsys):
        import catlab.selftest

        monkeypatch.setattr(catlab.selftest, "CRITERIA", {1: lambda seed=0: {"pass": True}})
        grid = choose_theta(arnold, 64)
        save_state(tmp_path / "psi.bin", torus_coherent((0.5, 0.5), arnold, grid))
        write_fourier_symbol(tmp_path / "sym.json", Symbol.from_fourier({(1, 0): 1.0}))
        (tmp_path / "exp.cfg").write_text("matrix = 2,1,1,1\nT = 1\nN = 512\nG = 64\n")
        state, matrix = ["--state", str(tmp_path / "psi.bin")], ["--matrix", "2,1,1,1"]
        argv = {
            "orbits": matrix + ["--T", "2"],
            "propagator-check": matrix + ["--N", "64", "--states", "2"],
            "husimi": state + matrix + ["--G", "32"],
            "expect": state + matrix + ["--symbol", str(tmp_path / "sym.json"),
                                        "--mode", "w"],
            "quasimode": ["--config", str(tmp_path / "exp.cfg")],
            "sweep": matrix + ["--kind", "husimi-width", "--ladder", "0,1,2",
                               "--N", "64", "--G", "32"],
            "selftest": [],
        }[command]
        out = tmp_path / "new" / "deeper" / "out.json"
        assert main([command, *argv, "--out", str(out)]) == 0
        assert out.exists()
        manifest = json.loads((out.parent / "out.manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        }
        if command != "quasimode":
            # every argument, defaults applied by argparse
            args = vars(build_parser().parse_args([command, *argv, "--out", str(out)]))
            assert manifest["resolved_config"] == {k: v for k, v in args.items() if k != "fn"}

    def test_out_directory_is_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "orbits.json"
        assert main(["orbits", "--matrix", "2,1,1,1", "--T", "2", "--out", str(out)]) == 2
        assert "cannot create the directory of --out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["orbits", "--T", "0"], "T must be >= 1, got 0"),
            (["propagator-check", "--N", "64", "--states", "0"], "got states 0, nmax 3"),
            (["propagator-check", "--N", "0"], "N must be >= 1, got 0"),
            (["propagator-check", "--N", "64", "--nmax", "-1"], "got states 20, nmax -1"),
            (["sweep", "--kind", "waw-gap", "--ladder", "0,64,128"], "N must be >= 1, got 0"),
            (["sweep", "--kind", "husimi-width", "--ladder", "0,1,2", "--N", "0"],
             "N must be >= 1, got 0"),
            (["sweep", "--kind", "husimi-width", "--ladder", "0,1,-1", "--N", "64"],
             "ladder times must be >= 0, got -1"),
            (["sweep", "--kind", "scmeasure", "--ladder", "64,128,256", "--T", "0"],
             "T must be >= 1, got 0"),
            (["sweep", "--kind", "scmeasure", "--ladder", "64,128,256", "--delta", "0.3"],
             "delta must lie in (0, 1/4), got 0.3"),
            (["quasimode", "T = 2\nN = 0\n"], "N must be >= 1, got 0"),
            (["quasimode", "T = 0\nN = 4096\n"], "T must be >= 1, got 0"),
            (["quasimode", "T = 2\nN = 4096\ndelta = 0.3\n"],
             "delta must lie in (0, 1/4), got 0.3"),
            (["quasimode", "T = 2\nN = abc\n"], "config key N must be an integer, got 'abc'"),
            (["quasimode", "T = 2\nN = 4096.9\n"],
             "config key N must be an integer, got 4096.9"),
            (["quasimode", "T = 2.7\nN = 4096\n"], "config key T must be an integer, got 2.7"),
            (["quasimode", "orbit_start = [1, 2.5, 5]\nN = 4096\n"],
             "config key orbit_start must be an integer, got 2.5"),
            (["quasimode", "T = 2\nN = 4096\nfrequencies = 7\n"],
             "config key frequencies needs a list of pairs, got 7"),
            (["quasimode", "T = 2\nN = 4096\ndelta = abc\n"],
             "config key delta must be a finite number, got 'abc'"),
            (["quasimode", "T = 2\nN = 4096\nphi = NaN\n"],
             "config key phi must be a finite number, got nan"),
            (["quasimode", "T = 2\nN = 4096\nC0 = true\n"],
             "config key C0 must be a finite number, got True"),
            (["quasimode", "T = 2\nN = 4096\nr_phase = Infinity\n"],
             "config key r_phase must be a finite number, got inf"),
            (["quasimode", "T = 2\nN = 4096\nC0 = 0\n"], "config key C0 must be positive, got 0"),
            (["quasimode", "T = 2\nN = 4096\nC0 = -1\n"],
             "config key C0 must be positive, got -1"),
            (["quasimode", "T = 2\nN = 4096\nc_sep = 0\n"],
             "config key c_sep must be positive, got 0"),
            (["quasimode", "T = 2\nN = 4096\nc_sep = -1\n"],
             "config key c_sep must be positive, got -1"),
            (["quasimode", "T = 2\nN = 4096\nc1 = 0\n"], "config key c1 must be positive, got 0"),
            (["quasimode", "orbit_start = 1,2,0\nN = 4096\n"],
             "lattice denominator l = 0 must be positive"),
            (["quasimode", "T = 3\norbit_start = 1,2,5\nN = 4096\n"],
             "config key T = 3 differs from the period 2 of orbit_start (1, 2, 5)"),
            (["orbits", "--T", "2", "--guard", "-5"], "lattice guard must be >= 1, got -5"),
            (["orbits", "--T", "2", "--guard", "-2"], "lattice guard must be >= 1, got -2"),
        ],
        ids=["orbits-T", "check-states", "check-N", "check-nmax", "gap-ladder", "width-N",
             "width-ladder", "scmeasure-T", "scmeasure-delta", "quasimode-N", "quasimode-T",
             "quasimode-delta", "quasimode-N-text", "quasimode-N-fraction",
             "quasimode-T-fraction", "quasimode-orbit-start", "quasimode-frequencies",
             "quasimode-delta-text", "quasimode-phi-nan", "quasimode-C0-bool",
             "quasimode-r-phase-inf", "quasimode-C0-zero", "quasimode-C0-negative",
             "quasimode-c-sep-zero", "quasimode-c-sep-negative", "quasimode-c1-zero",
             "quasimode-orbit-start-l", "quasimode-T-against-orbit-start",
             "orbits-guard-minus-5", "orbits-guard-minus-2"],
    )
    def test_out_of_range_input_is_config_error(self, argv, named, tmp_path, capsys):
        if argv[0] == "quasimode":
            cfg = write_config(tmp_path, "matrix = 2,1,1,1\n" + argv[1])
            argv = ["quasimode", "--config", cfg]
        else:
            argv = argv + ["--matrix", "2,1,1,1"]
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and named in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "orbits" in capsys.readouterr().out


def record_calls(monkeypatch, *names):
    """Wrap each named catlab function wherever a catlab module holds it;
    returns name -> list of results, one per call."""
    results = {name: [] for name in names}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "catlab" and not mod_name.startswith("catlab."):
            continue
        for name in names:
            original = vars(module).get(name)
            if original is None:
                continue

            def wrapper(*args, _original=original, _out=results[name], **kwargs):
                result = _original(*args, **kwargs)
                _out.append(result)
                return result

            monkeypatch.setattr(module, name, wrapper)
    return results


def write_config(tmp_path, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    return str(cfg)


class TestQuasimodePipeline:
    CONFIG = "matrix = 2,1,1,1\nT = 2\nN = 4096\nphi = 0.3\nG = 256\n"

    def test_one_pass_per_run(self, tmp_path, monkeypatch):
        calls = record_calls(
            monkeypatch, "choose_theta", "propagator", "build_quasimode", "husimi"
        )
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, self.CONFIG)
        assert main(["quasimode", "--config", cfg, "--out", str(out)]) == 0
        assert {name: len(r) for name, r in calls.items()} == {
            "choose_theta": 1,
            "propagator": 0,
            "build_quasimode": 1,
            "husimi": 1,
        }
        # the written grid is the run's psi_n grid, byte for byte
        hgrid = calls["husimi"][0]
        _, psi_n = calls["build_quasimode"][0]
        assert hgrid.state_norm2 == psi_n.norm2()
        save_husimi_csv(tmp_path / "expected.csv", hgrid)
        for suffix in ("", ".json"):
            written = tmp_path / ("report.husimi.csv" + suffix)
            expected = tmp_path / ("expected.csv" + suffix)
            assert written.read_bytes() == expected.read_bytes()
        assert np.array_equal(
            load_state(tmp_path / "report.state.bin").amplitudes, psi_n.amplitudes
        )

    def test_overlapping_balls_refused_before_building(self, tmp_path, monkeypatch, capsys):
        # with N omitted the schedule gives N = 485, where 2 rho > 1/l
        calls = record_calls(monkeypatch, "propagator", "husimi")
        cfg = write_config(tmp_path, "matrix = 2,1,1,1\nT = 2\n")
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3
        assert "error[BallsOverlap]" in capsys.readouterr().err
        assert {name: len(r) for name, r in calls.items()} == {"propagator": 0, "husimi": 0}

    def test_schedule_past_the_float_range_refused(self, tmp_path, capsys):
        # lambda T/delta = 962 > 709.78: refused before e^{lambda T/delta} is taken
        cfg = write_config(tmp_path, "matrix = 2,1,1,1\nT = 2\ndelta = 0.002\n")
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[NTooLarge]") and "log10 N = 417.2" in err

    @pytest.mark.parametrize("N", [64, 100, 150, 200])
    def test_truncation_refused_before_building(self, N, tmp_path, monkeypatch, capsys):
        # this map's coherent state is squeezed so far that its Gaussian
        # needs more than 64 lattice translates at these N
        calls = record_calls(monkeypatch, "propagator", "husimi")
        cfg = write_config(tmp_path, f"matrix = -300,90901,-1,303\nT = 1\nN = {N}\n")
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3
        assert "error[TruncationFailure]: periodization needs" in capsys.readouterr().err
        assert {name: len(r) for name, r in calls.items()} == {"propagator": 0, "husimi": 0}

    def test_unresolved_balls_refused_before_building(self, tmp_path, monkeypatch, capsys):
        # at N = 2^20 the T = 2 balls have radius 0.0056 < 2/G = 0.0078 at
        # the default G = 256; G >= ceil(2/rho) = 357 resolves them
        calls = record_calls(monkeypatch, "propagator", "husimi")
        cfg = write_config(tmp_path, "matrix = 2,1,1,1\nT = 2\nN = 1048576\n")
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert "error[ResolutionTooCoarse]: ball radius 0.0056" in err
        assert "at G = 256; G >= 357 resolves it" in err
        assert {name: len(r) for name, r in calls.items()} == {"propagator": 0, "husimi": 0}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("r_physical = 0.2", "error[RadiusOutOfRange]: radius 0.2 outside admissible "
             "[0.00134, 0.07500] for physical space at T=2, N=1048576"),
            ("r_phase = 0.5", "error[RadiusOutOfRange]: radius 0.5 outside admissible "
             "[0.00134, 0.10607] for phase space at T=2, N=1048576"),
            ("r_phase = 0.001", "error[RadiusOutOfRange]: radius 0.001 outside admissible "
             "[0.00134, 0.10607] for phase space at T=2, N=1048576"),
            ("frequencies = [[1, 0], [9, 0]]",
             "error[PreconditionError]: frequency (9, 0) outside |n|_inf <= 8"),
        ],
        ids=["physical-above", "phase-above", "phase-below", "frequency"],
    )
    def test_out_of_range_refused_before_building(
        self, line, message, tmp_path, monkeypatch, capsys
    ):
        # the radii and frequencies depend only on N, T and the config, so
        # they are refused before the propagator, quasimode and grid
        calls = record_calls(monkeypatch, "propagator", "husimi")
        cfg = write_config(tmp_path, f"matrix = 2,1,1,1\nT = 2\nN = 1048576\nG = 2048\n{line}\n")
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.strip() == message
        assert {name: len(r) for name, r in calls.items()} == {"propagator": 0, "husimi": 0}

    @pytest.mark.parametrize(
        "text, ran",
        [
            ("T = 2\nphi = 0.3\n", {"T": 2, "orbit_start": [1, 2, 5], "phi": 0.3,
                                      "r_phase": 0.1, "r_physical": 0.05}),
            ("orbit_start = 6,7,5\nr_phase = 0.09\nG = 384\n",
             {"T": 2, "orbit_start": [1, 2, 5], "G": 384, "r_phase": 0.09, "r_physical": 0.05}),
        ],
        ids=["T", "orbit_start"],
    )
    def test_manifest_is_the_config_that_ran(self, text, ran, tmp_path, monkeypatch):
        # every CONFIG key, defaulted ones included, with the value that ran
        calls = record_calls(monkeypatch, "run_pipeline")
        cfg = write_config(tmp_path, "matrix = 2,1,1,1\nN = 4096\n" + text)
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        expected = {key: default for key, (_, default) in CONFIG.items()}
        expected.update(ran, matrix=[2, 1, 1, 1], N=4096)
        expected = json.loads(canonical_json(expected))
        [exp] = calls["run_pipeline"]
        assert json.loads(canonical_json(exp.config)) == expected
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["resolved_config"] == expected

    def test_outputs_key_accepted(self, tmp_path):
        # outputs is the one config key that only the CLI reads
        cfg = write_config(tmp_path, self.CONFIG + 'outputs = ["orbit"]\n')
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        assert (tmp_path / "report.orbit.json").exists()
        assert not (tmp_path / "report.state.bin").exists()
        assert not (tmp_path / "report.husimi.csv").exists()

    @pytest.mark.parametrize(
        "value, name", [("stat", "stat"), ('["orbit", "orbitx"]', "orbitx")]
    )
    def test_unknown_outputs_refused_before_building(
        self, value, name, tmp_path, monkeypatch, capsys
    ):
        calls = record_calls(monkeypatch, "propagator")
        cfg = write_config(tmp_path, self.CONFIG + f"outputs = {value}\n")
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 2
        assert f"unknown output(s) {name} in config key outputs" in capsys.readouterr().err
        assert calls == {"propagator": []}
        assert list(tmp_path.iterdir()) == [tmp_path / "exp.cfg"]

    @pytest.mark.parametrize("value", ["state, orbit", '["state", "orbit"]'])
    def test_outputs_list_writes_exactly_those(self, value, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG + f"outputs = {value}\n")
        assert main(["quasimode", "--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
        assert (tmp_path / "report.state.bin").exists()
        assert (tmp_path / "report.orbit.json").exists()
        assert not (tmp_path / "report.husimi.csv").exists()

    def test_coarse_husimi_side_refused_before_building(
        self, tmp_path, monkeypatch, capsys, recwarn
    ):
        # G = 256 < sqrt(2 pi N) = 320.8 at N = 16384: refused, not warned
        calls = record_calls(monkeypatch, "build_quasimode", "husimi")
        cfg = write_config(tmp_path, self.CONFIG.replace("4096", "16384"))
        out = tmp_path / "report.json"
        assert main(["quasimode", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error[ResolutionTooCoarse]: G = 256 < sqrt(2 pi N) = 320.85 at N = 16384" in err
        assert "G >= 321 resolves sqrt(hbar)" in err
        assert {name: len(r) for name, r in calls.items()} == {"build_quasimode": 0, "husimi": 0}
        assert not out.exists()
        assert not [w for w in recwarn if "does not resolve sqrt(hbar)" in str(w.message)]
        # the least G runs
        cfg = write_config(tmp_path, self.CONFIG.replace("4096", "16384").replace("256", "321"))
        assert main(["quasimode", "--config", cfg, "--out", str(out)]) == 0

    def test_stage_timings(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "report.json"
        assert main(["quasimode", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "report.timings.json").read_text())
        stages = doc["stages"]
        assert set(stages) == {
            "orbit", "theta", "quasimode", "husimi", "ball_report",
            "scmeasure", "nonequi_phase", "nonequi_physical", "artifacts",
        }
        assert all(v >= 0.0 for v in stages.values())
        assert sum(stages.values()) <= doc["total_seconds"]
        assert "total_seconds" not in json.loads(out.read_text())


class TestCliSweepKinds:
    def test_waw_gap_sweep(self, tmp_path):
        out = tmp_path / "gap.csv"
        rc = main(
            [
                "sweep",
                "--kind", "waw-gap",
                "--matrix", "2,1,1,1",
                "--ladder", "128,256,512",
                "--G", "128",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,hbar,gap"
        slope = float(lines[-1].split(",")[1])
        assert -1.3 <= slope <= -0.7

    def test_scmeasure_sweep(self, tmp_path):
        out = tmp_path / "sc.csv"
        rc = main(
            [
                "sweep",
                "--kind", "scmeasure",
                "--matrix", "2,1,1,1",
                "--ladder", "1024,2048,4096",
                "--T", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,hbar,max_error"
        slope = float(lines[-1].split(",")[1])
        assert slope <= -(0.5 - 0.24) + 0.1

    def test_long_ladder_runs_matrix_free(self, tmp_path):
        # eight times the size of any dense N x N gap array that fits in memory
        # here; --G is accepted and read by no gap
        out = tmp_path / "gap.csv"
        rc = main(
            [
                "sweep",
                "--kind", "waw-gap",
                "--matrix", "2,1,1,1",
                "--ladder", "512,2048,16384",
                "--G", "256",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:-1]] == [512, 2048, 16384]
        assert abs(float(lines[-1].split(",")[1]) + 1.0) <= 0.05

    def test_ladder_too_short(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--kind", "waw-gap",
                "--matrix", "2,1,1,1",
                "--ladder", "128,256",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize(
        "ladder, named", [("4,4,4", "[4]"), ("64,128,64,256,128", "[64, 128]")]
    )
    def test_repeated_ladder_points_rejected(self, tmp_path, capsys, ladder, named):
        out = tmp_path / "x.csv"
        rc = main(
            ["sweep", "--kind", "waw-gap", "--matrix", "2,1,1,1", "--ladder", ladder,
             "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and f"repeats the point(s) {named}" in err
        assert not out.exists()

    def test_husimi_width_past_t20(self, tmp_path):
        # tanh(lambda t) rounds to 1 from t = 20 on for Arnold, so the law
        # is read as hbar (1 + e^{2 lambda t})/2 = hbar e^{lambda t} cosh(lambda t)
        out = tmp_path / "width.csv"
        rc = main(["sweep", "--kind", "husimi-width", "--matrix", "2,1,1,1",
                   "--ladder", "0,1,19,20", "--N", "4096", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:-1]]
        lam, hbar = validate_cat_map(2, 1, 1, 1).lyapunov, 1.0 / (2.0 * math.pi * 4096)
        for t, theory in ((int(r[0]), float(r[3])) for r in rows):
            want = hbar * math.exp(lam * t) * math.cosh(lam * t)
            assert math.isfinite(theory) and abs(theory - want) <= 1e-14 * want
        assert abs(float(rows[2][3]) / 1.484e11 - 1.0) < 1e-3

    def test_husimi_width_time_past_the_float_range(self, tmp_path, monkeypatch, capsys):
        # 2 lambda t > 709.78 from t = 369 on for Arnold: refused before
        # the propagator is built
        calls = record_calls(monkeypatch, "propagator")
        rc = main(["sweep", "--kind", "husimi-width", "--matrix", "2,1,1,1",
                   "--ladder", "0,1,369", "--N", "16", "--G", "16",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and "ladder time t = 369" in err
        assert "t <= 368 fits" in err
        assert calls["propagator"] == []


class TestCliSelftest:
    def test_selftest_command_smoke(self, tmp_path, monkeypatch):
        # exercise the CLI wiring with a stubbed criteria table; the real
        # bundle runs in the acceptance suite
        import catlab.selftest as st

        monkeypatch.setattr(
            st, "CRITERIA", {1: lambda seed=0: {"pass": True, "value": 1.0}}
        )
        out = tmp_path / "selftest.json"
        rc = main(["selftest", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["byte_identical"] is True
        assert doc["criteria"]["criterion_1"]["pass"] is True


def test_expect_sampled_symbol_w_mode_rejected(arnold, tmp_path, capsys):
    from catlab import bump_symbols

    grid = choose_theta(arnold, 128)
    save_state(tmp_path / "psi.bin", torus_coherent((0.5, 0.5), arnold, grid))
    lower, _ = bump_symbols((0.5, 0.5), 0.1)
    write_sampled_symbol(tmp_path / "bump.json", lower, 64)
    rc = main(
        [
            "expect",
            "--state", str(tmp_path / "psi.bin"),
            "--symbol", str(tmp_path / "bump.json"),
            "--mode", "w",
            "--matrix", "2,1,1,1",
        ]
    )
    assert rc == 2
    assert "error[config]" in capsys.readouterr().err


class TestCliInputFiles:
    """A state or symbol file that is missing or malformed is a config
    error (exit 2) naming the file, not an internal one."""

    @pytest.fixture
    def files(self, arnold, tmp_path):
        grid = choose_theta(arnold, 64)
        save_state(tmp_path / "psi.bin", torus_coherent((0.5, 0.5), arnold, grid))
        write_fourier_symbol(tmp_path / "sym.json", Symbol.from_fourier({(1, 0): 1.0}))
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "partial.json").write_text('{"kind": "fourier"}')
        return tmp_path

    def run(self, files, command, state, symbol="sym.json"):
        argv = [command, "--state", str(files / state), "--matrix", "2,1,1,1"]
        if command == "husimi":
            argv += ["--G", "32", "--out", str(files / "h.csv")]
        else:
            argv += ["--symbol", str(files / symbol), "--mode", "aw"]
        return main(argv)

    @pytest.mark.parametrize("command", ["husimi", "expect"])
    def test_missing_state(self, files, command, capsys):
        assert self.run(files, command, "nothere.bin") == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]: cannot read state file")
        assert "nothere.bin" in err

    @pytest.mark.parametrize("symbol, named", [
        ("nothere.json", "cannot read symbol file"), ("junk.json", "not a JSON symbol file"),
        ("partial.json", "malformed fourier symbol"),
    ], ids=["missing", "not-json", "malformed"])
    def test_bad_symbol(self, files, symbol, named, capsys):
        assert self.run(files, "expect", "psi.bin", symbol) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and named in err and symbol in err

    def test_husimi_of_off_parity_state(self, files, capsys):
        path = files / "psi.bin"
        raw = path.read_bytes()
        path.write_bytes(raw[:16] + struct.pack("<dd", 0.3, 0.0) + raw[32:])
        assert self.run(files, "husimi", "psi.bin") == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and "theta (0.3, 0.0)" in err
