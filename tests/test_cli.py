from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sectorpack
from sectorpack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_out_the_process_pool():
    # a cold `import sectorpack`, as every CLI command pays it, loads the
    # pool's modules only when a sweep starts one
    src = Path(sectorpack.__file__).resolve().parent.parent
    pool = "{'concurrent.futures.process', 'multiprocessing'}"
    probe = f"import sys, sectorpack; print(sorted({pool} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "[]"


class TestClassifyCmd:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "classify", "8/5")
        assert code == 0
        assert "2 quadratic packing polynomial(s)" in out
        assert "4x^2 - 4xy + y^2 - x + y" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "12/7", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["sector"] == "12/7"
        assert len(data["entries"]) == 4

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "classify", "7/3")
        assert code == 0
        assert "no quadratic packing polynomials" in out

    def test_non_coprime_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "6/4")
        assert code == 2
        assert err

    def test_transport_labels(self, capsys):
        # S(1/m) reduces to the quadrant, which is not a sector S(...)
        code, out, _ = run(capsys, "classify", "1/30")
        assert code == 0
        assert "[cantor-f (from quadrant)]" in out and "[cantor-g (from quadrant)]" in out
        assert "S(quadrant)" not in out
        code, out, _ = run(capsys, "classify", "8/13")
        assert code == 0
        assert "[stair-ascending (from S(8/5))]" in out
        assert "[stair-descending (from S(8/5))]" in out

    def test_malformed_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "6/0x")
        assert code == 2

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["classify"])  # missing sector
        assert exc_info.value.code == 2


class TestVerifyCmd:
    def test_ok(self, capsys):
        code, out, _ = run(
            capsys, "verify", "8/5", "--poly", "4 -4 1 -1 1 0", "--prefix", "1000"
        )
        assert code == 0
        assert out.startswith("ok:")

    def test_failure_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "8/5", "--poly", "4 -4 1 -1 1 1", "--prefix", "10"
        )
        assert code == 1
        assert "missing value 0" in out

    def test_five_fields_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "8/5", "--poly", "4 -4 1 -1 1")
        assert code == 2

    def test_shape_error_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "8/5", "--poly", "1 0 0 0 1 0")
        assert code == 1
        assert "cannot verify" in err

    def test_depth_past_memory_exits_2_before_any_walk(self, capsys):
        # depth 10**20 walks about 10**10 lines: the estimate refuses it
        # at once, where the walk would run for hours
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "8/5", "--poly", "4 -4 1 -1 1 0", "--prefix", str(10**20)
        )
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err.startswith("error: --prefix 100000000000000000000 would walk 10000000001 lines")
        assert err.count("\n") == 1

    def test_prefix_too_large_for_memory_exits_2(self, capsys, monkeypatch):
        import sectorpack.cli as cli

        def out_of_memory(s, p, n_max):
            raise MemoryError

        monkeypatch.setattr(cli, "prefix_check", out_of_memory)
        code, out, err = run(
            capsys, "verify", "8/5", "--poly", "4 -4 1 -1 1 0", "--prefix", "99999999999"
        )
        assert (code, out) == (2, "")
        assert err == "error: the requested size does not fit in memory\n"


class TestCodecCmds:
    def test_encode(self, capsys):
        code, out, _ = run(
            capsys, "encode", "8/5", "--poly", "4 -4 1 -1 1 0", "--point", "4,5"
        )
        assert (code, out.strip()) == (0, "10")

    def test_decode(self, capsys):
        code, out, _ = run(
            capsys, "decode", "8/5", "--poly", "4 -4 1 -1 1 0", "--value", "0"
        )
        assert (code, out.strip()) == (0, "0,0")

    def test_encode_outside_exits_1(self, capsys):
        code, _, err = run(
            capsys, "encode", "8/5", "--poly", "4 -4 1 -1 1 0", "--point", "1,2"
        )
        assert code == 1

    def test_encode_decode_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "decode", "12/7", "--poly", "6 -6 3/2 -8 11/2 2", "--value", "4"
        )
        assert out.strip() == "2,3"
        code, out, _ = run(
            capsys, "encode", "12/7", "--poly", "6 -6 3/2 -8 11/2 2", "--point", "2,3"
        )
        assert out.strip() == "4"

    def test_decode_huge_value(self, capsys):
        value = str(10**20 + 7)
        code, out, _ = run(
            capsys, "decode", "8/5", "--poly", "4 -4 1 -1 1 0", "--value", value
        )
        assert code == 0
        code, again, _ = run(
            capsys, "encode", "8/5", "--poly", "4 -4 1 -1 1 0", "--point", out.strip()
        )
        assert (code, again.strip()) == (0, value)

    def test_descending_without_dual(self, capsys):
        # S(4/9) has no dual sector; its descending k = 1 scheme codes in place
        poly, value = "2 -8 8 3 -7 0", str(10**20)
        code, out, _ = run(capsys, "decode", "4/9", "--poly", poly, "--value", value)
        assert (code, out.strip()) == (0, "57107344060,25018138124")
        code, out, _ = run(capsys, "encode", "4/9", "--poly", poly, "--point", out.strip())
        assert (code, out.strip()) == (0, value)

    def test_non_packing_scheme_exits_1(self, capsys):
        code, _, err = run(
            capsys, "encode", "8/5", "--poly", "4 -4 1 -1 1 3", "--point", "0,0"
        )
        assert code == 1
        assert "cannot build scheme" in err


class TestSearchSweepCmds:
    def test_search(self, capsys):
        code, out, _ = run(capsys, "search", "12/7", "--prefix", "300")
        assert code == 0
        assert "4 polynomial(s)" in out

    def test_search_integral(self, capsys):
        # the k = 2 and k = 3 extras on S(4) and S(3) need no raw grid
        for n in ("3", "4"):
            code, out, _ = run(capsys, "search", n)
            assert code == 0
            assert "4 polynomial(s)" in out
        code, out, _ = run(capsys, "search", "4", "--max-k", "1")
        assert code == 0
        assert "2 polynomial(s)" in out

    def test_search_finds_stair_pair_off_the_grid(self, capsys):
        # (d2, e2) = (3, -41) lies outside the bound-40 box of S(1/14): only
        # its single-pair stair row can find it
        code, out, _ = run(capsys, "search", "1/14", "--raw", "40")
        assert code == 0
        assert "  1/2 -13 169/2 3/2 -41/2 0" in out.splitlines()

    def test_search_defaults(self):
        from sectorpack import SearchParams
        from sectorpack.cli import build_parser
        from sectorpack.codec import MIN_VERIFY_N

        parser = build_parser()
        defaults = SearchParams()
        for argv, raw in ((["search", "8/5"], 0), (["sweep", "--max-n", "1", "--max-m", "1"], 40)):
            args = parser.parse_args(argv)
            assert (args.prefix, args.max_k, args.offset_range, args.raw) == (
                defaults.prefix_n, defaults.max_k, defaults.offset_range, raw
            )
        for command in (["encode", "--point", "0,0"], ["decode", "--value", "0"]):
            args = parser.parse_args([command[0], "8/5", "--poly", "4 -4 1 -1 1 0", *command[1:]])
            assert args.verify_n == MIN_VERIFY_N

    def test_sweep_without_raw_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-n", "6", "--max-m", "6", "--raw", "0", "--workers", "1"
        )
        assert code == 0
        assert "false" not in out
        assert "3,1,4,4,true" in out and "4,1,4,4,true" in out

    def test_sweep_ok(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-n", "4", "--max-m", "4", "--prefix", "200",
            "--workers", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,m,classified_count,search_count,match"
        assert "4,1,4,4,true" in lines

    def test_sweep_single_n(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-n", "1", "--max-m", "1", "--prefix", "100",
            "--workers", "1",
        )
        assert code == 0
        assert out.strip().split("\n")[1] == "1,1,2,2,true"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "8/5", "--poly", "4 -4 1 -1 1 0", "--prefix", "-1"],
            ["search", "8/5", "--prefix", "-1"],
            ["search", "8/5", "--offset-range", "-1"],
            ["search", "8/5", "--raw", "-1"],
            ["sweep", "--max-n", "3", "--max-m", "3", "--prefix", "-1"],
            ["sweep", "--max-n", "3", "--max-m", "3", "--offset-range", "-1"],
            ["sweep", "--max-n", "3", "--max-m", "3", "--raw", "-1"],
            ["search", "8/5", "--max-k", "-1"],
            ["sweep", "--max-n", "3", "--max-m", "3", "--max-k", "-1"],
            ["sweep", "--max-n", "-2", "--max-m", "3"],
            ["sweep", "--max-n", "3", "--max-m", "-1"],
        ],
    )
    def test_negative_depth_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "8/5", "--k", "0"],
            ["construct", "8/5", "--k", "-2"],
            ["render", "8/5", "--poly", "4 -4 1 -1 1 0", "--max-x", "-1"],
            ["render", "8/5", "--poly", "4 -4 1 -1 1 0", "--max-x", "201"],
            ["render", "99999999999999999999/2", "--poly", "4 -4 1 -1 1 0", "--max-x", "3"],
            ["sweep", "--max-n", "2", "--max-m", "2", "--workers", "0"],
            ["decode", "8/5", "--poly", "4 -4 1 -1 1 0", "--verify-n", "-5", "--value", "3"],
        ],
    )
    def test_bad_argument_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_zero_bounds_are_valid(self, capsys):
        code, out, _ = run(capsys, "search", "8/5", "--max-k", "0")
        assert (code, out) == (0, "S(8/5): 0 polynomial(s) verified to N=300\n")
        for max_n, max_m in (("0", "3"), ("3", "0"), ("0", "0")):
            code, out, _ = run(capsys, "sweep", "--max-n", max_n, "--max-m", max_m)
            assert (code, out) == (0, "n,m,classified_count,search_count,match\n")

    def test_bad_thread_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SECTORPACK_THREADS", "abc")
        code, out, err = run(capsys, "sweep", "--max-n", "3", "--max-m", "3")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: SECTORPACK_THREADS must be an integer, got 'abc'"


class TestOtherCmds:
    def test_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "36/25", "--k", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["poly"] == "18 -24 8 -11 8 1"
        assert data["f"] == 1

    def test_construct_impossible_exits_1(self, capsys):
        code, _, err = run(capsys, "construct", "8/5", "--k", "3")
        assert code == 1
        code, _, err = run(capsys, "construct", "4/9", "--k", "3", "--direction", "desc")
        assert code == 1
        assert "cannot construct" in err

    def test_construct_descending_without_dual(self, capsys):
        code, out, _ = run(
            capsys, "construct", "4/9", "--k", "2", "--direction", "desc", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert (data["poly"], data["direction"], data["f"]) == ("2 -8 8 5 -12 1", "desc", 1)

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "4/9", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["target"] == "4/1"
        assert data["map"]["a12"] == -2

    def test_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "8/5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["target"] == "8/5"
        assert data["map"] == {
            "a11": 5, "a12": -3, "a21": 8, "a22": -5,
            "source": "8/5", "target": "8/5",
        }

    def test_dual_integral(self, capsys):
        code, out, _ = run(capsys, "dual", "3/1", "--json")
        assert code == 0
        assert json.loads(out) == {
            "target": "3/4",
            "map": {"a11": 4, "a12": -1, "a21": 3, "a22": -1, "source": "3/1", "target": "3/4"},
        }

    def test_dual_inadmissible_exits_1(self, capsys):
        code, _, err = run(capsys, "dual", "7/3")
        assert code == 1

    def test_render_text(self, capsys):
        code, out, _ = run(
            capsys, "render", "8/5", "--poly", "4 -4 1 -1 1 0", "--max-x", "3"
        )
        assert code == 0
        assert "·" in out and "0" in out

    def test_render_svg(self, capsys):
        code, out, _ = run(
            capsys, "render", "8/5", "--poly", "4 -4 1 -1 1 0", "--max-x", "3",
            "--format", "svg",
        )
        assert code == 0
        assert out.rstrip().endswith("</svg>")


class TestContracts:
    def test_determinism(self, capsys):
        first = run(capsys, "classify", "12/7", "--json")
        second = run(capsys, "classify", "12/7", "--json")
        assert first == second
        a = run(capsys, "sweep", "--max-n", "3", "--max-m", "3", "--workers", "1")
        b = run(capsys, "sweep", "--max-n", "3", "--max-m", "3", "--workers", "1")
        assert a == b

    def test_classify_verify_roundtrip(self, capsys):
        # every classified entry re-verifies through the CLI with exit 0
        import math

        for n in range(1, 7):
            for m in range(1, 7):
                if math.gcd(n, m) != 1:
                    continue
                code, out, _ = run(capsys, "classify", f"{n}/{m}", "--json")
                assert code == 0
                for entry in json.loads(out)["entries"]:
                    code, _, _ = run(
                        capsys, "verify", f"{n}/{m}", "--poly", entry["poly"],
                        "--prefix", "400",
                    )
                    assert code == 0, (n, m, entry["poly"])


POLY = "4 -4 1 -1 1 0"
BAD_SECTORS = ["", "x", "8/", "/5", "8/0", "0/5", "-8/5", "8/-5", "6/4", "8/5/3", "1.5/2"]
BAD_POLYS = ["", "1 2 3", "a b c d e f", "1 2 3 4 5 6 7", "1/0 0 0 0 0 0", "nan 0 0 0 0 0"]
BAD_POINTS = ["", "1", "1,2,3", "a,b", "-1,0", "0,-1", "1.5,2"]
NON_INTEGERS = ["x", "1.5", "1e3", ""]


def _usage_grid():
    """(argv) lists that are usage errors: exit 2."""
    for bad in BAD_SECTORS:
        yield ["classify", bad]
        yield ["construct", bad, "--k", "1"]
        yield ["verify", bad, "--poly", POLY]
        yield ["encode", bad, "--poly", POLY, "--point", "1,1"]
        yield ["decode", bad, "--poly", POLY, "--value", "3"]
        yield ["search", bad, "--prefix", "20"]
        yield ["reduce", bad]
        yield ["dual", bad]
        yield ["render", bad, "--poly", POLY, "--max-x", "3"]
    for bad in BAD_POLYS:
        yield ["verify", "8/5", "--poly", bad]
        yield ["encode", "8/5", "--poly", bad, "--point", "1,1"]
        yield ["decode", "8/5", "--poly", bad, "--value", "3"]
        yield ["render", "8/5", "--poly", bad, "--max-x", "3"]
    for bad in BAD_POINTS:
        yield ["encode", "8/5", "--poly", POLY, "--point", bad]
    int_options = [
        ["construct", "8/5", "--k"],
        ["verify", "8/5", "--poly", POLY, "--prefix"],
        ["decode", "8/5", "--poly", POLY, "--value"],
        ["decode", "8/5", "--poly", POLY, "--value", "1", "--verify-n"],
        ["search", "8/5", "--prefix"],
        ["search", "8/5", "--max-k"],
        ["search", "8/5", "--offset-range"],
        ["search", "8/5", "--raw"],
        ["sweep", "--max-m", "2", "--max-n"],
        ["sweep", "--max-n", "2", "--max-m"],
        ["sweep", "--max-n", "2", "--max-m", "2", "--prefix"],
        ["render", "8/5", "--poly", POLY, "--max-x"],
        ["sweep", "--max-n", "2", "--max-m", "2", "--workers"],
    ]
    for prefix in int_options:
        for bad in ["-1", "-" + "9" * 20, *NON_INTEGERS]:
            yield [*prefix, bad]
    yield from [
        [], ["nosuch"], ["classify"], ["construct", "8/5"], ["verify", "8/5"],
        ["encode", "8/5", "--poly", POLY], ["encode", "8/5", "--point", "1,1"],
        ["decode", "8/5", "--poly", POLY], ["decode", "8/5", "--value", "1"],
        ["search"], ["sweep"], ["sweep", "--max-n", "2"], ["reduce"], ["dual"],
        ["render", "8/5", "--poly", POLY], ["render", "8/5", "--max-x", "3"],
        ["construct", "8/5", "--k", "1", "--direction", "up"],
        ["render", "8/5", "--poly", POLY, "--max-x", "3", "--format", "png"],
        ["render", "9" * 20 + "/2", "--poly", POLY, "--max-x", "3"],
        ["render", "9" * 20 + "/2", "--poly", POLY, "--max-x", "3", "--format", "svg"],
        ["sweep", "--max-n", "2", "--max-m", "2", "--workers", "0"],
    ]


# a refused scheme or a failed check: exit 1
REFUSED = [
    ["verify", "8/5", "--poly", "4 -4 1 -1 1 3", "--prefix", "20"],
    ["verify", "8/5", "--poly", "4 -4 1 -1 1 1/2", "--prefix", "20"],
    ["verify", "8/5", "--poly", "1 0 0 0 1 0"],
    ["verify", "3/1", "--poly", POLY],
    ["encode", "8/5", "--poly", "4 -4 1 -1 1 3", "--point", "1,1"],
    ["encode", "8/5", "--poly", "1.5 0 0 0 0 0", "--point", "1,1"],
    ["encode", "8/5", "--poly", POLY, "--point", "1,2"],
    ["encode", "3/1", "--poly", POLY, "--point", "1,1"],
    ["decode", "8/5", "--poly", "0 0 0 0 0 0", "--value", "3"],
    ["decode", "4/9", "--poly", "2 -4 2 0 0 0", "--value", "1"],
    ["construct", "8/5", "--k", "3"],
    ["dual", "7/3"],
]


class TestFuzz:
    """No traceback on bad input, and the documented exit code."""

    @staticmethod
    def _run(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out, err

    @pytest.mark.parametrize("argv", list(_usage_grid()), ids=repr)
    def test_usage_error_exits_2(self, capsys, argv):
        code, out, err = self._run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "error:" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("argv", REFUSED, ids=repr)
    def test_refusal_exits_1(self, capsys, argv):
        code, _, err = self._run(capsys, argv)
        assert code == 1
