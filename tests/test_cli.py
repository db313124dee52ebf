from __future__ import annotations

import json

import pytest

from sectorpack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            ["decode", "8/5", "--poly", "4 -4 1 -1 1 0", "--verify-n", "-5", "--value", "3"],
        ],
    )
    def test_bad_argument_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

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
