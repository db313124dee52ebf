from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from sectorpack import LatticePoint, QuadPoly, RenderSpec, render, sector

P_PLUS = QuadPoly.from_string("4 -4 1 -1 1 0")
P127 = QuadPoly.from_string("6 -6 3/2 -8 11/2 2")


def grid_cells(text: str) -> list[list[str]]:
    return [line.split() for line in text.strip("\n").split("\n")]


class TestTextRender:
    def test_fig1_cell(self):
        out = render(RenderSpec(sector(8, 5), P_PLUS, max_x=3))
        rows = grid_cells(out)
        # rows run y = 4..0, columns x = 0..3; (x, y) = (2, 3) holds value 2
        y_max = 4
        assert rows[y_max - 3][2] == "2"
        assert rows[y_max - 0][0] == "0"

    def test_single_cell(self):
        out = render(RenderSpec(sector(8, 5), replace(P_PLUS, f=7), max_x=0))
        assert out.strip() == "7"

    def test_fig3_cells(self):
        out = render(RenderSpec(sector(12, 7), P127, max_x=2))
        rows = grid_cells(out)
        y_max = 2 * 12 // 7
        assert rows[y_max - 0][1] == "0"   # (1, 0)
        assert rows[y_max - 1][1] == "1"   # (1, 1)
        assert rows[y_max - 0][0] == "2"   # (0, 0)

    def test_all_cells_match_eval(self):
        s = sector(8, 5)
        rows = grid_cells(render(RenderSpec(s, P_PLUS, max_x=6)))
        y_max = 6 * 8 // 5
        for row_idx, row in enumerate(rows):
            y = y_max - row_idx
            for x, cell in enumerate(row):
                pt = LatticePoint(x, y)
                if s.contains(pt):
                    assert cell == str(P_PLUS.eval_int(pt))
                else:
                    assert cell == "·"

    def test_labels_off(self):
        out = render(RenderSpec(sector(8, 5), P_PLUS, max_x=3, cell_labels=False))
        assert "*" in out and "0" not in out

    def test_caps(self):
        with pytest.raises(ValueError):
            render(RenderSpec(sector(8, 5), P_PLUS, max_x=201))
        with pytest.raises(ValueError):
            render(RenderSpec(sector(8, 5), P_PLUS, max_x=-1))
        # the row count grows with n/m: the cell cap applies before any row
        with pytest.raises(ValueError, match="cells"):
            render(RenderSpec(sector(3, 1), P_PLUS, max_x=200))
        with pytest.raises(ValueError, match="cells"):
            render(RenderSpec(sector(10**20 - 1, 2), P_PLUS, max_x=3))
        # one cell cap covers both formats
        with pytest.raises(ValueError, match="cells"):
            render(RenderSpec(sector(8, 5), P_PLUS, max_x=250, format="svg"))
        with pytest.raises(ValueError, match="cells"):
            render(RenderSpec(sector(10**20 - 1, 2), P_PLUS, max_x=3, format="svg"))
        with pytest.raises(ValueError):
            render(RenderSpec(sector(8, 5), P_PLUS, max_x=3, format="png"))


class TestSvgRender:
    def test_structure(self):
        out = render(RenderSpec(sector(8, 5), P_PLUS, max_x=4, format="svg"))
        assert out.startswith('<?xml version="1.0"')
        assert "<svg" in out and out.rstrip().endswith("</svg>")
        assert out.count("<circle") == sum(4 * 8 // 5 + 1 for _ in [0]) or out.count("<circle") > 0

    def test_point_and_label_counts(self):
        s = sector(8, 5)
        out = render(RenderSpec(s, P_PLUS, max_x=4, format="svg"))
        in_sector = sum(1 for x in range(5) for y in range(x * 8 // 5 + 1))
        assert out.count("<circle") == in_sector
        assert out.count("<text") == in_sector
        bare = render(RenderSpec(s, P_PLUS, max_x=4, format="svg", cell_labels=False))
        assert bare.count("<text") == 0

    def test_guide_lines_present(self):
        out = render(RenderSpec(sector(8, 5), P_PLUS, max_x=4, format="svg"))
        # boundary + at least one staircase guide
        assert out.count("<line") >= 2

    def test_svg_beyond_text_cap(self):
        # past MAX_TEXT_X = 200, inside the cell cap (241 * 385 cells)
        out = render(RenderSpec(sector(8, 5), P_PLUS, max_x=240, format="svg"))
        assert "</svg>" in out

    def test_color_flag(self):
        out = render(RenderSpec(sector(8, 5), P_PLUS, max_x=2, format="svg", color="#aa0000"))
        assert "#aa0000" in out

    def test_color_is_checked(self):
        # the color lands in stroke= and fill= attributes unescaped, so
        # only #rgb, #rrggbb and ASCII names pass, in either format
        for color in ("#abc", "#AA00ff", "red", "DarkSlateGray"):
            out = render(RenderSpec(sector(8, 5), P_PLUS, max_x=2, format="svg", color=color))
            assert f'fill="{color}"' in out
        bad = ['"><script>', "#abcd", "#12345g", "red;", "r\u00e9d", "", "#abc\n", "rgb(0,0,0)"]
        for color in bad:
            for fmt in ("svg", "text"):
                spec = RenderSpec(sector(8, 5), P_PLUS, max_x=2, format=fmt, color=color)
                with pytest.raises(ValueError, match="color"):
                    render(spec)

    def test_integral_sector(self):
        out = render(
            RenderSpec(sector(3, 1), QuadPoly.from_string("3/2 0 0 -1/2 1 0"), max_x=3, format="svg")
        )
        assert "</svg>" in out
        # the boundary, then the columns x = 0..3 from y = 0 to y_max = 9
        guides = [line for line in out.splitlines() if 'stroke="#bbbbbb"' in line]
        assert out.count("<line") == 1 + len(guides) == 5
        for x, line in enumerate(guides):
            sx = f"{30 + 40 * x:.1f}"
            assert f'x1="{sx}" y1="390.0" x2="{sx}" y2="30.0"' in line

    @pytest.mark.parametrize(
        "n,m,poly,max_x,digest",
        [
            (8, 5, P_PLUS, 6, "4e296794ef0cb93f493a5728c39935f7570a1f266fd8c7279625e10ff0a635cc"),
            (12, 7, P127, 5, "2971e9cf797922d4d70d79917d42db1ac2456845744f3fab88d8ed7ed201e6e3"),
        ],
    )
    def test_staircase_svg_pinned(self, n, m, poly, max_x, digest):
        # sha256 recorded when only sectors with m >= 2 drew guide lines
        out = render(RenderSpec(sector(n, m), poly, max_x=max_x, format="svg"))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic(self):
        spec = RenderSpec(sector(12, 7), P127, max_x=5, format="svg")
        assert render(spec) == render(spec)
