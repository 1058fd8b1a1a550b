"""Tests for the equation, raster and animation components."""

import pytest

from repro.components.animation import (
    AnimationData,
    AnimationView,
    pascal_triangle_frames,
)
from repro.components.equation import (
    EquationData,
    EquationSyntaxError,
    EquationView,
    render_equation,
)
from repro.components.raster import RasterData, RasterView, decode_rows, encode_rows
from repro.core import read_document, write_document
from repro.graphics import Bitmap, Rect


class TestEquationLayout:
    def test_plain_symbols(self):
        assert render_equation("x") == ["x"]

    def test_binary_operator_spacing(self):
        assert render_equation("a+b") == ["a + b"]

    def test_subscript_below_baseline(self):
        rows = render_equation("v_{i,j}")
        assert rows[0].startswith("v")
        assert "i,j" in rows[1]

    def test_superscript_above_baseline(self):
        rows = render_equation("x^2")
        assert "2" in rows[0]
        assert rows[1].startswith("x")

    def test_sub_and_superscript_together(self):
        rows = render_equation("x_i^2")
        assert len(rows) == 3
        assert "2" in rows[0] and "x" in rows[1] and "i" in rows[2]

    def test_fraction_layout(self):
        rows = render_equation("\\frac{a}{b+c}")
        assert len(rows) == 3
        assert set(rows[1]) == {"-"}
        assert "a" in rows[0] and "b + c" in rows[2]

    def test_sqrt(self):
        rows = render_equation("\\sqrt{x+1}")
        assert any("V" in row for row in rows)
        assert any("x + 1" in row for row in rows)

    def test_sum_operator(self):
        rows = render_equation("\\sum x_i")
        assert len(rows) >= 3

    def test_pascal_recurrence_from_fig5(self):
        rows = render_equation("v_{i,j} = v_{i-1,j} + v_{i,j-1}")
        assert "v" in rows[0]
        assert "i,j" in rows[1].replace(" ", "")[:4] or "i,j" in rows[1]

    def test_greek_commands(self):
        assert render_equation("\\pi") == ["pi"]

    @pytest.mark.parametrize("bad", ["{", "}", "x^", "x__y", "\\nosuch{x}",
                                     "x^2^3"])
    def test_syntax_errors(self, bad):
        with pytest.raises(EquationSyntaxError):
            render_equation(bad)

    def test_baseline_alignment_of_mixed_row(self):
        # "a + \frac{b}{c}" : the 'a' must sit on the fraction rule row.
        rows = render_equation("a+\\frac{b}{c}")
        rule_row = next(i for i, r in enumerate(rows) if "-" in r)
        assert "a" in rows[rule_row]


class TestEquationData:
    def test_validation_on_add(self):
        data = EquationData()
        with pytest.raises(EquationSyntaxError):
            data.add_equation("{unclosed")
        data.add_equation("e = mc^2")
        assert len(data.equations) == 1

    def test_rendered_joins_with_blank(self):
        data = EquationData("a", "b")
        rows = data.rendered()
        assert rows == ["a", "", "b"]

    def test_roundtrip(self):
        data = EquationData("v_{1,1} = 1", "\\frac{x}{y}")
        stream = write_document(data)
        restored = read_document(stream)
        assert restored.equations == data.equations
        assert write_document(restored) == stream

    def test_view_renders(self, make_im):
        im = make_im(width=40, height=8)
        view = EquationView(EquationData("x^2 + y^2"))
        im.set_child(view)
        im.redraw()
        joined = "\n".join(im.snapshot_lines())
        assert "x" in joined and "2" in joined


class TestRaster:
    def test_encode_decode_roundtrip(self):
        bitmap = Bitmap.from_rows(["*..*", ".**.", "....", "****"])
        lines = encode_rows(bitmap)
        assert decode_rows(lines, 4, 4) == bitmap

    def test_wide_rows_chunk_with_continuations(self):
        bitmap = Bitmap(100, 2)
        bitmap.set(99, 1)
        lines = encode_rows(bitmap)
        assert any(line.startswith("+ ") for line in lines)
        assert decode_rows(lines, 100, 2) == bitmap

    def test_document_roundtrip(self):
        raster = RasterData.from_rows(["*.*", ".*.", "*.*"])
        stream = write_document(raster)
        restored = read_document(stream)
        assert restored.bitmap == raster.bitmap
        # Paper guideline: each row starts on its own line.
        rows = [l for l in stream.splitlines() if l.startswith("r ")]
        assert len(rows) == 3

    def test_ops_notify(self):
        from repro.class_system import FunctionObserver

        raster = RasterData(4, 4)
        changes = []
        raster.add_observer(FunctionObserver(lambda c: changes.append(c.what)))
        raster.set_pixel(0, 0)
        raster.invert()
        raster.scale(8, 8)
        assert changes == ["pixels", "pixels", "size"]
        assert raster.width == 8

    def test_crop(self):
        raster = RasterData.from_rows(["****", "*..*", "****"])
        raster.crop(Rect(1, 1, 2, 2))
        assert raster.bitmap.to_rows() == ["..", "**"]

    def test_view_click_toggles_pixel(self, make_im):
        im = make_im(width=20, height=10)
        raster = RasterData(6, 4)
        im.set_child(RasterView(raster))
        im.process_events()
        im.window.inject_click(2, 1)
        im.process_events()
        assert raster.bitmap.get(2, 1) == 1
        im.window.inject_click(2, 1)
        im.process_events()
        assert raster.bitmap.get(2, 1) == 0

    def test_view_menu_invert(self, make_im):
        im = make_im(width=20, height=10)
        raster = RasterData(4, 2)
        im.set_child(RasterView(raster))
        im.process_events()
        im.window.inject_menu("Raster", "Invert")
        im.process_events()
        assert raster.bitmap.ink_count() == 8


class TestAnimation:
    def test_pascal_frames_grow(self):
        frames = pascal_triangle_frames(5)
        assert len(frames) == 5
        assert frames[0].ink_count() < frames[4].ink_count()

    def test_document_roundtrip(self):
        data = AnimationData(pascal_triangle_frames(3), period=2)
        stream = write_document(data)
        restored = read_document(stream)
        assert restored.frame_count == 3
        assert restored.period == 2
        for a, b in zip(data.frames, restored.frames):
            assert a == b

    def test_playback_advances_on_period(self, make_im):
        im = make_im(width=30, height=8)
        data = AnimationData(pascal_triangle_frames(4), period=2)
        view = AnimationView(data)
        im.set_child(view)
        im.process_events()
        view.start()
        im.tick(4)
        im.process_events()
        assert view.current == 2

    def test_menu_animate_and_stop(self, make_im):
        im = make_im(width=30, height=8)
        view = AnimationView(AnimationData(pascal_triangle_frames(3)))
        im.set_child(view)
        im.process_events()
        im.window.inject_menu("Animation", "Animate")
        im.process_events()
        assert view.playing
        im.window.inject_menu("Animation", "Stop")
        im.process_events()
        assert not view.playing

    def test_one_shot_stops_at_end(self, make_im):
        im = make_im(width=30, height=8)
        data = AnimationData(pascal_triangle_frames(3), period=1)
        view = AnimationView(data, loop=False)
        im.set_child(view)
        im.process_events()
        view.start()
        im.tick(10)
        im.process_events()
        assert not view.playing
        assert view.current == data.frame_count - 1

    def test_loop_wraps(self, make_im):
        im = make_im(width=30, height=8)
        data = AnimationData(pascal_triangle_frames(3), period=1)
        view = AnimationView(data, loop=True)
        im.set_child(view)
        im.process_events()
        view.start()
        im.tick(3)
        im.process_events()
        assert view.playing
        assert view.current == 0  # wrapped past the last frame

    @staticmethod
    def _shrinking_frames():
        """Fixed-size frames whose ink thins out: a full block, one
        pixel, nothing, a diagonal."""
        full, dot, empty, diagonal = (Bitmap(8, 4) for _ in range(4))
        for y in range(4):
            for x in range(8):
                full.set(x, y, 1)
            diagonal.set(y * 2, y, 1)
        dot.set(3, 1, 1)
        return [full, dot, empty, diagonal]

    def test_one_offscreen_across_draws(self, make_im):
        im = make_im(width=30, height=8)
        created = []
        create = im.window_system.create_offscreen
        im.window_system.create_offscreen = (
            lambda w, h: created.append((w, h)) or create(w, h))
        view = AnimationView(AnimationData(self._shrinking_frames()))
        im.set_child(view)
        im.process_events()
        for index in range(8):
            view.show_frame(index)
            im.window.inject_expose()
            im.process_events()
        assert view.draw_count >= 9
        assert created == [(8, 4)]

    @pytest.mark.parametrize("backend", ["ascii", "raster"])
    def test_reused_offscreen_draws_like_a_fresh_one(self, backend):
        from repro.core import InteractionManager
        from repro.wm import AsciiWindowSystem, RasterWindowSystem
        from tests.conformance.driver import fingerprint

        make_ws = {"ascii": AsciiWindowSystem,
                   "raster": RasterWindowSystem}[backend]
        frames = self._shrinking_frames()

        def build(index):
            im = InteractionManager(make_ws(), width=30, height=8)
            view = AnimationView(AnimationData(frames))
            view.current = index
            im.set_child(view)
            im.process_events()
            return im, view

        im, view = build(0)
        for index in (1, 2, 3, 0, 2):
            view.show_frame(index)
            im.process_events()
            fresh, _ = build(index)
            assert fingerprint(im.window) == fingerprint(fresh.window), index

    def test_empty_animation_draws_placeholder(self, make_im):
        im = make_im(width=30, height=4)
        im.set_child(AnimationView(AnimationData()))
        im.redraw()
        assert "empty animation" in "\n".join(im.snapshot_lines())
