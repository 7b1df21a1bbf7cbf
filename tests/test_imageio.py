"""Tests for PGM and PNG round trips and format validation."""

import numpy as np
import pytest

import lflow.imageio
from lflow.errors import ImageFormatError, NonFiniteError, ShapeMismatchError
from lflow.imageio import read_image, read_pgm, read_png, write_image, write_pgm, write_png
from lflow.numerics import make_rng


def test_pgm_round_trip_is_within_quantization(tmp_path):
    img = make_rng(0).uniform(size=(9, 7))
    for bits, maxval in ((8, 255), (16, 65535)):
        path = tmp_path / f"img{bits}.pgm"
        write_pgm(path, img, bits=bits)
        back = read_pgm(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / maxval + 1e-12


def test_pgm_bytes_are_exactly_the_spec_layout(tmp_path):
    img = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
    path = tmp_path / "tiny.pgm"
    write_pgm(path, img, bits=8)
    data = path.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
    np.testing.assert_allclose(read_pgm(path), img, atol=0.0)


def test_sixteen_bit_samples_are_big_endian(tmp_path):
    path = tmp_path / "deep.pgm"
    write_pgm(path, np.array([[1.0]]), bits=16)
    data = path.read_bytes()
    assert data.endswith(b"\xff\xff")
    assert b"65535" in data
    # A hand-built big-endian file reads back to the right fractions.
    raw = b"P5\n2 1\n65535\n" + (256).to_bytes(2, "big") + (65535).to_bytes(2, "big")
    (tmp_path / "hand.pgm").write_bytes(raw)
    np.testing.assert_allclose(
        read_pgm(tmp_path / "hand.pgm"), [[256 / 65535, 1.0]], atol=0.0
    )


def test_header_comments_are_skipped(tmp_path):
    raw = b"P5\n# made by hand\n2 1\n# another note\n255\n" + bytes([10, 20])
    path = tmp_path / "commented.pgm"
    path.write_bytes(raw)
    np.testing.assert_allclose(read_pgm(path), [[10 / 255, 20 / 255]], atol=0.0)


def test_header_whitespace_and_comment_variants_read_like_a_plain_header(tmp_path):
    pixels = bytes([10, 20])
    plain = tmp_path / "plain.pgm"
    plain.write_bytes(b"P5\n2 1\n255\n" + pixels)
    variants = {
        "tabs.pgm": b"P5\t2\t1\t255\t",
        "crlf.pgm": b"P5\r\n2 1\r\n255\n",
        "comment_between.pgm": b"P5\n2 # width, then height\n1\n255\n",
        "comment_glued_to_width.pgm": b"P5\n2# width\n1\n255\n",
        "comment_after_magic.pgm": b"P5# made by hand\n2 1\n255\n",
        "comment_line_before_maxval.pgm": b"P5\n2 1\n# note\n255\n",
    }
    for name, header in variants.items():
        path = tmp_path / name
        path.write_bytes(header + pixels)
        np.testing.assert_array_equal(read_pgm(path), read_pgm(plain), err_msg=name)


def test_values_clip_to_unit_range_on_write(tmp_path):
    path = tmp_path / "clip.pgm"
    write_pgm(path, np.array([[-0.5, 1.5]]), bits=8)
    np.testing.assert_allclose(read_pgm(path), [[0.0, 1.0]], atol=0.0)


def test_malformed_pgm_files_are_rejected(tmp_path):
    cases = {
        "badmagic.pgm": b"P6\n1 1\n255\n\x00",
        "truncated.pgm": b"P5\n4 4\n255\n\x00\x01",
        "nonsense.pgm": b"P5\nx y\n255\n\x00",
        "nopixels.pgm": b"P5\n1 1\n255\n",
        "badmax.pgm": b"P5\n1 1\n70000\n\x00\x00",
        "zerodim.pgm": b"P5\n0 1\n255\n",
        "magicsuffix.pgm": b"P5x\n1 1\n255\n\x00",
        "signed.pgm": b"P5\n+2 1\n255\n\x00\x00",
        "underscore.pgm": b"P5\n1_0 1\n255\n" + bytes(10),
        "gluedcomment.pgm": b"P5\n1 1\n255#c\n\x00",
        "noterminator.pgm": b"P5\n1 1\n255",
        "hugewidth.pgm": b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00",
    }
    for name, raw in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(ImageFormatError):
            read_pgm(path)


def test_pgm_writer_input_validation(tmp_path):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros((2, 2)), bits=12)
    with pytest.raises(ShapeMismatchError):
        write_pgm(path, np.zeros(4))
    with pytest.raises(NonFiniteError):
        write_pgm(path, np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_writers_reject_an_empty_field(tmp_path):
    path = tmp_path / "empty.pgm"
    for write in (write_pgm, write_image):
        for shape in ((0, 3), (4, 0)):
            with pytest.raises(ShapeMismatchError, match="at least one pixel"):
                write(path, np.zeros(shape))
            assert not path.exists()


def test_png_writer_rejects_an_empty_field(tmp_path):
    pytest.importorskip("PIL")
    with pytest.raises(ShapeMismatchError, match="at least one pixel"):
        write_png(tmp_path / "empty.png", np.zeros((0, 3)))


def test_png_round_trips(tmp_path):
    pytest.importorskip("PIL")
    img = make_rng(1).uniform(size=(6, 5))
    p8 = tmp_path / "img.png"
    write_png(p8, img, bits=8)
    assert np.max(np.abs(read_png(p8) - img)) <= 0.5 / 255 + 1e-12
    p16 = tmp_path / "deep.png"
    write_png(p16, img, bits=16)
    assert np.max(np.abs(read_png(p16) - img)) <= 0.5 / 65535 + 1e-12


def test_extension_dispatch(tmp_path):
    img = make_rng(2).uniform(size=(4, 4))
    path = tmp_path / "roundtrip.pgm"
    write_image(path, img, bits=16)
    assert np.max(np.abs(read_image(path) - img)) <= 0.5 / 65535 + 1e-12
    with pytest.raises(ImageFormatError):
        write_image(tmp_path / "img.bmp", img)
    with pytest.raises(ImageFormatError):
        read_image(tmp_path / "img.tiff")


def test_write_image_calls_the_writer_the_module_holds_at_call_time(tmp_path, monkeypatch):
    # A wrapper set on the module attribute, as a tracer sets one, sees the write.
    calls = []
    real = lflow.imageio.write_pgm

    def counting(path, field, bits=8):
        calls.append((path, bits))
        real(path, field, bits=bits)

    monkeypatch.setattr(lflow.imageio, "write_pgm", counting)
    path = tmp_path / "traced.pgm"
    write_image(path, np.full((2, 2), 0.5), bits=16)
    assert calls == [(path, 16)]
    assert path.read_bytes() == b"P5\n2 2\n65535\n" + b"\x80\x00" * 4
