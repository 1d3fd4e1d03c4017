import numpy as np
import pytest

from bwinr import ImageGrid, ImageIOError, load_image, save_image


class TestLoadPgm:
    def test_byte_mapping(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
        img = load_image(path)
        assert np.array_equal(img.pixels, [[0.0, 1.0], [1.0, 0.0]])

    def test_header_comments(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n# another\n255\n" + bytes([10, 20]))
        img = load_image(path)
        assert img.pixels.shape == (1, 2)
        assert img.pixels[0, 0] == pytest.approx(10 / 255)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ImageIOError):
            load_image(tmp_path / "nope.pgm")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(ImageIOError) as err:
            load_image(path)
        assert "byte" in str(err.value)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.img"
        for data in (b"GIF89a....", b"\x89PNG\r\n\x1a\n"):
            path.write_bytes(data)
            with pytest.raises(ImageIOError, match="not a binary PGM"):
                load_image(path)

    def test_malformed_header_names_the_path(self, tmp_path):
        path = tmp_path / "letters.pgm"
        path.write_bytes(b"P5\nab 2\n255\n" + bytes(4))
        with pytest.raises(ImageIOError, match="letters.pgm: malformed PGM header"):
            load_image(path)

    def test_non_8bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageIOError):
            load_image(path)


class TestSavePgm:
    def test_half_gray(self, tmp_path):
        path = tmp_path / "gray.pgm"
        save_image(ImageGrid(np.full((3, 3), 0.5)), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 3\n255\n")
        assert set(data[len(b"P5\n3 3\n255\n"):]) == {128}

    def test_clamping(self, tmp_path):
        path = tmp_path / "clamp.pgm"
        save_image(ImageGrid(np.array([[1.7, -0.3]])), path)
        payload = path.read_bytes()[len(b"P5\n2 1\n255\n"):]
        assert list(payload) == [255, 0]

    def test_zero_image(self, tmp_path):
        path = tmp_path / "zero.pgm"
        save_image(ImageGrid(np.zeros((2, 2))), path)
        assert path.read_bytes().endswith(bytes(4))

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(ImageIOError):
            save_image(ImageGrid(np.zeros((2, 2))), tmp_path)  # a directory

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        img = ImageGrid(rng.integers(0, 256, (17, 9)).astype(float) / 255.0)
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        save_image(img, p1)
        reloaded = load_image(p1)
        assert np.array_equal(reloaded.pixels, img.pixels)
        save_image(reloaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

