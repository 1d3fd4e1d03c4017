"""The file boundary: every read, write and directory the package makes goes
through ``errors.read_file``/``write_file``/``make_dir`` and fails as
ImageIOError naming the path."""
import ast
import re
from pathlib import Path

import numpy as np
import pytest

import bwinr
from bwinr import (
    Activation, ImageGrid, ImageIOError, InvalidInputError, ShapeError, init_network, mlp_specs,
)
from bwinr.cli import read_table, write_table

SRC = Path(bwinr.__file__).parent
FILE_METHODS = {"open", "read_bytes", "write_bytes", "read_text", "write_text", "mkdir"}

READERS = [bwinr.load_image, bwinr.load_checkpoint, read_table]
CONTENT_ERRORS = [ImageIOError, InvalidInputError, ShapeError]  # READERS'
WRITERS = {
    "save_image": lambda path: bwinr.save_image(ImageGrid(np.zeros((2, 2))), path),
    "save_checkpoint": lambda path: bwinr.save_checkpoint(
        init_network(mlp_specs([2, 3, 1], Activation("relu")), 0), path
    ),
    "write_table": lambda path: write_table(path, ["a"], [[1.0]]),
}


def _file_calls(path):
    """(line, name) of every open(...) or file-method call in ``path``."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
            calls.append((node.lineno, func.attr))
    return calls


def _content_error_rules(node):
    """(line, kind) of every try statement and show_path call under ``node``."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Try):
            found.append((sub.lineno, "try"))
        elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "show_path":
            found.append((sub.lineno, "show_path"))
    return found


def _function(path, name):
    """The ast of the top-level function ``name`` in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return next(node for node in tree.body if getattr(node, "name", None) == name)


@pytest.mark.parametrize("reader", READERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", ["missing", "directory", "null-byte"])
def test_unreadable_path_is_io_error(tmp_path, reader, kind):
    path = tmp_path / ("in\0" if kind == "null-byte" else "in")
    if kind == "directory":
        path.mkdir()
    shown = repr(str(path)) if kind == "null-byte" else str(path)
    with pytest.raises(ImageIOError, match=re.escape(shown)):
        reader(path)


@pytest.mark.parametrize(
    "reader, error", zip(READERS, CONTENT_ERRORS), ids=[f.__name__ for f in READERS]
)
def test_malformed_content_names_an_unprintable_path_by_repr(tmp_path, reader, error):
    path = tmp_path / "bad\nname"
    path.write_bytes(b"a,b\n1\n")  # no PGM, no checkpoint, a ragged CSV
    with pytest.raises(error) as info:
        reader(path)
    assert type(info.value) is error
    assert "\n" not in str(info.value)
    assert str(info.value).startswith(f"{str(path)!r}: ")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_write_into_missing_directory_is_io_error(tmp_path, name):
    path = tmp_path / "missing" / "out"
    with pytest.raises(ImageIOError, match=re.escape(f"cannot write {path}: ")):
        WRITERS[name](path)


def test_only_errors_module_touches_files():
    outside = {
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for line, name in _file_calls(path)
    }
    assert not outside


def test_guard_sees_the_boundary():
    # The scan finds the two opens and the mkdir it allows, so an empty
    # result elsewhere is not a scan that finds nothing.
    assert [name for _, name in _file_calls(SRC / "errors.py")] == ["open", "open", "mkdir"]


def test_only_read_file_names_the_path_of_a_content_error():
    # read_file turns a parser's ValueError into the reader's class naming
    # the path; the readers hold no try of their own and no show_path call.
    scanned = [ast.parse((SRC / name).read_text()) for name in ("images.py", "network.py")]
    scanned.append(_function(SRC / "cli.py", "read_table"))
    assert not [found for node in scanned for found in _content_error_rules(node)]


def test_content_error_guard_sees_read_file():
    # The scan finds the try and the show_path call in read_file, so an empty
    # result above is not a scan that finds nothing.
    rules = _content_error_rules(_function(SRC / "errors.py", "read_file"))
    assert [kind for _, kind in rules] == ["try", "show_path"]
