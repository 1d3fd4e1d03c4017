"""Property tests for the CLI's integer flags (skipped where hypothesis is absent)."""
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bwinr import ConfigurationError  # noqa: E402
from bwinr.cli import build_parser  # noqa: E402


@settings(max_examples=300, deadline=None)
@given(text=st.text() | st.from_regex(r"[-+ _0-9]{0,12}", fullmatch=True))
@example(text="--")  # argparse itself reads "--width=--" as [], untyped
def test_integer_flag_reads_exactly_one_to_nine_ascii_digits(text):
    # parse_args only parses: no image, task or directory is made.
    argv = ["fit", "--image", "scene:8", f"--width={text}"]
    if re.fullmatch(r"[0-9]{1,9}", text):
        assert build_parser().parse_args(argv).width == int(text)
    else:
        with pytest.raises(ConfigurationError) as info:
            build_parser().parse_args(argv)
        assert len(str(info.value)) < 200
