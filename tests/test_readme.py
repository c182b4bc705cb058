"""The README's library example runs, and gives the numbers its comments claim."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
TWO_PI = 2.0 * math.pi


def library_example() -> str:
    """The python block of the README's "## Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


# Each comment in the example, with the check of the number it claims.
CLAIMS = {
    "# 2*pi: one fringe": lambda ns: ns["result"].total_phase_rad
    == pytest.approx(TWO_PI, rel=1e-12),
    "# v_full_fringe_mps = 1e-4": lambda ns: ns["sweep"].v_full_fringe_mps
    == pytest.approx(1e-4, rel=1e-12),
    "# scan: 2*pi, 4*pi, 6*pi, both ways": lambda ns: ns["scan"]
    == [pytest.approx((k * TWO_PI, k * TWO_PI), rel=1e-12) for k in (1, 2, 3)],
}


@pytest.mark.parametrize("comment", CLAIMS)
def test_library_example_gives_the_numbers_its_comments_claim(comment):
    code = library_example()
    assert comment in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert CLAIMS[comment](namespace)
