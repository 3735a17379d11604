import sys

import pytest
from hypothesis import settings

from truncvote import Profile

# one hypothesis profile for every property test: no per-example deadline
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# 62-voter reference profile, candidates a=0, b=1, c=2, d=3
EXAMPLE1_BALLOTS = (
    ((0, 3, 2, 1), 20),
    ((1, 2, 3, 0), 10),
    ((2, 3, 1, 0), 15),
    ((3, 2, 0, 1), 17),
)

EXAMPLE1_CLASSIC = """4
1,a
2,b
3,c
4,d
62,62,4
20,1,4,3,2
10,2,3,4,1
15,3,4,2,1
17,4,3,1,2
"""

# a complete 9-voter, 4-candidate election on which harmonic:zero picks 1,
# while its top-3 form picks 0
HARMONIC_SPLIT_BALLOTS = (
    ((0, 1, 3, 2), 1),
    ((0, 2, 1, 3), 1),
    ((1, 0, 2, 3), 1),
    ((1, 0, 3, 2), 2),
    ((2, 0, 3, 1), 1),
    ((3, 0, 1, 2), 1),
    ((3, 1, 2, 0), 1),
    ((3, 2, 0, 1), 1),
)

TOY_MODERN = """# FILE NAME: toy.soi
# NUMBER ALTERNATIVES: 3
# ALTERNATIVE NAME 1: red
# ALTERNATIVE NAME 2: green
# ALTERNATIVE NAME 3: blue
# NUMBER VOTERS: 7
4: 1, 2
2: 3, 1, 2
1: 2
"""


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance gate's one-line-per-criterion report."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def example1():
    return Profile.from_ballots(4, EXAMPLE1_BALLOTS)


@pytest.fixture
def example1_soc(tmp_path):
    path = tmp_path / "example1.soc"
    path.write_text(EXAMPLE1_CLASSIC, encoding="utf-8")
    return path
