"""The disjunctive rung at depths 3 and 4, pinned point by point.

certbench stops at depth 2, so nothing else gates the learner's inner
levels or a disjunct cap crossed in the middle of a level.  These rows are
the disjunctive learner alone (no Box rung first) on the first 10 test
points of iris, mammography and wdbc, generated with seeds 0 and 1, at
removal n = 1 and cap 2048.  A change that moves a verdict, an exit count,
the peak or the count the cap reports must update this file (ROADMAP items
11 and 16 will).

Each row is ``R<class>:<exits>:<peak>`` (robust), ``U:<exits>:<peak>``
(unknown) or ``X<count>`` (the cap was exceeded, with that many disjuncts).
"""

import re

import pytest

from repro.datasets.registry import load_dataset
from repro.domains.trainingset import AbstractTrainingSet
from repro.verify.disjunctive_learner import (
    DisjunctBudgetExceeded,
    DisjunctiveAbstractLearner,
)

PINNED = {
    "iris/s0/d3": "R0:1994:1994 X2070 X2057 U:2002:2002 U:1980:1980 X2057 X2090 X2057 U:1972:1972 X2082",
    "iris/s0/d4": "X2132 X2070 X2057 X2126 X2068 X2057 X2090 X2057 X2113 X2082",
    "iris/s1/d3": "X2080 R0:1271:1271 U:1271:1271 X2168 R0:1271:1271 X2072 X2166 X2174 X2172 X2171",
    "iris/s1/d4": "X2080 X2071 X2068 X2168 X2141 X2072 X2166 X2174 X2172 X2171",
    "mammography/s0/d3": "U:800:800 U:1919:1919 U:701:701 U:1663:1663 U:1812:1812 U:356:356 U:404:404 U:1552:1552 X2213 R0:723:723",
    "mammography/s0/d4": "X2051 X2081 X2151 X2064 X2124 X2051 X2055 X2067 X2213 X2124",
    "mammography/s1/d3": "R0:46:46 X2133 U:823:823 X2146 R0:46:46 X2122 R0:46:46 X2123 X2073 R0:46:46",
    "mammography/s1/d4": "R0:514:514 X2133 X2053 X2146 R0:514:514 X2122 R0:514:514 X2123 X2073 U:514:514",
    "wdbc/s0/d3": "X6361 X6361 X3557 X7446 X6361 X6360 X3418 X7300 X3433 X6361",
    "wdbc/s0/d4": "X6361 X6361 X3557 X7446 X6361 X6360 X3418 X7300 X3433 X6361",
    "wdbc/s1/d3": "X2104 X2096 X2096 X2940 X2102 X2953 X2096 X2951 X2099 X2102",
    "wdbc/s1/d4": "X2104 X2096 X2096 X2940 X2102 X2953 X2096 X2951 X2099 X2102",
}


def _row(learner, trainset, x):
    try:
        run = learner.run(trainset, x)
    except DisjunctBudgetExceeded as error:
        return "X" + re.search(r"\((\d+) disjuncts\)", str(error)).group(1)
    status = "U" if run.robust_class is None else f"R{run.robust_class}"
    return f"{status}:{run.exit_count}:{run.max_disjuncts}"


@pytest.mark.parametrize("name", ["iris", "mammography", "wdbc"])
@pytest.mark.parametrize("seed", [0, 1])
def test_pinned_rows(name, seed):
    split = load_dataset(name, seed=seed)
    trainset = AbstractTrainingSet.full(split.train, 1)
    for depth in (3, 4):
        learner = DisjunctiveAbstractLearner(max_depth=depth, max_disjuncts=2048)
        rows = " ".join(_row(learner, trainset, x) for x in split.test.X[:10])
        assert rows == PINNED[f"{name}/s{seed}/d{depth}"]
