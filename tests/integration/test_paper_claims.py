"""The paper's claims, as one table over the committed ``results/*.csv``.

Each row states one claim of the paper's evaluation (Figs 4-8, the
Section VI-C scatter text, the ablations): the CSV it reads, the series
it compares, the reference series, the message sizes, and an open bound
``lo < seconds(series) / seconds(reference) < hi`` (``None`` leaves a
side open).  A series given as a tuple stands for the fastest of those
series, as in the paper's "best other component".

A row's expected verdict is ``holds`` (the bound is met at every listed
size) or the id of a known deviation, D1-D7 in EXPERIMENTS.md (the bound
is missed at every listed size).  EXPERIMENTS.md cites every claim as
its id followed by its verdict, e.g. "`fig5-ig-best` D1".  A model
change that flips a claim fails here until the row, the CSVs and
EXPERIMENTS.md change together; the CSVs
themselves are kept honest by ``tests/bench/test_results_fresh.py``,
which recomputes the rows most claims read.

Claims that no CSV holds are tier-1 tests of their own: Table I
(``tests/apps/test_asp.py::TestTableOne``), the registration counts
(``tests/coll/test_knem_coll.py::TestPersistentRegistration``), the
topology-aware tree (``TestHierarchy::test_topology_aware_beats_rank_order_tree``)
and the three-level tree
(``tests/coll/test_multilevel.py::TestMultilevelBcast::test_competitive_with_two_level``).
"""

import csv
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional, Union

import pytest

from repro.units import KiB, MiB

ROOT = Path(__file__).resolve().parents[2]

#: every point of the bench-scale Figure 5-8 grids, and of Figure 4's
ALL = (32 * KiB, 128 * KiB, 512 * KiB, 2 * MiB)
FIG4 = (512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB)
SM = ("Tuned-SM", "MPICH2-SM")
KNEM_P2P = ("Tuned-KNEM", "MPICH2-KNEM")
OTHERS = SM + KNEM_P2P


class Claim(NamedTuple):
    id: str
    csv: str                          # results/<csv>.csv
    series: Union[str, tuple]         # a tuple: the fastest of them
    reference: str
    sizes: tuple
    bound: tuple[Optional[float], Optional[float]]
    paper: str
    verdict: str                      # "holds" or a deviation id "D<n>"


C = Claim
CLAIMS = [
    # -- Figure 4: hierarchical pipelined broadcast on IG (48 ranks)
    C("fig4-hierarchy", "fig4_ig", "linear", "no-pipeline", FIG4, (2.2, 2.4),
      "the hierarchy alone beats the linear broadcast 2.2-2.4x", "holds"),
    C("fig4-pipeline", "fig4_ig", "pipe-16K", "no-pipeline", FIG4, (0.625, 0.95),
      "pipelining adds up to an extra 1.25x (16 KB segments)", "holds"),
    C("fig4-pipeline-large", "fig4_ig", "pipe-512K", "no-pipeline", FIG4[2:], (0.625, 0.95),
      "512 KB segments, the tuning's choice from 2 MB, still gain", "holds"),
    C("fig4-seg4k", "fig4_ig", "pipe-4K", "pipe-16K", FIG4, (1.0, None),
      "4 KB segments are too small: synchronization overhead", "holds"),
    C("fig4-seg2m", "fig4_ig", "pipe-2048K", "no-pipeline", FIG4[:3], (0.99, 1.01),
      "too large a segment loses the pipeline's benefit", "holds"),

    # -- Figure 5: Broadcast, normalized to KNEM-Coll
    C("fig5-zoot-sm", "fig5_zoot", SM, "KNEM-Coll", ALL, (1.3, 2.5),
      "Zoot: KNEM-Coll 1-2.5x faster; both copy-in/copy-out stacks lose", "holds"),
    C("fig5-zoot-knem", "fig5_zoot", KNEM_P2P, "KNEM-Coll", ALL, (0.9, 2.5),
      "Zoot: about 1x at the low end, against KNEM point-to-point", "holds"),
    C("fig5-dancer-sm", "fig5_dancer", SM, "KNEM-Coll", ALL, (1.2, 2.8),
      "Dancer: KNEM-Coll 1.2-2.8x faster", "holds"),
    C("fig5-dancer-knem", "fig5_dancer", KNEM_P2P, "KNEM-Coll", ALL[:3], (1.2, 2.8),
      "Dancer: KNEM-Coll 1.2-2.8x faster", "holds"),
    C("fig5-dancer-knem-2m", "fig5_dancer", KNEM_P2P, "KNEM-Coll", ALL[3:], (1.0, 2.8),
      "Dancer: KNEM-Coll is fastest (ties Tuned-KNEM at 2 MB)", "holds"),
    C("fig5-saturn-sm", "fig5_saturn", SM, "KNEM-Coll", ALL, (1.1, None),
      "Saturn: both copy-in/copy-out stacks lose", "holds"),
    C("fig5-saturn-sm-ceiling", "fig5_saturn", SM, "KNEM-Coll", ALL[1:], (None, 1.8),
      "Saturn: KNEM-Coll at most 1.8x faster", "D5"),
    C("fig5-saturn-knem", "fig5_saturn", KNEM_P2P, "KNEM-Coll", ALL, (1.0, 1.8),
      "Saturn: KNEM-Coll 1-1.8x faster", "holds"),
    C("fig5-ig-tsm", "fig5_ig", "Tuned-SM", "KNEM-Coll", ALL, (1.5, None),
      "IG: KNEM-Coll at least 1.5x faster than Tuned-SM", "holds"),
    C("fig5-ig-msm", "fig5_ig", "MPICH2-SM", "KNEM-Coll", ALL, (1.0, None),
      "IG: KNEM-Coll beats MPICH2-SM", "holds"),
    C("fig5-ig-tknem", "fig5_ig", "Tuned-KNEM", "KNEM-Coll", ALL[:3], (1.5, None),
      "IG: KNEM-Coll at least 1.5x faster than Tuned-KNEM", "holds"),
    C("fig5-ig-tknem-2m", "fig5_ig", "Tuned-KNEM", "KNEM-Coll", ALL[3:], (1.0, None),
      "IG: KNEM-Coll beats Tuned-KNEM at the largest sizes", "D1"),
    C("fig5-ig-best", "fig5_ig", OTHERS, "KNEM-Coll", ALL, (1.5, None),
      "IG: KNEM-Coll 1.5-2.1x faster than the best other component", "D1"),

    # -- Figure 6: Gather (direction control)
    C("fig6-zoot", "fig6_zoot", OTHERS, "KNEM-Coll", ALL, (1.3, None),
      "KNEM Gather outperforms all other components in all cases", "holds"),
    C("fig6-dancer", "fig6_dancer", OTHERS, "KNEM-Coll", ALL, (1.5, None),
      "KNEM Gather outperforms all other components in all cases", "holds"),
    C("fig6-saturn", "fig6_saturn", OTHERS, "KNEM-Coll", ALL, (1.5, None),
      "KNEM Gather outperforms all other components in all cases", "holds"),
    C("fig6-ig", "fig6_ig", OTHERS, "KNEM-Coll", ALL, (1.5, 6.5),
      "KNEM Gather outperforms all other components, up to 3.2x on IG", "holds"),
    C("fig6-direction", "abl-direction_zoot", "KNEM-root-reads", "KNEM-Coll", ALL, (1.3, None),
      "sender-writing direction control is what wins Gather", "holds"),

    # -- Scatter (Section VI-C, text only)
    C("scatter-zoot-sm", "scatter_zoot", SM, "KNEM-Coll", ALL, (1.0, None),
      "KNEM Scatter beats the copy-in/copy-out stacks", "holds"),
    C("scatter-dancer-sm", "scatter_dancer", SM, "KNEM-Coll", ALL, (1.0, None),
      "KNEM Scatter beats the copy-in/copy-out stacks", "holds"),
    C("scatter-saturn-sm", "scatter_saturn", SM, "KNEM-Coll", ALL, (1.0, None),
      "KNEM Scatter beats the copy-in/copy-out stacks", "holds"),
    C("scatter-ig-sm", "scatter_ig", SM, "KNEM-Coll", ALL, (1.0, None),
      "KNEM Scatter beats the copy-in/copy-out stacks", "holds"),
    C("scatter-zoot-tknem", "scatter_zoot", "Tuned-KNEM", "KNEM-Coll", ALL, (1.0, None),
      "KNEM Scatter up to 3x faster than Open MPI's best tuned scatter", "D7"),
    C("scatter-dancer-tknem", "scatter_dancer", "Tuned-KNEM", "KNEM-Coll", ALL, (1.0, None),
      "KNEM Scatter up to 2x faster than Open MPI's best tuned scatter", "D7"),
    C("scatter-saturn-tknem", "scatter_saturn", "Tuned-KNEM", "KNEM-Coll", ALL, (1.0, None),
      "KNEM Scatter up to 4x faster than Open MPI's best tuned scatter", "D7"),
    C("scatter-ig-tknem", "scatter_ig", "Tuned-KNEM", "KNEM-Coll", ALL, (1.0, None),
      "KNEM Scatter up to 4x faster than Open MPI's best tuned scatter", "D7"),

    # -- Figure 7: AlltoAllv (rotated fetch schedule)
    C("fig7-zoot-tsm", "fig7_zoot", "Tuned-SM", "KNEM-Coll", ALL, (1.2, 2.2),
      "Zoot: up to 2x faster than Tuned-SM", "holds"),
    C("fig7-dancer-tsm", "fig7_dancer", "Tuned-SM", "KNEM-Coll", ALL, (1.2, 2.2),
      "Dancer: up to 1.9x faster than Tuned-SM", "holds"),
    C("fig7-saturn-tsm", "fig7_saturn", "Tuned-SM", "KNEM-Coll", ALL, (1.0, None),
      "Saturn: faster than Tuned-SM", "holds"),
    C("fig7-saturn-tsm-ceiling", "fig7_saturn", "Tuned-SM", "KNEM-Coll", ALL, (None, 1.25),
      "Saturn: at most 1.25x faster than Tuned-SM", "D5"),
    C("fig7-ig-tsm", "fig7_ig", "Tuned-SM", "KNEM-Coll", ALL[:2], (1.1, None),
      "IG: up to 2.7x faster than Tuned-SM", "holds"),
    C("fig7-ig-tsm-large", "fig7_ig", "Tuned-SM", "KNEM-Coll", ALL[2:], (1.0, None),
      "IG: faster than Tuned-SM at every size", "D2"),
    C("fig7-zoot-tknem", "fig7_zoot", "Tuned-KNEM", "KNEM-Coll", ALL, (1.0, 1.25),
      "a smaller win over Tuned-KNEM: the operation is memory-bus bound", "holds"),
    C("fig7-dancer-tknem", "fig7_dancer", "Tuned-KNEM", "KNEM-Coll", ALL, (1.0, 1.25),
      "a smaller win over Tuned-KNEM: the operation is memory-bus bound", "holds"),
    C("fig7-saturn-tknem", "fig7_saturn", "Tuned-KNEM", "KNEM-Coll", ALL, (1.0, 1.25),
      "a smaller win over Tuned-KNEM: the operation is memory-bus bound", "holds"),
    C("fig7-ig-tknem", "fig7_ig", "Tuned-KNEM", "KNEM-Coll", ALL, (1.0, 1.25),
      "a smaller win over Tuned-KNEM: the operation is memory-bus bound", "holds"),
    C("fig7-zoot-margin", "fig7_zoot", "Tuned-KNEM", "Tuned-SM", ALL, (None, 1.0),
      "the margin over Tuned-KNEM is smaller than over Tuned-SM", "holds"),
    C("fig7-dancer-margin", "fig7_dancer", "Tuned-KNEM", "Tuned-SM", ALL, (None, 1.0),
      "the margin over Tuned-KNEM is smaller than over Tuned-SM", "holds"),
    C("fig7-saturn-margin", "fig7_saturn", "Tuned-KNEM", "Tuned-SM", ALL, (None, 1.0),
      "the margin over Tuned-KNEM is smaller than over Tuned-SM", "holds"),
    # The paper plots MPICH2 and Open MPI as distinct curves; identical
    # seconds read exactly 1.0, which no open bound above 1 admits.
    C("fig7-zoot-mpich2-sm", "fig7_zoot", "MPICH2-SM", "Tuned-SM", ALL, (1.0, None),
      "MPICH2-SM is a curve of its own", "D6"),
    C("fig7-dancer-mpich2-sm", "fig7_dancer", "MPICH2-SM", "Tuned-SM", ALL, (1.0, None),
      "MPICH2-SM is a curve of its own", "D6"),
    C("fig7-saturn-mpich2-sm", "fig7_saturn", "MPICH2-SM", "Tuned-SM", ALL, (1.0, None),
      "MPICH2-SM is a curve of its own", "D6"),
    C("fig7-ig-mpich2-sm", "fig7_ig", "MPICH2-SM", "Tuned-SM", ALL, (1.0, None),
      "MPICH2-SM is a curve of its own", "D6"),
    C("fig7-zoot-mpich2-knem", "fig7_zoot", "MPICH2-KNEM", "Tuned-KNEM", ALL[1:], (1.0, None),
      "MPICH2-KNEM is a curve of its own", "D6"),
    C("fig7-dancer-mpich2-knem", "fig7_dancer", "MPICH2-KNEM", "Tuned-KNEM", ALL[1:], (1.0, None),
      "MPICH2-KNEM is a curve of its own", "D6"),
    C("fig7-saturn-mpich2-knem", "fig7_saturn", "MPICH2-KNEM", "Tuned-KNEM", ALL[1:], (1.0, None),
      "MPICH2-KNEM is a curve of its own", "D6"),
    C("fig7-ig-mpich2-knem", "fig7_ig", "MPICH2-KNEM", "Tuned-KNEM", ALL[1:], (1.0, None),
      "MPICH2-KNEM is a curve of its own", "D6"),

    # -- Figure 8: AllGather (gather + broadcast assembly)
    C("fig8-zoot", "fig8_zoot", OTHERS, "KNEM-Coll", ALL, (1.0, None),
      "KNEM AllGather is best on Zoot", "holds"),
    C("fig8-dancer-sm", "fig8_dancer", SM, "KNEM-Coll", ALL, (1.0, None),
      "KNEM AllGather beats the copy-in/copy-out stacks on Dancer", "holds"),
    C("fig8-dancer-tknem", "fig8_dancer", "Tuned-KNEM", "KNEM-Coll", (ALL[0], ALL[3]), (1.0, None),
      "KNEM AllGather is best on Dancer except some medium sizes", "D3"),
    C("fig8-saturn-sm", "fig8_saturn", SM, "KNEM-Coll", ALL, (1.0, None),
      "KNEM AllGather beats the copy-in/copy-out stacks on Saturn", "holds"),
    C("fig8-saturn-tknem", "fig8_saturn", "Tuned-KNEM", "KNEM-Coll", ALL[3:], (1.0, None),
      "KNEM AllGather is best on Saturn except some medium sizes", "D3"),
    C("fig8-ig-tknem", "fig8_ig", "Tuned-KNEM", "KNEM-Coll", ALL, (None, 1.0),
      "IG: Tuned-KNEM's ring beats the KNEM AllGather (the negative result)", "holds"),
    C("fig8-ig-tknem-margin", "fig8_ig", "Tuned-KNEM", "KNEM-Coll", ALL, (0.75, None),
      "IG: Tuned-KNEM better by up to 25%", "D3"),
    C("fig8-ig-tsm", "fig8_ig", "Tuned-SM", "KNEM-Coll", ALL[2:], (1.0, None),
      "IG: KNEM AllGather beats Tuned-SM at large sizes", "holds"),
    C("fig8-ig-tsm-small", "fig8_ig", "Tuned-SM", "KNEM-Coll", ALL[:2], (1.0, None),
      "IG: KNEM AllGather beats Tuned-SM", "D3"),
    C("fig8-ig-mpich2-sm", "fig8_ig", "MPICH2-SM", "Tuned-SM", ALL, (1.0, None),
      "MPICH2-SM is a curve of its own", "D6"),
    C("fig8-ig-mpich2-knem", "fig8_ig", "MPICH2-KNEM", "Tuned-KNEM", ALL[1:], (1.0, None),
      "MPICH2-KNEM is a curve of its own", "D6"),

    # -- Ablation: the Figure 3 rotated Alltoall schedule
    C("abl-rotation", "abl-rotation_ig", "KNEM-naive-order", "KNEM-Coll", ALL, (1.5, None),
      "the rotated schedule spreads the accesses; naive order is slower", "holds"),
]


@lru_cache(maxsize=None)
def _seconds(name: str) -> dict:
    with open(ROOT / "results" / f"{name}.csv", newline="") as fh:
        return {(row["series"], int(row["msg_bytes"])): float(row["seconds"])
                for row in csv.DictReader(fh)}


@lru_cache(maxsize=None)
def _experiments_md() -> str:
    return (ROOT / "EXPERIMENTS.md").read_text()


def _ratio(claim: Claim, size: int) -> float:
    rows = _seconds(claim.csv)
    series = (claim.series,) if isinstance(claim.series, str) else claim.series
    return (min(rows[name, size] for name in series)
            / rows[claim.reference, size])


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim(claim):
    lo, hi = claim.bound
    holds = claim.verdict == "holds"
    wrong = {}
    for size in claim.sizes:
        r = _ratio(claim, size)
        if ((lo is None or lo < r) and (hi is None or r < hi)) != holds:
            wrong[size] = round(r, 4)
    assert not wrong, (
        f"{claim.id} should read {claim.verdict} against the bound "
        f"{claim.bound}, but the ratio at {wrong} (bytes: ratio) does not; "
        f"paper: {claim.paper}")
    cited = f"`{claim.id}` {claim.verdict}"
    assert cited in _experiments_md(), f"EXPERIMENTS.md does not cite {cited}"
