"""Golden modeled ledger: wall-clock work must never move the modeled clock.

Runs the paper's canonical TPC-H Q1/Q6/Q14 (small SF, both decomposition
set-ups) and the spatial conjunction in ``ar``, ``classic`` and
``approximate`` mode, and compares every Timeline span, every result
column and every approximate bound against a JSON fixture recorded from a
known-good tree.  A performance change passes only if it leaves all three
byte-identical.

Regenerate the fixture (only for a change that is *meant* to move the
modeled clock, and say so in its description) with::

    PYTHONPATH=src python tests/integration/test_modeled_ledger_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.spatial import (
    SPATIAL_QUERY_SQL, SpatialConfig, build_spatial_session,
)
from repro.workloads.tpch import (
    TpchConfig, build_tpch_session, q1_sql, q6_sql, q14_sql,
)

FIXTURE = Path(__file__).with_name("modeled_ledger_golden.json")
MODES = ("ar", "classic", "approximate")
TPCH = TpchConfig(scale_factor=0.01, seed=7)
SPATIAL = SpatialConfig(n_points=100_000, seed=11)
QUERIES = {"q1": q1_sql(), "q6": q6_sql(), "q14": q14_sql()}


def _value(v):
    """A JSON-exact scalar: floats by ``repr``, everything else as is."""
    return repr(v) if isinstance(v, float) else v


def _interval(b):
    return None if b is None else [repr(float(b.lo)), repr(float(b.hi))]


def _record(result) -> dict:
    out = {
        "spans": [
            [s.device, s.kind, s.op, s.nbytes, repr(s.seconds), s.phase]
            for s in result.timeline
        ],
        "columns": {
            name: [_value(v) for v in np.asarray(col).tolist()]
            for name, col in result.columns.items()
        },
        "row_count": result.row_count,
    }
    approx = result.approximate
    if approx is not None:
        out["approximate"] = {
            "candidate_rows": approx.candidate_rows,
            "n_groups": approx.n_groups,
            "aggregates": {
                alias: ([_interval(b) for b in bound]
                        if isinstance(bound, list) else _interval(bound))
                for alias, bound in approx.aggregates.items()
            },
        }
    return out


def ledger() -> dict:
    """Every case, run in a fixed order on fresh sessions."""
    cases = {}
    for label, space in (("tpch", False), ("tpch_space", True)):
        session = build_tpch_session(TPCH, space_constrained=space)
        for name, sql in QUERIES.items():
            for mode in MODES:
                cases[f"{label}.{name}.{mode}"] = _record(
                    session.execute(sql, mode=mode))
    spatial = build_spatial_session(SPATIAL)
    for mode in MODES:
        cases[f"spatial.{mode}"] = _record(
            spatial.execute(SPATIAL_QUERY_SQL, mode=mode))
    return cases


@pytest.fixture(scope="module")
def actual() -> dict:
    return ledger()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(actual, golden):
    assert sorted(actual) == sorted(golden)


@pytest.mark.parametrize("part", ["spans", "columns", "row_count", "approximate"])
def test_matches_golden(actual, golden, part):
    for case in sorted(golden):
        assert actual[case].get(part) == golden[case].get(part), case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    FIXTURE.write_text(json.dumps(ledger(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
