"""Seeded random Ext charts against the h0-power oracles.

No pipeline chart has two h0-strands that meet, so the chart layer's
strand sweep, its assembly and the collapse certificate are also checked
here on random charts: max_s 3-8, columns 0-3, dims 0-3 and random h0
maps, some of them absent (zero).
"""

from __future__ import annotations

import random

import pytest

from a1bordism.ext import ExtChart, assemble_groups, collapse_certificate
from oracles import brute_certificate, h0_power_ranks, rank_power_rows

REASONS = ("beyond reliable window", "source not h0-nilpotent in window",
           "h0-kernel check exceeds window", "has kernel)")


def random_chart(rng):
    max_s = rng.randint(3, 8)
    dims = {(s, n): d for s in range(max_s + 1) for n in range(4)
            if rng.random() < 0.6 and (d := rng.randint(1, 3))}
    h0 = {(s, n): [rng.randrange(1 << dims[(s + 1, n)]) for _ in range(d)]
          for (s, n), d in dims.items() if (s + 1, n) in dims and rng.random() < 0.85}
    return ExtChart(max_s, max_s + rng.randint(0, 6), dims, h0), rng.randint(1, max_s)


@pytest.fixture(scope="module")
def charts():
    rng = random.Random(2212)
    return [random_chart(rng) for _ in range(400)]


def test_strands_count_the_ranks_of_h0_powers(charts):
    for i, (chart, _) in enumerate(charts):
        tops = {n: s for s, n in sorted(chart.dims)}  # each column's highest filtration
        for s, n in chart.dims:
            got = [chart.h0_rank(s, n, k) for k in range(tops[n] - s + 1)]
            assert got == h0_power_ranks(chart, s, n, tops[n]), (i, s, n)


def test_assembly_agrees_with_the_rank_power_rows(charts):
    for i, (chart, report_max_s) in enumerate(charts):
        cert = collapse_certificate(chart, report_max_s, max_n=3)
        assert assemble_groups(chart, cert) == rank_power_rows(chart, cert), i


def test_certificate_agrees_with_the_brute_force_oracle_for_every_max_n(charts):
    seen = set()
    for i, (chart, report_max_s) in enumerate(charts):
        for max_n in range(4):
            cert = collapse_certificate(chart, report_max_s, max_n)
            got = (cert.certified, cert.threats)
            assert got == brute_certificate(chart, report_max_s, max_n), (i, max_n)
            seen.update(r for r in REASONS for t in cert.threats if t.endswith(r))
    # every exclusion argument fails somewhere, so each is exercised
    assert seen == set(REASONS)
