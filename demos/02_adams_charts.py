"""Minimal resolutions, Ext charts, and 2-complete groups.

Run with:  python demos/02_adams_charts.py
"""

from a1bordism import ext as ex
from a1bordism import modules as md

# Resolving the trivial module F2 over A(1) reproduces the connective
# real K-theory pattern: an h0-tower in stem 0, lone classes in stems 1
# and 2, towers in stems 4 and 8.
res = ex.minimal_resolution(md.f2_module(), max_s=14, max_t=24)
ex.verify_resolution(res)  # boundary∘boundary = 0 and minimality
chart = ex.ext_chart(res)

print("Ext chart of F2 over A(1)  (columns n = t - s, dots by filtration s):\n")
print(ex.chart_ascii(chart, max_n=8, max_s=10))

# Reading groups off the chart: maximal h0-strands of length k give
# Z/2^k, strands that run out of the window top give a 2-adic Z.
cert = ex.collapse_certificate(chart, report_max_s=10, max_n=8)
rows = ex.assemble_groups(chart, cert)
print("assembled 2-complete groups:")
for r in rows:
    print(f"  degree {r.degree}: {r.group_str():12s}"
          + ("" if r.certified else "  [uncertified]"))

# The same machinery on the question-mark module Q = A(1)/(Sq1, Sq2Sq3):
resq = ex.minimal_resolution(md.catalog("Q"), max_s=12, max_t=18)
chartq = ex.ext_chart(resq)
print("\nExt chart of the question mark Q:\n")
print(ex.chart_ascii(chartq, max_n=6, max_s=8))
