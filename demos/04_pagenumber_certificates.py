#!/usr/bin/env python3
"""Certify pagenumber facts by exact coloring of conflict graphs.

The conflict graph of a layout has one vertex per edge of K_{m,n}, adjacent
when the chords cross on a single page.  A layout extends to a crossing-free
k-page drawing iff its conflict graph is k-colorable, so checking every
layout decides whether K_{m,n} fits in k pages at all.
"""

from bookcross import (
    clique_lower_bound,
    conflict_graph,
    count_crossings,
    enumerate_layouts,
    export_cnf,
    solve_dimacs,
    verify_positive_crossing,
)

print("=== K_{4,5} needs a crossing in 3 pages ===")
result = verify_positive_crossing(4, 5, 3)
print("verdict:", result.status)
for log in result.logs:
    print(f"  {log.canonical}: {log.verdict} (nodes {log.nodes})")

print("\n=== K_{4,4} embeds in 3 pages: a colorable layout is a witness ===")
result44 = verify_positive_crossing(4, 4, 3)
print("verdict:", result44.status)
w = result44.witness
print(
    f"witness: K_{{{w.m},{w.n}}} drawing on {w.k} pages with "
    f"{count_crossings(w).total} crossings"
)

print("\n=== maximum cliques do most of the pruning ===")
for layout in list(enumerate_layouts(4, 5))[:4]:
    g = conflict_graph(layout)
    print(f"  {layout.to_bitstring()}: {g.vertex_count} vertices, clique = ω = {clique_lower_bound(g)}")

print("\n=== the same decisions export as DIMACS CNF ===")
g = conflict_graph(next(enumerate_layouts(4, 5)))
cnf = export_cnf(g, 3)
print("header:", cnf.splitlines()[0])
print("internal DPLL says:", "UNSAT" if solve_dimacs(cnf) is None else "SAT")
