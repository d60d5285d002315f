#!/usr/bin/env python3
"""Tour of the four drawing families and their closed-form crossing counts.

Every construction is counted directly (pair by pair); the printed closed
forms are checked against those counts, not trusted.
"""

from bookcross import (
    balanced_embedding,
    block_cyclic,
    block_cyclic_crossing_count,
    blowup,
    blowup_crossing_count,
    count_crossings,
    is_balanced_embedding,
    riskin_crossing_count,
    riskin_drawing,
)

print("=== 1-page drawings on the balanced gap word (optimal for every m, n) ===")
for m, n in [(2, 4), (3, 3), (3, 6), (4, 8), (4, 6), (6, 4)]:
    d = riskin_drawing(m, n)
    counted = count_crossings(d).total
    print(f"K_{{{m},{n}}}: counted {counted}, closed form {riskin_crossing_count(m, n)}")

print("\n=== balanced k-page embeddings of K_{k+1, floor((k+1)^2/4)} ===")
for k in [1, 3, 5, 6, 10]:
    d = balanced_embedding(k)
    print(
        f"k={k}: K_{{{d.m},{d.n}}}, crossings {count_crossings(d).total}, "
        f"balanced={is_balanced_embedding(d)}"
    )

print("\n=== blow-ups: expanding white vertices into clusters ===")
base = balanced_embedding(3)  # K_{4,4}, 0 crossings
for n in [4, 5, 8, 13]:
    d = blowup(base, n)
    counted = count_crossings(d).total
    print(f"K_{{4,{n}}} in 3 pages: counted {counted}, closed form {blowup_crossing_count(3, n)}")
print("the n=5 value 1 is the exact 3-page crossing number of K_{4,5}")

print("\n=== block-cyclic k-page drawings of arbitrary K_{m,n} ===")
for m, n, k in [(4, 5, 3), (6, 6, 2), (7, 9, 4), (5, 5, 5)]:
    d = block_cyclic(m, n, k)
    counted = count_crossings(d).total
    print(
        f"K_{{{m},{n}}} in {k} pages: counted {counted}, "
        f"closed form {block_cyclic_crossing_count(m, n, k)}"
    )
print("at k=2 the block-cyclic count equals the Zarankiewicz bound Z(m,n)")
