"""Three-way agreement demo: closed form, prefix difference, brute force.

Sweeps a few morphisms from each family over a range of lengths and prints
the complexity profile with all three routes side by side.  The oracle
reads the extreme window B-counts of generated words from their B
positions and knows nothing about the formulas, so agreement here is a
genuine cross-check.
"""

import time

from parryac import ac, ac_via_prefix_counts, make_morphism, max_ac, oracle_ac

CASES = [
    make_morphism(3, 1, "nonsimple"),
    make_morphism(4, 1, "nonsimple"),
    make_morphism(3, 2, "simple"),
    make_morphism(4, 4, "simple"),
    make_morphism(4, 1, "simple"),    # Sturmian: AC constant 2, no v/w route
]

N_MAX = 300

for m in CASES:
    sturmian_simple = m.family.value == "simple" and m.q == 1
    start = time.time()
    profile = []
    for n in range(1, N_MAX + 1):
        closed = ac(m, n).value
        brute = oracle_ac(m, n).ac
        routes = [closed, brute]
        if not sturmian_simple:
            routes.append(ac_via_prefix_counts(m, n))
        assert len(set(routes)) == 1, (m, n, routes)
        profile.append(closed)
    elapsed = time.time() - start
    values = sorted(set(profile))
    print(f"{m.family.value:9s} p={m.p} q={m.q}:  AC values over n<=300: {values} "
          f"(max allowed {max_ac(m)}), all routes agree, {elapsed:.2f}s")
    line = "".join(str(v) for v in profile[:72])
    print(f"  profile n=1..72: {line}")
