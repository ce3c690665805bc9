"""Logarithmic-time evaluation at astronomically large n.

The closed form only manipulates greedy digit strings of n, so its cost
grows with the number of digits, not with n, and its memory with the
digits only linearly: the greedy pass keeps the digits and one window of
two rows per split place, a few dozen at most, not a table of every row.  This script times AC(n) at n with 10 to 100,000
decimal digits, where any enumeration is hopeless, cross-checks the one
independent route that still works at that scale (the prefix-difference
formula through the extremal-word B-counts), and prints the process's
peak resident memory.
"""

import resource
import sys
import time

from parryac import ac, ac_via_prefix_counts, make_morphism

MORPHISMS = [make_morphism(3, 1, "nonsimple"), make_morphism(3, 2, "simple")]

for digits in (10, 50, 200, 500, 10_000, 30_000, 100_000):
    n = 10 ** (digits - 1) + 123456789
    print(f"n with {digits} decimal digits")
    for m in MORPHISMS:
        start = time.perf_counter()
        value = ac(m, n).value
        elapsed = time.perf_counter() - start
        cross = ac_via_prefix_counts(m, n)
        print(f"  {m.family.value:9s} p={m.p} q={m.q}:  AC(n) = {value}  "
              f"({elapsed * 1e3:.2f} ms; prefix-difference route gives {cross})")
        assert value == cross

# ru_maxrss is in KiB on Linux and in bytes on macOS
scale = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
print(f"peak resident memory: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale:.1f} MB")
