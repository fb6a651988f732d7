"""Regenerate totals.json from scratch: the number of bipartite graphs with
both parts of size 4, by matching number.

    python3 perfbench/totals.py > perfbench/totals.json

With equal parts a matching extends to a bijection X -> Y, so the matching
number is the largest number of edges any bijection uses.
"""

import json
from itertools import permutations

PARTS = 4


def main() -> None:
    perms = list(permutations(range(PARTS)))
    by_nu = [0] * (PARTS + 1)
    for mask in range(1 << (PARTS * PARTS)):
        by_nu[max(sum(mask >> (x * PARTS + p[x]) & 1 for x in range(PARTS)) for p in perms)] += 1
    print(json.dumps({"bipartite_graphs_by_matching_number": {str(PARTS): by_nu},
                      "command": "python3 perfbench/totals.py > perfbench/totals.json"}, indent=2))


if __name__ == "__main__":
    main()
