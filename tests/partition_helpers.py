"""Chain and partition-tuple decompositions of the reduction chains.

These helpers spell out the combinatorics behind the chain counts of
:mod:`mdslab.partitions`: the drop pattern of a chain as a half-tuple of
partitions and back, and the split of a parity-synchronized partition
tuple into a strictly decreasing part plus even partitions. No CLI check
reads them, so they live beside the tests that exercise them.
"""

Partition = tuple[int, ...]


def _trim(p) -> Partition:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def conjugate(p: Partition) -> Partition:
    p = _trim(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= k) for k in range(1, p[0] + 1))


def chain_to_deltas(chain, n: int):
    """Half-tuple of partitions recording the drop pattern of a chain."""
    n1 = n + 1
    ell = len(chain) - 1
    deltas = []
    for i in range(0, n1, 2):
        col = []
        for j in range(1, ell + 1):
            col.append(chain[j - 1][(i + j - 1) % n1] - chain[j][(i + j - 2) % n1])
        deltas.append(_trim(col))
    return tuple(deltas)


def deltas_to_chain(deltas, n: int, ell: int):
    """Inverse of :func:`chain_to_deltas`: rebuild every index by the
    telescoping sum a_i^(j) = sum_{k>j} delta_{i+j+2-2k}^(k)."""
    n1 = n + 1

    def delta_at(i: int, k: int) -> int:
        col = deltas[(i % n1) // 2]
        return col[k - 1] if 1 <= k <= len(col) else 0

    rows = []
    for j in range(ell + 1):
        row = []
        for i in range(n1):
            if i % 2 == j % 2:
                row.append(sum(delta_at(i + j + 2 - 2 * k, k) for k in range(j + 1, ell + 1)))
            else:
                row.append(None)
        rows.append(row)
    # opposite-parity slots are frozen copies of the row above
    for j in range(1, ell + 1):
        for i in range(n1):
            if rows[j][i] is None:
                rows[j][i] = rows[j - 1][i]
    # the first row's remaining slots are fixed by the boundary shape
    for i in range(n1):
        if rows[0][i] is None:
            rows[0][i] = 2 * rows[0][0]
    return tuple(tuple(r) for r in rows)


def gamma_decomposition(pt) -> tuple[Partition, tuple[Partition, ...]]:
    """Split a parity-synchronized tuple of partitions as delta_i =
    even_i + gamma* with gamma strictly decreasing.

    Level j is odd or even simultaneously across the tuple. The conjugate
    of a strictly decreasing partition drops by exactly one part at a
    time, so its parity flips precisely at the parts; gamma is therefore
    read off as the positions where the level parity changes (padding with
    even levels below the tuple's depth).
    """
    pt = tuple(_trim(p) for p in pt)
    depth = max((len(p) for p in pt), default=0)
    parity = []
    for j in range(depth):
        seen = {(p[j] if j < len(p) else 0) % 2 for p in pt}
        if len(seen) > 1:
            raise ValueError(f"level {j + 1} mixes parities across the tuple")
        parity.append(seen.pop())
    parity.append(0)
    gamma = tuple(
        j + 1 for j in range(depth - 1, -1, -1) if parity[j] != parity[j + 1]
    )
    gstar = conjugate(gamma)
    evens = []
    for p in pt:
        adj = [p[j] - (gstar[j] if j < len(gstar) else 0) for j in range(len(p))]
        if len(gstar) > len(p) and any(gstar[len(p):]):
            raise ValueError("conjugate part exceeds the partition length")
        if any(x < 0 for x in adj) or any(x % 2 for x in adj):
            raise ValueError("subtracting the conjugate does not leave even parts")
        if any(adj[k] < adj[k + 1] for k in range(len(adj) - 1)):
            raise ValueError("subtracting the conjugate breaks monotonicity")
        evens.append(_trim(adj))
    return gamma, tuple(evens)
