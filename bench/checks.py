"""Independent answer checks.

Every expected answer here is computed from the benchmark's own plain data
(``inputs.py``) by a formula or a brute-force enumeration, never by pfspec
and never from a stored copy of an earlier output.  Each check returns a list
of problems; an empty list means the answer is right.  ``selftest.py`` shows
every check rejecting a deliberately wrong answer.
"""

import re
from itertools import product

from inputs import CATALOG_FRAMES


def prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _mask(indices):
    return sum(1 << i for i in indices)


# ---------------------------------------------------------------------------
# discrete semirings


def ideals_bruteforce(s):
    """Subsets containing 0 and closed under + and under multiplication by R."""
    n = len(s.names)
    out = set()
    for mask in range(1 << n):
        if not mask >> s.zero & 1:
            continue
        members = [x for x in range(n) if mask >> x & 1]
        if all(mask >> s.add[x][y] & 1 for x in members for y in members) and all(
            mask >> s.mul[r][x] & 1 for x in members for r in range(n)
        ):
            out.add(mask)
    return out


def prime_anti_ideals_bruteforce(s):
    """Subsets u with 1 in u, 0 not in u, xy in u iff x and y in u, and
    x+y in u only if x in u or y in u (the ``anti_ideals`` conditions)."""
    n = len(s.names)
    out = set()
    for u in range(1 << n):
        if not u >> s.one & 1 or u >> s.zero & 1:
            continue
        ok = True
        for x in range(n):
            for y in range(n):
                inside = bool(u >> s.mul[x][y] & 1)
                if inside != bool(u >> x & 1 and u >> y & 1):
                    ok = False
                    break
                if u >> s.add[x][y] & 1 and not (u >> x & 1 or u >> y & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(u)
    return out


def ring_expected(s):
    """Z/n under a relabelling: ideals dZ/n for d | n, points {x : p does not
    divide x} for p | n prime, and 2**omega(n) radicals."""
    n = s.modulus
    value = [int(name) for name in s.names]
    ideals = {
        _mask(i for i in range(n) if value[i] % d == 0)
        for d in range(1, n + 1)
        if n % d == 0
    }
    primes = prime_factors(n)
    points = {_mask(i for i in range(n) if value[i] % p) for p in primes}
    return ideals, points, 2 ** len(primes)


def upset_count(masks):
    """Number of up-sets of the family ``masks`` ordered by inclusion."""
    masks = list(masks)
    k = len(masks)
    count = 0
    for sel in range(1 << k):
        chosen = [masks[i] for i in range(k) if sel >> i & 1]
        if all(
            sel >> j & 1
            for a in chosen
            for j, b in enumerate(masks)
            if a & b == a
        ):
            count += 1
    return count


def zariski_expected(s):
    """(ideal masks, point masks, |Rad| or None) from the definitions: by
    formula for Z/n, by brute-force enumeration for every other semiring."""
    if s.modulus is not None:
        return ring_expected(s)
    return ideals_bruteforce(s), prime_anti_ideals_bruteforce(s), None


def check_zariski(label, expected, ideal_masks, point_masks, radical_count):
    ideals, points, radicals = expected
    problems = []
    if set(ideal_masks) != ideals or len(ideal_masks) != len(ideals):
        problems.append(f"{label}: ideals {sorted(ideal_masks)} != {sorted(ideals)}")
    if set(point_masks) != points or len(point_masks) != len(points):
        problems.append(f"{label}: points {sorted(point_masks)} != {sorted(points)}")
    if radicals is not None and radical_count != radicals:
        problems.append(f"{label}: |Rad| {radical_count} != 2^omega(n) = {radicals}")
    spec_opens = upset_count(point_masks)
    if radical_count != spec_opens:
        problems.append(f"{label}: |Rad| {radical_count} != up-sets of points {spec_opens}")
    return problems


# ---------------------------------------------------------------------------
# lattices with the Scott topology


def down_masks(p):
    n = len(p.names)
    return [_mask(k for k in range(n) if p.up[k] >> i & 1) for i in range(n)]


def join_irreducibles(p):
    """Elements with exactly one lower cover (so neither bottom nor a join
    of strictly smaller elements)."""
    n = len(p.names)
    down = down_masks(p)
    out = []
    for j in range(n):
        below = down[j] & ~(1 << j)
        covers = [
            k
            for k in range(n)
            if below >> k & 1 and not any(
                below >> m & 1 and m != k and p.up[k] >> m & 1 for m in range(n)
            )
        ]
        if len(covers) == 1:
            out.append(j)
    return out


def scott_expected(p):
    """(principal down-sets, up-sets of the join-irreducibles, |L|)."""
    return set(down_masks(p)), {p.up[j] for j in join_irreducibles(p)}, len(p.names)


def check_scott(label, expected, ideal_masks, point_masks, radical_count):
    ideals, points, size = expected
    problems = []
    if set(ideal_masks) != ideals or len(ideal_masks) != size:
        problems.append(f"{label}: ideals are not the {size} principal down-sets")
    if set(point_masks) != points or len(point_masks) != len(points):
        problems.append(f"{label}: points {sorted(point_masks)} != {sorted(points)}")
    if radical_count != size:
        problems.append(f"{label}: |Rad| {radical_count} != |L| = {size}")
    return problems


def _lattice_ops(p):
    """Join and meet tables of a finite lattice, found from its order."""
    n = len(p.names)
    down = down_masks(p)

    def extreme(cands, rel):
        best = [c for c in cands if all(rel[c] >> d & 1 for d in cands)]
        return best[0]

    join = [[extreme([k for k in range(n) if (p.up[a] & p.up[b]) >> k & 1], p.up) for b in range(n)] for a in range(n)]
    meet = [[extreme([k for k in range(n) if (down[a] & down[b]) >> k & 1], down) for b in range(n)] for a in range(n)]
    bottom = next(i for i in range(n) if p.up[i] == (1 << n) - 1)
    top = next(i for i in range(n) if down[i] == (1 << n) - 1)
    return join, meet, bottom, top


def frame_hom_count(src, dst):
    """Brute-force count of maps preserving 0, 1, binary joins and meets."""
    sj, sm, sb, st = _lattice_ops(src)
    dj, dm, db, dt = _lattice_ops(dst)
    n = len(src.names)
    free = [x for x in range(n) if x not in (sb, st)]
    count = 0
    for values in product(range(len(dst.names)), repeat=len(free)):
        f = [None] * n
        f[sb], f[st] = db, dt
        for x, v in zip(free, values):
            f[x] = v
        if all(
            f[sj[a][b]] == dj[f[a]][f[b]] and f[sm[a][b]] == dm[f[a]][f[b]]
            for a in range(n)
            for b in range(a + 1, n)
        ):
            count += 1
    return count


def representability_expected(item):
    """Expected anti-ideal (= hom) count per catalog frame."""
    if getattr(item, "modulus", None) is not None:
        w = len(prime_factors(item.modulus))
        return {name: (w * w if name == "P2frame" else w) for name in CATALOG_FRAMES}
    return {name: frame_hom_count(item, q) for name, q in CATALOG_FRAMES.items()}


def check_representability(label, expected, report_ok, entries):
    """``entries`` maps catalog name to (hom count, anti-ideal count)."""
    problems = []
    if not report_ok:
        problems.append(f"{label}: report.ok() is false")
    for name, want in expected.items():
        if name not in entries:
            problems.append(f"{label}: no entry for {name}")
            continue
        homs, members = entries[name]
        if homs != want or members != want:
            problems.append(f"{label}: {name} has {homs} homs, {members} anti-ideals, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# pfspec verify on a model file


def _is_lattice(elements, pairs):
    n = len(elements)
    idx = {e: i for i, e in enumerate(elements)}
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[idx[a]][idx[b]] = True
    for k, i, j in product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    for a in range(n):
        for b in range(n):
            ub = [c for c in range(n) if leq[a][c] and leq[b][c]]
            lb = [c for c in range(n) if leq[c][a] and leq[c][b]]
            if not any(all(leq[c][d] for d in ub) for c in ub):
                return False
            if not any(all(leq[d][c] for d in lb) for c in lb):
                return False
    return n > 0


def expected_verify_checks(text):
    """Number of records ``pfspec verify`` makes on a model file, from the
    suite rules: tensor 2 per lattice (a lattice block or a poset that is a
    lattice), duality 2 per monoid, semiring or lattice, representability 1
    per semiring or lattice, oracles 1 per discrete semiring and 2 per
    lattice."""
    text = re.sub(r"#[^\n]*", "", text)
    counts = {"tensor": 0, "duality": 0, "representability": 0, "oracles": 0}
    for kind, _name, body in re.findall(r"(\w+)\s+(\w+)\s*\{([^}]*)\}", text):
        fields = {}
        for part in body.split(";"):
            if ":" in part:
                key, value = part.split(":", 1)
                fields[key.strip()] = value.split()
        if kind == "poset":
            pairs = [tuple(v.split("<=")) for v in fields.get("leq", [])]
            if _is_lattice(fields["elements"], pairs):
                counts["tensor"] += 2
        elif kind == "lattice":
            counts["tensor"] += 2
            counts["duality"] += 2
            counts["representability"] += 1
            counts["oracles"] += 2
        elif kind == "monoid":
            counts["duality"] += 2
        elif kind == "semiring":
            counts["duality"] += 2
            counts["representability"] += 1
            if fields.get("order", ["discrete"]) == ["discrete"]:
                counts["oracles"] += 1
    return counts


_RECORD = re.compile(r"^\[(\w+)\] .* \.\.\. (PASS|FAIL|SKIPPED)(?: \(.*\))?$")


def count_records(output):
    return sum(1 for line in output.decode("utf-8", "replace").splitlines() if _RECORD.match(line))


def check_verify_output(outputs, exit_codes, expected):
    """Every job exits 0, every record is PASS, each suite has its expected
    record count, and all jobs print byte-identical text."""
    problems = []
    if any(code != 0 for code in exit_codes):
        problems.append(f"exit codes {sorted(set(exit_codes))}")
    if len(set(outputs)) != 1:
        problems.append(f"{len(set(outputs))} different outputs across {len(outputs)} jobs")
    text = outputs[0].decode("utf-8", "replace")
    per_suite = dict.fromkeys(expected, 0)
    for line in text.splitlines():
        m = _RECORD.match(line)
        if m is None:
            continue
        suite, status = m.groups()
        per_suite[suite] = per_suite.get(suite, 0) + 1
        if status != "PASS":
            problems.append(f"record not PASS: {line}")
    if per_suite != expected:
        problems.append(f"records per suite {per_suite} != {expected}")
    total = sum(expected.values())
    if f"total: {total}  pass: {total}  fail: 0  skipped: 0" not in text:
        problems.append("summary line does not report every check passing")
    return problems
