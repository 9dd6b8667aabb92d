"""Acceptance gate: the ten advertised guarantees, one verdict line each.

Every test prints PASS/FAIL with a short summary and timing, collects all
problems before asserting, and enforces its own wall-clock budget.
"""

import csv
import os
import time

from conftest import record_verdict
from reference_routes import is_locally_rank_symmetric, is_locally_self_dual

from crosslat.crosslattice import CrossSectionLattice
from crosslat.diagram import build_path_diagram, format_nodeset, nodes_to_mask
from crosslat.flags import flag_qsym, fundamental_to_monomial, h_gamma, is_flag_symmetric
from crosslat.theorem_suite import (
    charpoly_formula,
    circuit_scan,
    combinatorially_smooth_typeA,
    conjecture_chains_scan,
    conjecture_charpoly_scan,
    construct_m_chain,
    distributive_count_scan,
    distributivity_criterion,
    family_graph,
    inner_product_scan,
    mobius_formula,
    partition_count,
    relcomp_criterion,
    stanley_factorization,
    supersolvability_criterion,
    theorem_equivalence_scan,
)

FINDINGS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "findings")


def path_lattice(n, j0_nodes):
    return CrossSectionLattice(build_path_diagram("A", n), nodes_to_mask(j0_nodes))


def verdict(num, elapsed, budget, problems, detail):
    ok = not problems and elapsed < budget
    status = "PASS" if ok else "FAIL"
    extra = f" [{'; '.join(str(p) for p in problems[:4])}]" if problems else ""
    record_verdict(f"{status} criterion {num}: {detail} ({elapsed:.2f}s){extra}")
    assert not problems, problems
    assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.2f}s"


def write_findings(name, rows):
    os.makedirs(FINDINGS_DIR, exist_ok=True)
    path = os.path.join(FINDINGS_DIR, name)
    fields = ["graph", "n", "j0_mask", "criterion", "value", "oracle", "agree", "note"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            writer.writerow(r.to_row())
    return path


def test_criterion_01_rank4_adjoint_example():
    t0 = time.monotonic()
    problems = []
    lat = path_lattice(4, {2, 3})
    poset = lat.to_poset()
    direct = poset.characteristic_polynomial()
    formula = charpoly_formula(lat)
    if str(direct) != "x^4 - 2x^3 + x^2":
        problems.append(f"direct charpoly {direct}")
    if formula != direct:
        problems.append(f"product form {formula} differs from direct {direct}")
    brute, _ = poset.is_supersolvable_bruteforce()
    if brute:
        problems.append("modular-chain search unexpectedly succeeded")
    if supersolvability_criterion(lat):
        problems.append("end-or-singleton criterion unexpectedly true")
    verdict(1, time.monotonic() - t0, 1.0, problems,
            "path n=4 marked {2,3}: charpoly x^4 - 2x^3 + x^2 by both routes, "
            "not supersolvable by either route")


def test_criterion_02_partition_types():
    t0 = time.monotonic()
    problems = []
    cases = [
        ({1, 2, 5}, (3, 2)),
        ({1, 2, 3}, (4, 1)),
        ({1, 5}, (2, 2, 1)),
        ({1, 2}, (3, 1, 1)),
    ]
    for j0, expected in cases:
        fact = path_lattice(5, j0).to_poset().chain_product_factorization()
        if fact != expected:
            problems.append(f"j0={sorted(j0)}: got {fact}, expected {expected}")
    verdict(2, time.monotonic() - t0, 1.0, problems,
            "path n=5 partition types (3,2), (4,1), (2,2,1), (3,1,1)")


def test_criterion_03_distributive_class_counts():
    t0 = time.monotonic()
    problems = []
    rows = distributive_count_scan("path_A", 6)
    values = [int(r.value) for r in rows]
    if values != [1, 2, 3, 5, 7, 10]:
        problems.append(f"class counts {values}")
    for n in range(1, 6):
        if values[n - 1] != partition_count(n):
            problems.append(f"n={n}: count {values[n - 1]} != p({n})")
    if values[5] == partition_count(6):
        problems.append("n=6 should fall short of p(6)=11")
    for r in rows:
        if not r.agree:
            problems.append(f"n={r.n}: type count {r.value} != iso classes {r.oracle}")
    verdict(3, time.monotonic() - t0, 30.0, problems,
            "distinct distributive lattices per n follow 1,2,3,5,7 then drop to 10 at n=6")


def test_criterion_04_six_element_interval():
    t0 = time.monotonic()
    problems = []
    lat = path_lattice(8, {3, 6, 7})
    u = nodes_to_mask({7, 8})
    v = nodes_to_mask({1, 2, 3, 7, 8})
    poset = lat.to_poset()
    sub = poset.interval_poset(lat.index(u), lat.index(v))
    if relcomp_criterion(lat, u, v):
        problems.append("isolation criterion claims relatively complemented")
    if sub.is_relatively_complemented():
        problems.append("brute force claims relatively complemented")
    if sub.is_atomic():
        problems.append("interval claims atomic")
    if sub.is_boolean():
        problems.append("interval claims boolean")
    mu = poset.mobius(lat.index(u), lat.index(v))
    if mu != 0:
        problems.append(f"recursive mobius {mu}")
    if mobius_formula(lat, u, v) != 0:
        problems.append("mobius formula nonzero")
    # companion configuration: {3,5,6,7} over the same interval bounds is
    # skipped, its top set carries the trapped component {3} and is not an
    # element of that lattice
    verdict(4, time.monotonic() - t0, 1.0, problems,
            "path n=8 marked {3,6,7}, interval [{7,8},{1,2,3,7,8}]: not relatively "
            "complemented, not atomic, not boolean, mobius 0 both routes "
            "(companion marking {3,5,6,7} skipped: top set inadmissible)")


def test_criterion_05_theorem_equivalences_exhaustive():
    t0 = time.monotonic()
    problems = []
    ok_style = {"interval_relcomp_atomic_boolean", "interval_mobius_formula",
                "join_irreducible_set", "meet_glb_formula"}
    total = 0
    for kind in ("path_A", "path_B", "path_C"):
        rows = theorem_equivalence_scan(kind, 6)
        total += len(rows)
        for r in rows:
            if not r.agree:
                problems.append(f"{kind} n={r.n} j0=0x{r.j0_mask:x} {r.criterion}")
            elif r.criterion in ok_style and r.value != "ok":
                problems.append(f"{kind} n={r.n} {r.criterion} value {r.value}")
            elif r.criterion == "upper_semimodularity" and r.value != "True":
                problems.append(f"{kind} n={r.n} j0=0x{r.j0_mask:x} not semimodular")
    verdict(5, time.monotonic() - t0, 600.0, problems,
            f"interval, mobius, join-irreducible, distributivity, supersolvability, "
            f"semimodularity, and meet checks all agree on {total} rows "
            f"(three path series, n <= 6)")


def test_criterion_06_m_chain_and_stanley_factorization():
    t0 = time.monotonic()
    problems = []
    checked = 0
    for n in range(1, 8):
        g = family_graph("path_A", n)
        for j0 in range(1 << n):
            if j0 == g.full_mask:
                continue
            lat = CrossSectionLattice(g, j0)
            if not supersolvability_criterion(lat):
                continue
            checked += 1
            chain = construct_m_chain(lat)
            poset = lat.to_poset()
            modular = poset.modular_element_mask()
            for mask in chain:
                if not modular[lat.index(mask)]:
                    problems.append(
                        f"n={n} j0=0x{j0:x}: {format_nodeset(mask)} not modular")
            stanley = stanley_factorization(lat, chain)
            direct = poset.characteristic_polynomial()
            formula = charpoly_formula(lat)
            if not (stanley == direct == formula):
                problems.append(
                    f"n={n} j0=0x{j0:x}: {stanley} / {direct} / {formula}")
    if checked != 176:
        problems.append(f"expected 176 supersolvable configurations, saw {checked}")
    verdict(6, time.monotonic() - t0, 120.0, problems,
            "all 176 supersolvable path configurations n <= 7: modular chain "
            "elements and matching factored/direct/product characteristic polynomials")


def test_criterion_07_conjecture_scans_with_findings():
    t0 = time.monotonic()
    problems = []
    charpoly_rows = []
    chains_rows = []
    for kind in ("path_A", "path_B", "path_C"):
        charpoly_rows.extend(conjecture_charpoly_scan(kind, 8))
        chains_rows.extend(conjecture_chains_scan(kind, 8))
    for r in charpoly_rows:
        if not r.agree:
            problems.append(f"charpoly {r.graph} n={r.n} j0=0x{r.j0_mask:x}")
    flagged = 0
    for r in chains_rows:
        if r.note == "single-free-node":
            flagged += 1  # prediction not asserted on these
        elif not r.agree:
            problems.append(f"chains {r.graph} n={r.n} j0=0x{r.j0_mask:x}")
    p1 = write_findings("conjecture_charpoly.csv", charpoly_rows)
    p2 = write_findings("conjecture_chains.csv", chains_rows)
    verdict(7, time.monotonic() - t0, 900.0, problems,
            f"conjecture scans n <= 8, three path series: {len(charpoly_rows)} "
            f"charpoly rows and {len(chains_rows)} chain-product rows, zero "
            f"counterexamples ({flagged} single-free-node rows flagged, not "
            f"asserted); findings in {os.path.relpath(p1)} and {os.path.relpath(p2)}")


def test_criterion_08_circuit_theorem():
    t0 = time.monotonic()
    problems = []
    rows = circuit_scan("cycle", 7, n_min=4)
    image_rows = [r for r in rows if r.criterion == "circuit_path_image"]
    ss_rows = [r for r in rows if r.criterion == "circuit_supersolvable_singletons"]
    for r in image_rows:
        if not r.agree:
            problems.append(f"path image n={r.n} j0=0x{r.j0_mask:x}")
    exceptions = set()
    for r in ss_rows:
        if r.note == "no-adjacent-free-pair":
            if not r.agree:
                exceptions.add((r.n, r.j0_mask))
        elif not r.agree:
            problems.append(f"supersolvable n={r.n} j0=0x{r.j0_mask:x}")
    # without two adjacent free vertices the singleton predicate genuinely
    # fails: a lone free vertex still yields a supersolvable lattice
    if exceptions != {(4, 0x7), (4, 0xb), (4, 0xd), (4, 0xe)}:
        problems.append(f"unexpected exception set {sorted(exceptions)}")
    verdict(8, time.monotonic() - t0, 120.0, problems,
            f"cycles n=4..7: all {len(image_rows)} cut-to-path images isomorphic; "
            f"singleton predicate matches brute force on every configuration with "
            f"two adjacent free vertices (4 lone-free-vertex exceptions at n=4 "
            f"flagged, outside the theorem's hypothesis)")


def test_criterion_09_flag_machinery():
    t0 = time.monotonic()
    problems = []
    checked = 0
    products = 0
    for n in range(1, 7):
        g = build_path_diagram("A", n)
        for j0 in range(1 << n):
            lat = CrossSectionLattice(g, j0)
            if not distributivity_criterion(lat):
                continue
            checked += 1
            poset = lat.to_poset()
            conds = {
                "locally self dual": is_locally_self_dual(poset),
                "locally rank symmetric": is_locally_rank_symmetric(poset),
                "flag symmetric": is_flag_symmetric(poset),
                "chain product": poset.chain_product_factorization() is not None,
            }
            if len(set(conds.values())) != 1:
                problems.append(f"n={n} j0=0x{j0:x}: split verdicts {conds}")
            gamma = poset.chain_product_factorization()
            if gamma is not None:
                products += 1
                expected = h_gamma(gamma, poset.rank_of_top())
                actual = fundamental_to_monomial(flag_qsym(poset))
                if actual != expected:
                    problems.append(f"n={n} j0=0x{j0:x}: flag function != h_gamma")
    table = write_findings("inner_product_beta1.csv", inner_product_scan("path_A", 6))
    verdict(9, time.monotonic() - t0, 120.0, problems,
            f"{checked} distributive path configurations n <= 6: the four "
            f"equivalence conditions agree on every one, and all {products} "
            f"chain products expand to h_gamma coefficient-for-coefficient; "
            f"beta({{1}}) vs free-count table (reported, not asserted) in "
            f"{os.path.relpath(table)}")


def test_criterion_10_smooth_list():
    t0 = time.monotonic()
    problems = []

    def smooth_shapes(n):
        shapes = {frozenset()}
        for k in range(1, n):
            shapes.add(frozenset(range(1, k + 1)))
        for k in range(2, n + 1):
            shapes.add(frozenset(range(k, n + 1)))
        for i in range(1, n + 1):
            for j in range(i + 3, n + 1):
                shapes.add(frozenset(range(1, i + 1)) | frozenset(range(j, n + 1)))
        return shapes

    witnesses = []
    for n in range(2, 9):
        g = build_path_diagram("A", n)
        listed = smooth_shapes(n)
        for j0 in range(1 << n):
            lat = CrossSectionLattice(g, j0)
            smooth = combinatorially_smooth_typeA(lat)
            expected = frozenset(a + 1 for a in range(n) if j0 >> a & 1) in listed
            if smooth != expected:
                problems.append(f"n={n} j0=0x{j0:x}: predicate {smooth}, list {expected}")
            if smooth and not distributivity_criterion(lat):
                problems.append(f"n={n} j0=0x{j0:x}: smooth but not distributive")
            if (not smooth and not lat.is_degenerate()
                    and distributivity_criterion(lat)):
                witnesses.append((n, j0))
    if not witnesses:
        problems.append("no non-smooth distributive configuration found")
    example = witnesses[0] if witnesses else (0, 0)
    verdict(10, time.monotonic() - t0, 30.0, problems,
            f"four-shape smoothness list matches on paths n=2..8 and implies "
            f"distributivity; {len(witnesses)} non-smooth distributive "
            f"configurations found (first: n={example[0]}, j0=0x{example[1]:x})")
